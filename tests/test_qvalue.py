"""Matching metric, averages, and sheet tracking.

The exhaustive Q!-permutation minimum implemented in the test module's own
helper (and in qbranch.brute_force_metric, kept intentionally naive) is the
oracle for the assignment-based metric.  scipy's linear_sum_assignment is
the oracle for the package's own assignment solver; the package itself
never imports scipy."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import qbranch as qb
from qbranch import qvalue
from qbranch.qvalue import TAU_TRACK, match_step, min_separation


def exhaustive_min(a, b):
    """Independent oracle: minimum over all permutations, summed in index
    order exactly like the production metric."""
    best = np.inf
    for perm in itertools.permutations(range(a.shape[0])):
        diff = a - b[list(perm)]
        val = np.sqrt(np.sum(np.einsum("ij,ij->i", diff, diff)))
        if val < best:
            best = float(val)
    return best


class TestMetric:
    def test_identity_pair(self):
        a = qb.QPoint([[1.0, 2.0], [3.0, -1.0]])
        assert qb.metric_g(a, a) == 0.0

    def test_straight_beats_crossed(self):
        # pairing (0,0)->(0,1) and (1,0)->(1,1) costs sqrt(2); the crossed
        # pairing costs 2
        a = qb.QPoint([[0.0, 0.0], [1.0, 0.0]])
        b = qb.QPoint([[0.0, 1.0], [1.0, 1.0]])
        assert qb.metric_g(a, b) == pytest.approx(np.sqrt(2.0), abs=0)
        assert exhaustive_min(a.vectors, b.vectors) == qb.metric_g(a, b)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_matches_exhaustive_oracle_exactly(self, q, rng):
        for _ in range(200):
            a = qb.QPoint(rng.normal(size=(q, 2)))
            b = qb.QPoint(rng.normal(size=(q, 2)))
            assert qb.metric_g(a, b) == exhaustive_min(a.vectors, b.vectors)

    def test_permutation_invariance(self, rng):
        v = rng.normal(size=(4, 3))
        a = qb.QPoint(v)
        b = qb.QPoint(v[[2, 0, 3, 1]])
        assert qb.metric_g(a, b) == 0.0

    def test_symmetry_and_triangle(self, rng):
        for _ in range(300):
            a = qb.QPoint(rng.normal(size=(3, 2)))
            b = qb.QPoint(rng.normal(size=(3, 2)))
            c = qb.QPoint(rng.normal(size=(3, 2)))
            ab, ba = qb.metric_g(a, b), qb.metric_g(b, a)
            assert ab == pytest.approx(ba, rel=1e-12)
            ac, cb = qb.metric_g(a, c), qb.metric_g(c, b)
            assert ab <= ac + cb + 1e-12 * max(ab, 1.0)

    def test_average_is_lipschitz(self, rng):
        # g(a, b)^2 >= Q |eta(a) - eta(b)|^2
        for _ in range(300):
            q = int(rng.integers(1, 6))
            a = qb.QPoint(rng.normal(size=(q, 2)))
            b = qb.QPoint(rng.normal(size=(q, 2)))
            lhs = qb.metric_g(a, b) ** 2
            rhs = q * np.sum((qb.eta(a) - qb.eta(b)) ** 2)
            assert lhs >= rhs - 1e-12 * max(lhs, 1.0)

    def test_dimension_mismatch(self):
        a = qb.QPoint([[0.0, 0.0]])
        b = qb.QPoint([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(qb.DimensionError):
            qb.metric_g(a, b)
        c = qb.QPoint([[0.0, 0.0, 0.0]])
        with pytest.raises(qb.DimensionError):
            qb.metric_g(a, c)


@st.composite
def qpoint_triples(draw):
    """Three points of A_Q(R^n), Q <= 5, and a relabelling of the sheets."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    points = [qb.QPoint(draw(arrays(np.float64, (q, n),
                                    elements=st.floats(-10, 10))))
              for _ in range(3)]
    return points, list(draw(st.permutations(range(q))))


class TestMetricProperties:
    @given(st.integers(1, 7).flatmap(lambda q: st.tuples(*(
        arrays(np.float64, (q, 2), elements=st.floats(-10, 10))
        for _ in range(2)))))
    def test_metric_is_the_exhaustive_minimum(self, pair):
        # bit for bit where the optimal matching is unique.  Where several
        # tie (repeated sheets), each sums the same squared distances in
        # its own order, and the exhaustive minimum keeps the lowest
        # rounding: there they agree to the rounding of a Q-term sum
        a, b = (qb.QPoint(v) for v in pair)
        got, best = qb.metric_g(a, b), qb.brute_force_metric(a, b)
        sums = sorted(np.sqrt(np.sum((a.vectors - b.vectors[list(p)]) ** 2))
                      for p in itertools.permutations(range(a.q)))
        if len(sums) == 1 or sums[1] - sums[0] > 1e-12 * max(sums[0], 1.0):
            assert got == best
        else:
            assert got == pytest.approx(best, rel=1e-15 * a.q, abs=0.0)

    @given(qpoint_triples())
    def test_axioms_against_the_exhaustive_metric(self, triple):
        (a, b, c), perm = triple
        ab = qb.metric_g(a, b)
        assert ab == qb.brute_force_metric(a, b)
        assert qb.metric_g(a, a) == 0.0
        assert ab == pytest.approx(qb.metric_g(b, a), rel=1e-12)
        assert ab <= qb.metric_g(a, c) + qb.metric_g(c, b) \
            + 1e-12 * max(ab, 1.0)
        relabelled = qb.QPoint(a.vectors[perm])
        assert qb.metric_g(relabelled, b) == pytest.approx(ab, rel=1e-12)
        assert qb.metric_g(relabelled, a) == 0.0


def _solve_or_none(solve, cost):
    """The column array of an assignment solve, or None where it raises
    ValueError."""
    try:
        rows, cols = solve(cost)
    except ValueError:
        return None
    assert np.array_equal(rows, np.arange(len(cost)))
    return cols.tolist()


def _cost_sweep(rng):
    """Seeded square cost matrices for Q = 1..12: Gaussian entries, the
    squared distances of near-duplicate points, exact ties (small integer
    costs, repeated rows) and forbidden inf entries."""
    for q in range(1, 13):
        for _ in range(30):
            yield "gaussian", rng.normal(size=(q, q))
            pts = rng.normal(size=(q, 2))
            pts[q // 2:] = pts[:q - q // 2] + 1e-3 * rng.normal(
                size=(q - q // 2, 2))
            near = pts[rng.permutation(q)] + 1e-3 * rng.normal(size=(q, 2))
            yield "near-duplicate", qvalue._cost_matrix(pts, near)
            yield "integer ties", rng.integers(0, 3, (q, q)).astype(float)
            rows = rng.integers(0, 4, (q, q)).astype(float)
            rows[rng.integers(q, size=q)] = rows[0]
            yield "repeated rows", rows
            forbidden = rng.normal(size=(q, q))
            forbidden[rng.random((q, q)) < 0.3] = np.inf
            yield "forbidden", forbidden


class TestAssignmentSolver:
    def test_picks_scipys_assignment(self):
        kinds, infeasible = set(), 0
        for kind, cost in _cost_sweep(np.random.default_rng(19)):
            want = _solve_or_none(linear_sum_assignment, cost)
            assert _solve_or_none(qvalue.linear_sum_assignment, cost) \
                == want, (kind, cost)
            kinds.add(kind)
            infeasible += want is None
        assert len(kinds) == 5 and infeasible > 0

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_a_forbidden_row_raises_in_both(self, q, rng):
        cost = rng.normal(size=(q, q))
        cost[q // 2] = np.inf
        for solve in (linear_sum_assignment, qvalue.linear_sum_assignment):
            with pytest.raises(ValueError):
                solve(cost)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_and_minus_inf_raise(self, bad):
        cost = np.ones((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError):
            qvalue.linear_sum_assignment(cost)

    def test_only_square_matrices(self):
        for shape in [(2, 3), (3, 2), (4,)]:
            with pytest.raises(ValueError):
                qvalue.linear_sum_assignment(np.zeros(shape))


class TestAverage:
    def test_eta_symmetric_pair(self):
        assert qb.eta(qb.QPoint([[1.0], [-1.0]])) == pytest.approx(0.0)

    def test_eta_of_repeated_point(self):
        v = np.array([0.3, -0.7])
        a = qb.QPoint(np.tile(v, (5, 1)))
        assert np.allclose(qb.eta(a), v)

    def test_eta_of_curve_roots_vanishes(self):
        spec = qb.CurveSpec(2, 3)
        for z in (0.3 + 0.1j, -0.2 + 0.9j, 1.0):
            pt = qb.evaluate_sheets(spec, z)
            assert np.linalg.norm(qb.eta(pt)) < 1e-15

    def test_average_free_examples(self):
        a = qb.QPoint([[2.0], [0.0]])
        out = qb.average_free(a).canonical()
        assert np.allclose(out, [[-1.0], [1.0]])
        v = np.array([1.0, 2.0])
        b = qb.average_free(qb.QPoint(np.tile(v, (3, 1))))
        assert np.allclose(b.vectors, 0.0)

    def test_average_free_idempotent(self, rng):
        for _ in range(100):
            a = qb.QPoint(rng.normal(size=(4, 2)))
            v = qb.average_free(a)
            assert qb.metric_g(qb.average_free(v), v) < 1e-12
            assert np.linalg.norm(qb.eta(v)) < 1e-12


class TestSerialization:
    def test_canonical_order_is_lexicographic(self):
        a = qb.QPoint([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
        assert np.allclose(a.canonical(),
                           [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]])

    def test_json_roundtrip_forgets_order(self):
        a = qb.QPoint([[3.0, 1.0], [-2.0, 0.5]])
        b = qb.QPoint.from_json(a.to_json())
        assert qb.metric_g(a, b) == 0.0
        assert a.to_json() == b.to_json()


class TestTracking:
    def test_constant_path(self):
        pt = qb.QPoint([[0.0, 0.0], [1.0, 0.0]])
        sel = qb.track_selection([pt] * 10, closed=True)
        assert np.array_equal(sel.monodromy, [0, 1])
        assert np.allclose(sel.sheets[:, 0], sel.sheets[:, -1])

    def test_separated_constants_identity_monodromy(self, rng):
        base = rng.normal(size=(4, 2)) * 10
        pts = [qb.QPoint(base + 1e-3 * rng.normal(size=(4, 2)))
               for _ in range(50)]
        sel = qb.track_selection(pts, closed=True)
        assert np.array_equal(sel.monodromy, np.arange(4))

    def test_square_root_of_z3_swaps_sheets(self):
        # the two branches of w^2 = z^3 continue into each other around 0
        spec = qb.CurveSpec(2, 3)
        thetas = np.linspace(0.0, 2 * np.pi, 200, endpoint=False)
        pts = [qb.evaluate_sheets(spec, np.exp(1j * t)) for t in thetas]
        sel = qb.track_selection(pts, closed=True)
        assert np.array_equal(sel.monodromy, [1, 0])
        assert sel.monodromy_cycle_lengths() == [2]

    def test_exact_collision_refuses(self):
        good = qb.QPoint([[1.0, 0.0], [-1.0, 0.0]])
        collided = qb.QPoint([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(qb.TrackingError) as err:
            qb.track_selection([good, collided, good])
        assert err.value.sample_index == 1

    def test_ambiguous_matching_refuses_with_index(self):
        # two sheets approach within the tracking tolerance of a swap
        a = qb.QPoint([[1.0, 0.0], [-1.0, 0.0]])
        b = qb.QPoint([[0.0, 1e-9], [0.0, -1e-9]])
        with pytest.raises(qb.TrackingError):
            qb.track_selection([a, b, a])

    def test_common_drift_does_not_confuse_matching(self):
        # all sheets translated by a large common vector between samples
        a = qb.QPoint([[1.0, 0.0], [-1.0, 0.0]])
        b = qb.QPoint([[6.0, 3.0], [4.0, 3.0]])
        sigma = match_step(a, b)
        assert list(sigma) == [0, 1]

    def test_min_separation(self):
        a = qb.QPoint([[0.0, 0.0], [3.0, 4.0]])
        assert min_separation(a) == pytest.approx(5.0)


# ----------------------------------------------------------------------------
# the per-sample tracker, kept as the oracle of the batched one: one exact
# assignment solve per pair, each sample matched against its relabelled
# predecessor


def _reference_separation(a):
    if len(a) == 1:
        return np.inf
    diff = a[:, None, :] - a[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    cost[np.diag_indices(len(a))] = np.inf
    return float(np.sqrt(cost.min()))


def _reference_second_best(cost, sigma):
    best = np.inf
    for i in range(len(cost)):
        c = cost.copy()
        c[i, sigma[i]] = np.inf
        try:
            rows, cols = linear_sum_assignment(c)
        except ValueError:
            continue
        val = c[rows, cols].sum()
        if np.isfinite(val):
            best = min(best, float(val))
    return best


def reference_match_step(a, b, sample_index):
    sep = min(_reference_separation(a), _reference_separation(b))
    if sep == 0.0:
        raise qb.TrackingError("collision", sample_index=sample_index)
    diff = a[:, None, :] - b[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(len(a), dtype=int)
    sigma[rows] = cols
    if len(a) == 1:
        return sigma
    best = float(cost[rows, cols].sum())
    step = float(np.sqrt(np.max(cost[rows, cols])))
    if np.isfinite(sep) and step < 0.25 * sep:
        return sigma
    second = _reference_second_best(cost, sigma)
    scale = max(sep, step) if np.isfinite(sep) else max(1.0, step)
    if np.sqrt(max(second, 0.0)) - np.sqrt(max(best, 0.0)) \
            < TAU_TRACK * scale:
        raise qb.TrackingError("ambiguous", sample_index=sample_index)
    return sigma


def reference_track(samples, closed):
    q, n = samples[0].shape
    N = len(samples)
    sheets = np.empty((q, N, n))
    sheets[:, 0] = samples[0]
    for i in range(1, N):
        sigma = reference_match_step(sheets[:, i - 1], samples[i], i)
        sheets[:, i] = samples[i][sigma]
    monodromy = np.arange(q)
    if closed:
        monodromy = reference_match_step(sheets[:, N - 1], samples[0], N)
    return sheets, monodromy


def make_chain(rng, q, n, N, kind, collide):
    """A chain of N shuffled samples of Q sheets in R^n: "separated" sheets
    drifting slowly, "noisy" ones jumping by about their separation, or a
    "near_swap" in which sheets 0 and 1 pass within 1e-12..1e-3 of each
    other while turning; collide copies one sheet onto another at one
    sample."""
    base = 3.0 * rng.normal(size=(q, n))
    step = {"separated": 0.01, "noisy": 1.0, "near_swap": 0.01}[kind]
    chain = base + step * np.cumsum(rng.normal(size=(N, q, n)), axis=0)
    if kind == "near_swap" and q >= 2:
        t = np.linspace(-1.0, 1.0, N)
        d = np.abs(t) + 10.0 ** -rng.uniform(3, 12)
        u = np.zeros((N, n))
        if n == 1:
            u[:, 0] = 1.0
        else:
            phi = rng.uniform(0.0, np.pi) * (t + 1) / 2
            u[:, 0], u[:, 1] = np.cos(phi), np.sin(phi)
        mid = chain[:, :2].mean(axis=1)
        chain[:, 0] = mid + d[:, None] * u
        chain[:, 1] = mid - d[:, None] * u
    if collide and q >= 2:
        k = rng.integers(N)
        chain[k, 1] = chain[k, 0]
    return [c[rng.permutation(q)] for c in chain]


def assert_tracks_like_the_reference(samples, closed):
    try:
        ref = reference_track(samples, closed)
    except qb.TrackingError as exc:
        with pytest.raises(qb.TrackingError) as err:
            qb.track_selection(samples, closed=closed)
        assert err.value.sample_index == exc.sample_index
        return str(exc)
    sel = qb.track_selection(samples, closed=closed)
    assert np.array_equal(sel.sheets, ref[0])
    assert sel.sheets.flags.c_contiguous
    assert np.array_equal(sel.monodromy, ref[1])
    return "tracked"


KINDS = ("separated", "noisy", "near_swap")


class TestBatchedTrackingOracle:
    @settings(max_examples=100)
    @given(q=st.integers(1, 5), n=st.integers(1, 3), N=st.integers(1, 40),
           closed=st.booleans(), kind=st.sampled_from(KINDS),
           collide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_sample_tracker(self, q, n, N, closed, kind,
                                            collide, seed):
        chain = make_chain(np.random.default_rng(seed), q, n, N, kind,
                           collide)
        assert_tracks_like_the_reference(chain, closed)

    def test_seeded_sweep_covers_every_outcome(self, monkeypatch):
        solves = []
        solve = qvalue.linear_sum_assignment
        monkeypatch.setattr(qvalue, "linear_sum_assignment",
                            lambda cost: solves.append(1) or solve(cost))
        rng = np.random.default_rng(7)
        outcomes = set()
        for trial in range(300):
            before = len(solves)
            chain = make_chain(rng, int(rng.integers(2, 6)),
                               int(rng.integers(1, 4)),
                               int(rng.integers(2, 41)), KINDS[trial % 3],
                               collide=trial % 7 == 0)
            outcome = assert_tracks_like_the_reference(
                chain, closed=bool(trial % 2))
            if outcome == "tracked" and len(solves) > before:
                outcome = "tracked through an assignment solve"
            outcomes.add(outcome)
        assert outcomes == {"tracked", "tracked through an assignment solve",
                            "collision", "ambiguous"}


def test_tracking_that_fast_accepts_leaves_scipy_optimize_unloaded():
    # every pair of these chains moves each sheet by less than a quarter of
    # the sheet separation, so no assignment solve is needed
    src = pathlib.Path(qb.__file__).resolve().parents[1]
    code = ("import sys, qbranch as qb; "
            "qb.homogeneous_map(1.5); "
            "g = qb.default_grid(r_min=2.0 ** -6, n_theta=64); "
            "qb.recenter(qb.homogeneous_map(1.5, grid=g), (0.4, 0.1)); "
            "qb.recenter(qb.make_multigraph(qb.CurveSpec(3, 4), g), "
            "(-0.3, 0.35)); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_optimize_unloaded():
    # the assignment solver is imported on first use, so commands that never
    # track do not pay for scipy.optimize
    src = pathlib.Path(qb.__file__).resolve().parents[1]
    code = ("import sys, qbranch, qbranch.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_matching_loads_no_scipy():
    # a metric and a tracking step that both need an assignment solve
    src = pathlib.Path(qb.__file__).resolve().parents[1]
    code = ("import sys, numpy as np, qbranch as qb; "
            "from qbranch import qvalue; "
            "solves, solve = [], qvalue.linear_sum_assignment; "
            "qvalue.linear_sum_assignment = "
            "lambda c: solves.append(1) or solve(c); "
            "rng = np.random.default_rng(5); "
            "qb.metric_g(qb.QPoint(rng.normal(size=(5, 2))), "
            "qb.QPoint(rng.normal(size=(5, 2)))); "
            "qvalue.match_step(qb.QPoint([[1.0, 0.0], [-1.0, 0.0]]), "
            "qb.QPoint([[0.6, 0.5], [-0.6, -0.5]])); "
            "print(len(solves), [m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "4 []"


class TestRefusals:
    @pytest.mark.parametrize("vectors, message", [
        (np.zeros((2, 0)), "\\(Q, n\\) array"),
        (np.zeros((2, 2, 2)), "\\(Q, n\\) array"),
        ([[0.0, np.nan], [1.0, 0.0]], "finite"),
        ([[0.0, np.inf], [1.0, 0.0]], "finite"),
    ])
    def test_qpoint_refuses_bad_vectors(self, vectors, message):
        with pytest.raises(qb.DimensionError, match=message):
            qb.QPoint(vectors)

    def test_complex_view_needs_a_plane(self):
        with pytest.raises(qb.DimensionError, match="n = 2"):
            qb.QPoint(np.zeros((2, 3))).as_complex()

    def test_empty_chain_is_refused(self):
        with pytest.raises(qb.TrackingError, match="empty sample chain"):
            qb.track_selection([])
