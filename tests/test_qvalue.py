"""Matching metric, averages, and sheet tracking.

The exhaustive Q!-permutation minimum implemented in the test module's own
helper (and in qbranch.brute_force_metric, kept intentionally naive) is the
oracle for the assignment-based metric."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qbranch as qb
from qbranch.qvalue import match_step, min_separation


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
