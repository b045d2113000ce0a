"""Ground-truth multigraphs and synthetic homogeneous maps."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qbranch as qb
from qbranch import curves
from qbranch.curves import (_angular_step_ratio, _area_moments, _area_rows,
                            _minus_sheet_mean, _move_ratio, _quartic_data,
                            _ring_data)
from qbranch.grids import TWO_PI
from qbranch.qvalue import _separation, _sq_norm
from conftest import single


class TestCurveSpec:
    @pytest.mark.parametrize("q, p", [(2.0, 3), ("2", 3), (2, 3.0),
                                      (2, "3")],
                             ids=["float_q", "str_q", "float_p", "str_p"])
    def test_rejects_non_integer_exponents(self, q, p):
        with pytest.raises(TypeError):
            qb.CurveSpec(q, p)

    def test_stores_numpy_integers_as_ints(self):
        spec = qb.CurveSpec(np.int64(4), np.int32(6))
        assert type(spec.q) is int and type(spec.p) is int
        assert spec == qb.CurveSpec(4, 6)

    def test_rejects_p_below_q(self):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(3, 2)

    def test_rejects_a_single_sheet(self):
        with pytest.raises(qb.SpecError, match="at least 2"):
            qb.CurveSpec(1, 3)

    def test_rejects_low_order_perturbation(self):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 3, (1.0,))
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 3, (0.0, 1.0))

    @pytest.mark.parametrize("coef", [complex("inf"), complex("nan"),
                                      complex(0, float("inf"))])
    def test_rejects_non_finite_perturbation(self, coef):
        with pytest.raises(qb.SpecError):
            qb.CurveSpec(2, 5, (0, 0, coef))

    @pytest.mark.parametrize("q, p, h, order", [
        (2, 3, (), 1.5), (3, 5, (), 5 / 3), (4, 6, (), 1.5),
        (2, 5, (0, 0, 1), 2.0), (2, 5, (0, 0, 0, 1), 2.5),
        (2, 5, (0, 0, 0), 2.5)],
        ids=["(2,3)", "(3,5)", "(4,6)", "(2,5)+z^2", "(2,5)+z^3", "(2,5)+0"])
    def test_contact_order(self, q, p, h, order):
        # p/Q, or ord h where that is lower; always a float
        got = qb.CurveSpec(q, p, h).contact_order()
        assert got == order and type(got) is float


class TestEvaluateSheets:
    def test_square_roots_at_one(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), 1.0)
        assert np.allclose(pt.canonical(), [[-1.0, 0.0], [1.0, 0.0]],
                           atol=1e-15)

    def test_square_roots_at_minus_one(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), -1.0)
        assert np.allclose(sorted(pt.as_complex(), key=lambda w: w.imag),
                           [-1j, 1j], atol=1e-12)

    def test_cube_roots_of_unity(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(3, 4), 1.0)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        got = np.sort_complex(pt.as_complex())
        assert np.allclose(got, np.sort_complex(expected), atol=1e-12)

    def test_origin_extends_by_zero(self):
        pt = qb.evaluate_sheets(qb.CurveSpec(2, 3), 0.0)
        assert np.allclose(pt.vectors, 0.0)

    def test_sheet_product_identity_random_points(self, rng):
        # prod_i (w_i - h(z)) = (-1)^(Q+1) z^p
        for spec in (qb.CurveSpec(2, 3), qb.CurveSpec(3, 4),
                     qb.CurveSpec(4, 5), qb.CurveSpec(2, 5, (0, 0, 0.3))):
            for _ in range(50):
                z = rng.normal() + 1j * rng.normal()
                w = qb.evaluate_sheets(spec, z).as_complex()
                prod = np.prod(w - spec.h(z))
                expected = (-1) ** (spec.q + 1) * z ** spec.p
                assert abs(prod - expected) <= 1e-10 * max(abs(expected), 1e-30)


class TestSheets:
    """CurveSpec.sheets is the one closed form of the test curve."""

    @pytest.mark.parametrize("q, p, h", [
        (2, 3, ()), (2, 5, (0, 0, 0.3 + 0.1j)), (4, 5, (0, 0, 0, 0.2j)),
        (3, 7, ())])
    def test_are_the_multigraph_samples(self, full_grid, q, p, h):
        # make_multigraph fills its ring blocks through sheets, so the
        # whole grid at once gives its samples bit for bit
        spec = qb.CurveSpec(q, p, h)
        f = qb.make_multigraph(spec, full_grid)
        w = spec.sheets(full_grid.radii[:, None], full_grid.angles[None, :])
        assert w.shape == f.values.shape[:3]
        assert np.array_equal(f.values.view(complex)[..., 0], w)

    def test_writes_into_out(self):
        spec = qb.CurveSpec(3, 5, (0, 0, 0.3))
        r, theta = np.array([[0.5], [0.25]]), np.array([[0.0, 1.0, 4.0]])
        out = np.empty((3, 2, 3), dtype=complex)
        assert spec.sheets(r, theta, out=out) is out
        assert np.array_equal(out, spec.sheets(r, theta))

    @pytest.mark.parametrize("q, p", [(2, 3), (3, 5), (4, 7)])
    def test_labels_continue_by_the_monodromy(self, q, p):
        # past theta = 2 pi sheet j runs into sheet (j + p) mod Q
        spec = qb.CurveSpec(q, p, (0, 0, 0.2))
        before = spec.sheets(0.5, 2 * np.pi - 1e-9)
        after = spec.sheets(0.5, 0.0)
        assert np.allclose(before, after[(np.arange(q) + p) % q], atol=1e-8)

    @pytest.mark.parametrize("z", [0.3 + 0.4j, -0.3 - 0.4j, -1.0, 2j])
    def test_evaluate_sheets_reads_them_at_arg_z(self, z):
        spec = qb.CurveSpec(3, 5, (0, 0, 0.3))
        theta = np.angle(z) % (2 * np.pi)
        assert np.array_equal(qb.evaluate_sheets(spec, z).as_complex(),
                              spec.sheets(abs(z), theta))


#: reducible curves (Q, p), gcd d > 1, and their reduced curves (Q/d, p/d)
REDUCIBLE = [((4, 6), (2, 3)), ((6, 9), (2, 3)), ((6, 8), (3, 4)),
             ((4, 10), (2, 5))]


class TestReducibleCurve:
    """With d = gcd(Q, p) > 1 the curve is d rotated copies of the reduced
    (Q/d, p/d) curve: each copy's frequency is p/Q, and I, the degree and
    the excess add up over the copies as the reduced curve's do."""

    @given(curve=st.sampled_from([(q, p) for q in range(2, 7)
                                  for p in range(q + 1, 13)
                                  if math.gcd(q, p) > 1]),
           h=st.sampled_from([(), (0, 0, 0.3 + 0.1j), (0, 0, 0, -0.2j)]),
           logr=st.floats(-16.0, 0.0),
           theta=st.floats(0.0, TWO_PI, exclude_max=True))
    def test_sheets_are_the_rotated_reduced_sheets(self, curve, h, logr,
                                                   theta):
        q, p = curve
        d = math.gcd(q, p)
        spec, r = qb.CurveSpec(q, p, h), 2.0 ** logr
        base = spec.h(r * np.exp(1j * theta))
        if d < q:
            branch = qb.CurveSpec(q // d, p // d, h).sheets(r, theta) - base
        else:  # Q divides p: the reduced curve is the one sheet z^(p/Q)
            branch = np.array([r ** (p // q) * np.exp(1j * (p // q) * theta)])
        want = np.concatenate([base + np.exp(2j * np.pi * k / q) * branch
                               for k in range(d)])
        got = spec.sheets(r, theta)
        dist = qb.metric_g(qb.QPoint.from_complex(got),
                           qb.QPoint.from_complex(want))
        assert dist <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("curve, reduced", REDUCIBLE)
    def test_monodromy_has_one_cycle_per_copy(self, curve_cache, curve,
                                              reduced):
        f = curve_cache(*curve)
        d = curve[0] // reduced[0]
        sel = qb.SheetSelection(sheets=f.values[:, -1], monodromy=f.monodromy,
                                closed=True)
        assert sel.monodromy_cycle_lengths() == [reduced[0]] * d
        assert f.check_selection() < 1

    @pytest.mark.parametrize("cutoff", [qb.RAMP, qb.SHARP])
    @pytest.mark.parametrize("curve, reduced", REDUCIBLE)
    def test_frequency_is_the_reduced_curves(self, curve_cache, full_grid,
                                             curve, reduced, cutoff):
        radii = full_grid.radii[full_grid.radii >= 4 * full_grid.r_min]

        def profile(c):
            return np.array([rec.I for rec in qb.frequency_profile(
                curve_cache(*c), radii, cutoff).records])
        I, I_reduced = profile(curve), profile(reduced)
        assert len(I) == len(radii)
        assert np.max(np.abs(I / I_reduced - 1)) < 1e-13
        assert np.max(np.abs(I - curve[1] / curve[0])) < 1e-4

    @pytest.mark.parametrize("curve, reduced", REDUCIBLE)
    def test_degree_is_the_reduced_curves(self, curve_cache, curve, reduced):
        est, est_reduced = (qb.singularity_degree(curve_cache(*c))
                            for c in (curve, reduced))
        assert est.converged and est_reduced.converged
        assert abs(est.value - est_reduced.value) < 1e-12
        assert est.notes["reference_degree"] == curve[1] / curve[0]

    @pytest.mark.parametrize("curve, reduced", REDUCIBLE)
    def test_horizontal_excess_adds_up_over_the_copies(self, curve_cache,
                                                       curve, reduced):
        d = curve[0] // reduced[0]
        for k in range(3, 15):
            ex, ex_reduced = (qb.spherical_excess(curve_cache(*c),
                                                  2.0 ** -k).excess
                              for c in (curve, reduced))
            assert ex == pytest.approx(d * ex_reduced, rel=1e-10, abs=0.0)


class TestMultigraph:
    def test_monodromy_is_q_cycle(self, curve_cache):
        f = curve_cache(2, 3)
        sel = qb.SheetSelection(sheets=f.values[:, -1], monodromy=f.monodromy,
                                closed=True)
        assert sel.monodromy_cycle_lengths() == [2]
        f35 = curve_cache(3, 5)
        sel35 = qb.SheetSelection(sheets=f35.values[:, -1],
                                  monodromy=f35.monodromy, closed=True)
        assert sel35.monodromy_cycle_lengths() == [3]

    def test_matches_closed_form_tracking(self, full_grid):
        # tracked evaluation around a ring agrees with the stored selection
        f = qb.make_multigraph(qb.CurveSpec(2, 3), full_grid)
        ring = full_grid.n_rings - 1
        pts = [qb.QPoint(f.values[:, ring, j]) for j in range(0, 512, 8)]
        sel = qb.track_selection(pts, closed=True)
        assert np.array_equal(sel.monodromy, f.monodromy)

    def test_average_equals_perturbation(self, curve_cache, full_grid):
        f = curve_cache(2, 5, (0, 0, 1))
        r = full_grid.radii[40]
        th = full_grid.angles[17]
        z = r * np.exp(1j * th)
        avg = np.mean(f.values[:, 40, 17], axis=0)
        assert abs(avg[0] - (z ** 2).real) < 1e-12
        assert abs(avg[1] - (z ** 2).imag) < 1e-12

    def test_rejects_a_grid_off_the_origin(self):
        # the curve is sampled about its branch point at the origin:
        # another centre would label the origin's samples with it
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64,
                               center=(0.3, 0.1))
        with pytest.raises(qb.ConfigError, match="origin"):
            qb.make_multigraph(qb.CurveSpec(2, 3), grid)

    def test_average_vanishes_without_perturbation(self, curve_cache):
        for (q, p) in [(2, 3), (3, 4), (4, 5)]:
            f = curve_cache(q, p)
            avg = np.mean(f.values, axis=0)
            assert np.abs(avg).max() < 1e-12

    def test_selection_margin(self, curve_cache):
        assert curve_cache(2, 3).check_selection() < 1.0
        assert curve_cache(2, 5, (0, 0, 1)).check_selection() < 1.0

    def test_refinement_error_on_coarse_angles(self):
        # angular step (p/q) d_theta exceeds half the sheet gap sin(pi/q)
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=64)
        with pytest.raises(qb.RefinementError):
            qb.make_multigraph(qb.CurveSpec(6, 35), grid)

    def test_refinement_invariance(self):
        # doubling the angular resolution leaves shared samples unchanged
        g1 = qb.default_grid(r_min=2.0 ** -8, n_theta=128)
        g2 = qb.default_grid(r_min=2.0 ** -8, n_theta=256)
        f1 = qb.make_multigraph(qb.CurveSpec(3, 4), g1)
        f2 = qb.make_multigraph(qb.CurveSpec(3, 4), g2)
        assert np.abs(f1.values - f2.values[:, :, ::2]).max() < 1e-14

    @pytest.mark.parametrize("block", [None, 1], ids=["default", "ring"])
    def test_ring_blocks_are_the_one_block_samples(self, full_grid, block,
                                                   monkeypatch):
        # blocks of rings change no sample bit, and a refused grid reports
        # the same worst ratio
        specs = [qb.CurveSpec(2, 3), qb.CurveSpec(4, 5),
                 qb.CurveSpec(3, 5, (0, 0, 0, 1))]
        coarse = qb.default_grid(r_min=2.0 ** -8, n_theta=64)

        def outputs():
            with pytest.raises(qb.RefinementError) as err:
                qb.make_multigraph(qb.CurveSpec(6, 35), coarse)
            return [qb.make_multigraph(s, full_grid).values
                    for s in specs], str(err.value)

        if block is not None:
            monkeypatch.setattr(qb.grids, "_BLOCK_BYTES", block)
        samples, message = outputs()
        monkeypatch.setattr(qb.grids, "_BLOCK_BYTES", 1 << 60)
        ref_samples, ref_message = outputs()
        assert all(np.array_equal(a, b)
                   for a, b in zip(samples, ref_samples))
        assert message == ref_message


def _explicit_step_ratios(f):
    """(angular, radial) largest sheet moves between adjacent samples in
    units of half the sheet separation, on an explicit average-free copy."""
    v = f.values - np.mean(f.values, axis=0, keepdims=True)
    nxt = np.concatenate([v[:, :, 1:], v[f.monodromy][:, :, :1]], axis=2)
    sep = _separation(v)
    ang = np.linalg.norm(nxt - v, axis=3).max(axis=0) / (0.5 * sep)
    rad = np.linalg.norm(v[:, 1:] - v[:, :-1], axis=3).max(axis=0) \
        / (0.5 * np.minimum(sep[1:], sep[:-1]))
    return ang, rad


class TestTrackingCheck:
    @pytest.mark.parametrize("q,p,h", [(2, 3, ()), (2, 5, ()), (3, 4, ()),
                                       (3, 5, ()), (4, 5, ()),
                                       (2, 5, (0, 0, 1, 0.5j))])
    def test_one_pass_ratio_is_the_average_free_one(self, curve_cache,
                                                    small_grid, q, p, h):
        f = qb.make_multigraph(qb.CurveSpec(q, p, h), small_grid) if h \
            else curve_cache(q, p)
        ang, rad = _explicit_step_ratios(f)
        np.testing.assert_allclose(
            _angular_step_ratio(f.values, f.monodromy)[1], ang,
            rtol=1e-12, atol=0.0)
        assert f.check_selection() == pytest.approx(
            max(ang.max(), rad.max()), rel=1e-12, abs=0.0)

    def test_squared_norms_are_the_einsum_ones(self, curve_cache, rng,
                                               monkeypatch):
        # the per-node squared norm sums the component products in order:
        # for n = 2 that is the einsum's sum bit for bit
        maps = [curve_cache(q, p) for (q, p) in
                [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]]

        def outputs():
            # the residual of a fresh copy: its tables are swept anew
            return [(*_angular_step_ratio(f.values, f.monodromy),
                     f.check_selection(),
                     qb.mass_expansion_residual(f.replace_values(f.values),
                                                0.5))
                    for f in maps]

        fast = outputs()
        for module in (qb.qvalue, qb.curves):
            monkeypatch.setattr(module, "_sq_norm", lambda x: np.einsum(
                "...n,...n->...", x, x))
        for got, want in zip(fast, outputs()):
            sep, ratio, selection, residual = got
            assert np.array_equal(sep, want[0])
            assert np.array_equal(ratio, want[1])
            assert selection == want[2]
            assert residual == want[3]
        # for n = 3 the order of the sum may differ from the einsum's
        v = rng.normal(size=(3, 5, 7, 3))
        step = rng.normal(size=v.shape)
        sep = _separation(v)
        np.testing.assert_allclose(
            sep, np.sqrt(np.minimum.reduce([
                np.einsum("...n,...n->...", v[a] - v[b], v[a] - v[b])
                for a, b in [(0, 1), (0, 2), (1, 2)]])), rtol=1e-15, atol=0)
        moved = step - step.mean(axis=0)
        np.testing.assert_allclose(
            _move_ratio(step, sep), np.sqrt(np.einsum(
                "k...n,k...n->k...", moved, moved).max(axis=0)) / (0.5 * sep),
            rtol=1e-15, atol=0)

    def test_coinciding_sheets_give_no_nan(self, small_grid):
        x, y = small_grid.nodes_xy()
        harmonic = np.stack([x, -y], axis=-1)
        zero = np.zeros_like(harmonic)
        crossing = np.stack([y, zero[..., 0]], axis=-1)  # meet at theta = 0

        def pair(a, b):
            return qb.QFunction(grid=small_grid, values=np.stack([a, b]),
                                monodromy=np.arange(2))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # nothing moves once the common motion is taken out: 0
            for f in (pair(harmonic, harmonic), pair(zero, zero)):
                ratio = _angular_step_ratio(f.values, f.monodromy)[1]
                assert ratio.max() == 0.0
                assert f.check_selection() == 0.0
            # sheets that meet and move apart: inf, which no check passes
            f = pair(crossing, -crossing)
            ratio = _angular_step_ratio(f.values, f.monodromy)[1]
            assert ratio.max() == np.inf
            assert f.check_selection() == np.inf


class TestMetadata:
    def test_derived_maps_leave_the_parent_notes_alone(self, small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        first = f.replace_values(f.values, note="first")
        second = first.replace_values(f.values, note="second")
        assert "notes" not in f.metadata
        assert first.metadata["notes"] == ["first"]
        assert second.metadata["notes"] == ["first", "second"]
        same = qb.rescale(first, 1.0)
        free = qb.average_free_part(first)
        assert first.metadata["notes"] == ["first"]
        assert same.metadata["rescaled_by"] == 1.0
        assert same.metadata["notes"] == ["first"]
        assert free.metadata["notes"] == ["first", "average-free"]


class TestClaimedCurve:
    """CurveSpec.from_metadata reads back the curve make_multigraph claims."""

    SPECS = [qb.CurveSpec(2, 3), qb.CurveSpec(2, 5, (0, 0, 0.3 + 0.1j)),
             qb.CurveSpec(3, 7, (0, 0, 0, -0.2j)),
             qb.CurveSpec(4, 6, (0, 0, 0.2j))]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_reads_back_the_claim(self, spec, tmp_path):
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=256)
        f = qb.make_multigraph(spec, grid)
        assert qb.CurveSpec.from_metadata(f.metadata) == spec
        qb.save_qfunction(f, tmp_path / "f.qfn")
        loaded = qb.load_qfunction(tmp_path / "f.qfn")
        assert qb.CurveSpec.from_metadata(loaded.metadata) == spec

    def test_maps_that_claim_no_curve(self, small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), qb.default_grid(
            r_min=2.0 ** -6, n_theta=128))
        for g in (qb.homogeneous_map(1.5, grid=small_grid), qb.eta_map(f),
                  qb.recenter(f, (0.4, 0.1)),
                  qb.QFunction(grid=small_grid, monodromy=[0],
                               values=np.zeros((1, small_grid.n_rings,
                                                small_grid.n_theta, 2)))):
            assert qb.CurveSpec.from_metadata(g.metadata) is None

    @pytest.mark.parametrize("meta, message", [
        ({}, "q=None, p=None, h_coeffs=[] is malformed"),
        ({"q": 2.5, "p": 3}, "q=2.5,"),
        ({"q": "2", "p": 3}, "q='2',"),
        ({"q": 2}, "p=None,"),
        ({"q": 2, "p": 3, "h_coeffs": [[0, 0], [1]]},
         "h_coeffs=[[0, 0], [1]] is malformed"),
        ({"q": 2, "p": 3, "h_coeffs": None}, "h_coeffs=None is malformed"),
        ({"q": 2, "p": 3, "h_coeffs": [[0, 0], ["1", 0]]},
         "h_coeffs=[[0, 0], ['1', 0]] is malformed"),
        ({"q": 1, "p": 3}, "Q must be at least 2"),
        ({"q": 3, "p": 2}, "need p > Q"),
        ({"q": 2, "p": 3, "h_coeffs": [[0.5, 0]]}, "h(0) must vanish"),
        ({"q": 2, "p": 3.0}, "p=3.0,"),
    ])
    def test_malformed_claim_names_the_fields(self, meta, message):
        with pytest.raises(qb.ConfigError, match=re.escape(message)) as err:
            qb.CurveSpec.from_metadata({"kind": "curve", **meta})
        assert str(err.value).startswith("the claimed curve q=")


class TestReadOnlySamples:
    """Every map's samples are read-only, so no cached table goes stale."""

    @staticmethod
    def build(source, tmp_path):
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=128)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        if source == "homogeneous_map":
            return qb.homogeneous_map(1.5, grid=grid)
        if source == "load_qfunction":
            qb.save_qfunction(f, tmp_path / "f.qfn")
            return qb.load_qfunction(tmp_path / "f.qfn")
        if source == "recenter":
            return qb.recenter(f, (0.4, 0.1))
        if source == "rescale":
            return qb.rescale(f, 0.5)
        return f

    @pytest.mark.parametrize("source", [
        "make_multigraph", "homogeneous_map", "load_qfunction", "recenter",
        "rescale"])
    def test_in_place_write_raises(self, source, tmp_path):
        f = self.build(source, tmp_path)
        with pytest.raises(ValueError, match="read-only"):
            f.values[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            f.values *= 2.0

    def test_replace_values_gets_fresh_tables(self):
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=64)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        before = single(f, 0.5).I, qb.dirichlet_energy(f, 0.5)
        values = 2.0 * f.values
        values[0, ..., 0] += grid.radii[:, None] ** 2
        g = f.replace_values(values)
        fresh = qb.QFunction(grid=grid, values=values.copy(),
                             monodromy=f.monodromy)
        after = single(g, 0.5).I, qb.dirichlet_energy(g, 0.5)
        assert after == (single(fresh, 0.5).I,
                         qb.dirichlet_energy(fresh, 0.5))
        assert after[0] != pytest.approx(before[0], rel=1e-3)
        assert after[1] != pytest.approx(before[1], rel=1e-3)
        assert (single(f, 0.5).I, qb.dirichlet_energy(f, 0.5)) == before


class TestQFunctionRefusals:
    @staticmethod
    def refused(grid, values, monodromy, message):
        with pytest.raises(qb.DimensionError, match=message):
            qb.QFunction(grid=grid, values=values, monodromy=monodromy)

    def test_shape(self, small_grid):
        R, T = small_grid.n_rings, small_grid.n_theta
        self.refused(small_grid, np.zeros((2, R, T)), [1, 0],
                     "shape \\(Q, R, T, n\\)")
        self.refused(small_grid, np.zeros((2, R - 1, T, 2)), [1, 0],
                     "do not match the grid")

    def test_samples_must_be_finite(self, small_grid):
        values = np.zeros((2, small_grid.n_rings, small_grid.n_theta, 2))
        values[1, 3, 4, 0] = np.nan
        self.refused(small_grid, values, [1, 0], "finite")

    @pytest.mark.parametrize("monodromy", [[0, 0], [1, 2], [0]])
    def test_monodromy_must_permute_the_sheets(self, small_grid, monodromy):
        values = np.zeros((2, small_grid.n_rings, small_grid.n_theta, 2))
        self.refused(small_grid, values, monodromy, "permutation")

    def test_file_format_is_planar(self, small_grid, tmp_path):
        f = qb.QFunction(grid=small_grid, monodromy=[0], values=np.zeros(
            (1, small_grid.n_rings, small_grid.n_theta, 3)))
        with pytest.raises(qb.DimensionError, match="planar codomains"):
            qb.save_qfunction(f, tmp_path / "f.qfn")
        assert not (tmp_path / "f.qfn").exists()


def _reference_minus_sheet_mean(a, out=None):
    """The centring as np.mean gives it."""
    return np.subtract(a, np.mean(a, axis=0, keepdims=True), out=out)


def _reference_area_rows(f):
    """The area rows of a block of f's rings, reduced sheet by sheet."""
    cs = np.stack([np.cos(f.grid.angles), np.sin(f.grid.angles)])
    cs /= f.grid.n_theta

    def rows(x, u, w):
        U, W = cs @ u.sum(axis=0), cs @ w.sum(axis=0)
        area = wedge = 0.0
        for uk, wk in zip(u, w):
            cross = uk[..., 0] * wk[..., 1]
            cross -= uk[..., 1] * wk[..., 0]
            wedge = wedge + np.mean(cross, axis=-1)
            q2 = np.square(cross, out=cross)
            q2 += _sq_norm(uk)
            q2 += _sq_norm(wk)
            q2 += 1.0
            area = area + np.mean(np.sqrt(q2, out=q2), axis=-1)
        return TWO_PI * np.column_stack([area, np.full_like(area, f.q),
                                         U[:, 1] + W[:, 0], W[:, 1] - U[:, 0],
                                         wedge])
    return rows


def _swept_tables(f):
    """The ring, area and sum |Df|^4 tables of f, as bytes."""
    return [np.asarray(a).tobytes()
            for build in (_ring_data, _area_moments, _quartic_data)
            for a in build(f)]


class TestArrayReductions:
    """The sheet mean and the area rows reduce a block's sheets as one
    array, with the bits of np.mean and of a sheet-by-sheet loop."""

    # Q >= 8 on a one-ring block is where numpy's reduce over the sheets
    # would sum pairwise
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 12])
    @pytest.mark.parametrize("rings", [1, 2, 7])
    def test_random_ring_blocks(self, small_grid, q, rings):
        rng = np.random.default_rng([q, rings])
        f = qb.QFunction(grid=small_grid, monodromy=np.arange(q),
                         values=np.zeros((q, small_grid.n_rings,
                                          small_grid.n_theta, 2)))
        for _ in range(10):  # a pairwise sum differs in about 1 in 3
            x, u, w = (rng.standard_normal((q, rings, small_grid.n_theta, 2))
                       * 10.0 ** rng.integers(-3, 4, size=(q, rings, 1, 1))
                       for _ in range(3))
            assert _area_rows(f)(x, u, w).tobytes() == \
                _reference_area_rows(f)(x, u, w).tobytes()
            assert _minus_sheet_mean(x).tobytes() == \
                _reference_minus_sheet_mean(x).tobytes()
            centred = u.copy()
            _minus_sheet_mean(centred, centred)
            assert centred.tobytes() == \
                _reference_minus_sheet_mean(u).tobytes()

    @pytest.mark.parametrize("name", ["(2,3)", "(4,5)+0.3z^2",
                                      "(3,5)+(0.2+0.1i)z^2", "alpha=0.75"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_swept_tables(self, curve_cache, full_grid, monkeypatch, name,
                          seeded):
        source = {"(2,3)": lambda: curve_cache(2, 3),
                  "(4,5)+0.3z^2": lambda: curve_cache(4, 5, (0, 0, 0.3)),
                  "(3,5)+(0.2+0.1i)z^2":
                      lambda: curve_cache(3, 5, (0, 0, 0.2 + 0.1j)),
                  "alpha=0.75": lambda: qb.homogeneous_map(
                      0.75, grid=full_grid)}[name]()

        def tables():
            # a fresh map, no table cached; swept before its part, whose
            # ring table its sweep then seeds, or after it
            f = source.replace_values(source.values)
            first = _swept_tables(f) if seeded else []
            v = qb.average_free_part(f)
            assert ("ring_data" in v._cache) == seeded
            return first + _swept_tables(v) + ([] if seeded
                                               else _swept_tables(f))

        swept = tables()
        monkeypatch.setattr(curves, "_minus_sheet_mean",
                            _reference_minus_sheet_mean)
        monkeypatch.setitem(curves._REDUCTIONS, "area_moments",
                            _reference_area_rows)
        assert swept == tables()


class TestHomogeneousMap:
    def test_antipodal_boundary_gives_linear_pair(self, small_grid):
        # boundary {+e, -e} extends to the two-valued pair {r e, -r e}
        e = np.array([[1.0, 0.0], [-1.0, 0.0]])
        f = qb.homogeneous_map(1.0, boundary=qb.constant_profile(e),
                               grid=small_grid)
        r = small_grid.radii[None, :, None]
        assert np.allclose(np.abs(f.values[..., 0]), np.broadcast_to(
            r, f.values[..., 0].shape))
        assert np.allclose(f.values[..., 1], 0.0)
        assert np.allclose(f.values.sum(axis=0), 0.0)
        assert np.array_equal(f.monodromy, [0, 1])

    def test_homogeneity_by_construction(self, small_grid):
        f = qb.homogeneous_map(1.5, grid=small_grid)
        assert qb.homogeneity_check(f, 1.5) < 1e-12

    def test_spiral_matches_multigraph(self, full_grid):
        f_spiral = qb.homogeneous_map(1.5, grid=full_grid)
        f_curve = qb.make_multigraph(qb.CurveSpec(2, 3), full_grid)
        # both are the antipodal pair {w, -w}; a componentwise sort over the
        # sheet axis compares the unordered values at every node
        d = np.sort(f_spiral.values, axis=0) - np.sort(f_curve.values, axis=0)
        assert np.abs(d).max() < 1e-12

    def test_spiral_profile_rejects_irrational(self):
        with pytest.raises(qb.ConfigError):
            qb.spiral_profile(np.pi)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan, 1e308])
    def test_rejects_alpha_without_a_finite_phase(self, alpha, small_grid):
        # alpha * 2 pi overflows or is undefined: there is no profile
        with pytest.raises(qb.ConfigError):
            qb.spiral_profile(alpha)
        with pytest.raises(qb.ConfigError):
            qb.homogeneous_map(alpha, grid=small_grid)

    def test_rejects_a_grid_off_the_origin(self):
        # the closed forms are sampled about the origin: another centre
        # would label the origin's samples with it
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64,
                               center=(0.3, 0.1))
        with pytest.raises(qb.ConfigError, match="origin"):
            qb.homogeneous_map(1.5, grid=grid)

    @pytest.mark.parametrize("alpha", [0.0, -1.5])
    def test_rejects_nonpositive_alpha(self, alpha, small_grid):
        with pytest.raises(qb.ConfigError):
            qb.homogeneous_map(alpha, grid=small_grid)


class TestFileFormat:
    def test_roundtrip(self, tmp_path, small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        path = tmp_path / "curve.qfn"
        qb.save_qfunction(f, path)
        g = qb.load_qfunction(path)
        assert np.array_equal(g.values, f.values)  # bit-exact
        assert np.array_equal(g.monodromy, f.monodromy)
        assert g.grid.n_theta == f.grid.n_theta
        assert g.metadata["kind"] == "curve"

    def test_file_is_the_header_and_the_raw_samples(self, tmp_path,
                                                    small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        path = tmp_path / "curve.qfn"
        qb.save_qfunction(f, path)
        head, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(head)["format"] == "qbranch-qfunction-2"
        assert payload == f.values.astype("<f8").tobytes()

    def test_rows_match_the_per_row_format(self, tmp_path, small_grid):
        """A text file of the format before save_qfunction's, its rows in
        the plain per-row format, signed zeros and subnormals included,
        reads back to the same bits as the raw file of the same map."""
        from conftest import save_qfunction_text
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        special = np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300, -1e300])
        values = f.values.copy()
        values.flat[:special.size] = special
        values.flat[-special.size:] = special[::-1]
        f = f.replace_values(values)
        path = save_qfunction_text(f, tmp_path / "special.qfn")
        header, columns, body = path.read_text().split("\n", 2)
        assert json.loads(header)["format"] == "qbranch-qfunction-1"
        assert columns == "ring,angle,sheet,re,im"
        Q, R, T, _ = f.values.shape
        rows = []
        for i in range(R):
            for j in range(T):
                for k in range(Q):
                    re, im = f.values[k, i, j]
                    rows.append(f"{i},{j},{k},{re:.17g},{im:.17g}\n")
        assert body == "".join(rows)
        assert "-0," in body and "4.9406564584124654e-324" in body
        g = qb.load_qfunction(path)
        assert g.values.tobytes() == f.values.tobytes()
        qb.save_qfunction(f, tmp_path / "special-raw.qfn")
        raw = qb.load_qfunction(tmp_path / "special-raw.qfn")
        assert raw.values.tobytes() == g.values.tobytes()
        assert np.array_equal(raw.monodromy, g.monodromy)
        assert raw.grid.radii.tobytes() == g.grid.radii.tobytes()
        assert raw.metadata == g.metadata

    def test_roundtrip_of_a_grid_with_ratio_one_and_a_half(self, tmp_path):
        # 1.5 is no ratio 2^(1/k): only the stored radii can describe it
        grid = qb.PolarGrid(radii=1.5 ** np.arange(-11.0, 1.0), n_theta=64)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        path = tmp_path / "ratio15.qfn"
        qb.save_qfunction(f, path)
        g = qb.load_qfunction(path)
        assert np.array_equal(g.grid.radii, grid.radii)  # bit-exact
        assert np.array_equal(g.values, f.values)
        assert np.array_equal(g.monodromy, f.monodromy)

    @given(data=st.data())
    def test_roundtrip_is_bit_exact(self, tmp_path_factory, data):
        """Random geometric grids and samples, signed zeros and subnormals
        included, come back bit for bit."""
        ratio = data.draw(st.floats(1.01, 4.0))
        n_rings = data.draw(st.integers(8, 12))
        top = data.draw(st.floats(1e-3, 1e3))
        center = data.draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
        grid = qb.PolarGrid(radii=top * ratio ** np.arange(1.0 - n_rings, 1.0),
                            n_theta=data.draw(st.integers(64, 72)),
                            center=center)
        q = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.normal(size=(q, n_rings, grid.n_theta, 2)) \
            * 10.0 ** rng.integers(-300, 300, size=(q, n_rings, 1, 1))
        special = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1.5e-310]
        spots = rng.choice(values.size, size=len(special), replace=False)
        values.flat[spots] = special
        f = qb.QFunction(grid=grid, values=values,
                         monodromy=data.draw(st.permutations(range(q))))
        path = tmp_path_factory.mktemp("roundtrip") / "f.qfn"
        qb.save_qfunction(f, path)
        g = qb.load_qfunction(path)
        assert g.values.tobytes() == f.values.tobytes()
        assert np.array_equal(g.monodromy, f.monodromy)
        assert g.grid.radii.tobytes() == grid.radii.tobytes()

    def test_header_without_radii_loads(self, tmp_path, small_grid):
        from conftest import edit_qfunction_header, save_curve
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        for text in (True, False):
            path = save_curve(tmp_path / f"old-{text}.qfn", small_grid, text)
            edit_qfunction_header(path, lambda h: {
                k: v for k, v in h.items() if k != "radii"})
            g = qb.load_qfunction(path)
            assert np.allclose(g.grid.radii, small_grid.radii, rtol=1e-14,
                               atol=0.0)
            assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("kind", ["short", "moved", "not_geometric",
                                      "not_numbers"])
    def test_rejects_radii_that_describe_no_grid(self, tmp_path, small_grid,
                                                 kind):
        from conftest import write_qfunction_bad_radii
        for text in (True, False):
            path = write_qfunction_bad_radii(tmp_path / f"bad-{text}.qfn",
                                             small_grid, kind, text)
            with pytest.raises(qb.ConfigError):
                qb.load_qfunction(path)

    @pytest.mark.parametrize("kind", ["truncated", "duplicated",
                                      "index_out_of_range", "nan_sample"])
    def test_rejects_damaged_samples(self, tmp_path, small_grid, kind):
        from conftest import write_corrupt_qfunction
        path = write_corrupt_qfunction(tmp_path / "bad.qfn", small_grid, kind,
                                       text=True)
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(path)

    @pytest.mark.parametrize("kind, message", [
        ("truncated", "expected 100352 bytes of samples, found 100192"),
        ("trailing", "expected 100352 bytes of samples, found 100368"),
        ("nan_sample", "samples must be finite"),
        ("inf_sample", "samples must be finite")])
    def test_rejects_damaged_payload(self, tmp_path, small_grid, kind,
                                     message):
        from conftest import write_corrupt_qfunction
        path = write_corrupt_qfunction(tmp_path / "bad.qfn", small_grid, kind)
        with pytest.raises(qb.ConfigError, match=message):
            qb.load_qfunction(path)

    def test_counts_the_rows_before_building_the_grid(self, tmp_path,
                                                      small_grid):
        # a header without radii describes the default grid of n_rings
        # rings: 2^40 of them are refused by the row count, not allocated
        from conftest import edit_qfunction_header, save_curve
        path = save_curve(tmp_path / "huge.qfn", small_grid, text=True)
        edit_qfunction_header(path, lambda h: {
            **{k: v for k, v in h.items() if k != "radii"},
            "n_rings": 2 ** 40})
        with pytest.raises(qb.ConfigError, match="expected .* rows"):
            qb.load_qfunction(path)

    @pytest.mark.parametrize("edit", [
        # the default grid up to r_max = inf has no ring count
        lambda h, grid: {**h, "radii": None, "r_max": float("inf")},
        # the counts' product is the grid's sample count, so only their
        # signs refuse them
        lambda h, grid: {**h, "n_rings": -1,
                         "n_theta": -grid.n_rings * grid.n_theta}],
        ids=["infinite_r_max", "negative_counts"])
    def test_rejects_a_header_that_describes_no_grid(self, tmp_path,
                                                     small_grid, edit):
        from conftest import edit_qfunction_header, save_curve
        for text in (True, False):
            path = save_curve(tmp_path / f"f-{text}.qfn", small_grid, text)
            edit_qfunction_header(path, lambda h: edit(h, small_grid))
            with pytest.raises(qb.ConfigError, match="describes no grid"):
                qb.load_qfunction(path)

    def test_measures_the_payload_before_building_the_grid(self, tmp_path,
                                                           small_grid):
        # as above: the payload's length refuses 2^40 rings, which the
        # default grid would try to allocate
        from conftest import edit_qfunction_header, save_curve
        path = save_curve(tmp_path / "huge.qfn", small_grid)
        edit_qfunction_header(path, lambda h: {
            **{k: v for k, v in h.items() if k != "radii"},
            "n_rings": 2 ** 40})
        with pytest.raises(qb.ConfigError, match="expected .* bytes"):
            qb.load_qfunction(path)

    def test_rejects_unreadable_file(self, tmp_path):
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(tmp_path / "missing.qfn")
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(tmp_path)  # a directory

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.qfn"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(qb.ConfigError):
            qb.load_qfunction(path)

    @pytest.mark.parametrize("fmt", ["qbranch-qfunction-3", "", None])
    def test_rejects_an_unknown_format(self, tmp_path, small_grid, fmt):
        # the samples after the header are intact
        from conftest import edit_qfunction_header, save_curve
        path = save_curve(tmp_path / "f.qfn", small_grid)
        edit_qfunction_header(path, lambda h: {**h, "format": fmt})
        with pytest.raises(qb.ConfigError, match="not a qbranch QFunction"):
            qb.load_qfunction(path)


# the writers as they were before every table went through curves._csv and
# every report through curves._json, kept as the reference for both


def profile_csv_by_rows(records):
    lines = ["r,D,H,I,E,G,Sigma,res_outer,res_inner,valid"]
    for rec in records:
        vals = [rec.r, rec.D, rec.H, rec.I, rec.E, rec.G, rec.Sigma,
                rec.res_outer, rec.res_inner]
        lines.append(",".join(f"{v:.17g}" for v in vals)
                     + f",{int(rec.valid)}")
    return "\n".join(lines) + "\n"


def intervals_csv_by_rows(intervals):
    lines = ["j,s_j,t_j,m0_j,tilt_norm,end_reason,reaches_floor"]
    for rec in intervals:
        tn = rec.plane.tilt_norm if rec.plane is not None else float("nan")
        lines.append(
            f"{rec.j},{rec.s:.17g},{rec.t:.17g},{rec.m0:.17g},"
            f"{tn:.17g},{rec.end_reason},{int(rec.reaches_floor)}")
    return "\n".join(lines) + "\n"


def records_csv_by_rows(records):
    lines = ["r,j,I,jump_flag"]
    for rec in sorted(records, key=lambda rec: rec.r):
        lines.append(f"{rec.r:.17g},{rec.j},{rec.I:.17g},"
                     f"{int(rec.jump_flag)}")
    return "\n".join(lines) + "\n"


def jumps_csv_by_rows(jumps):
    lines = ["t_j,I_left,I_right,m0_j"]
    for jp in sorted(jumps, key=lambda jp: jp.t):
        lines.append(f"{jp.t:.17g},{jp.I_left:.17g},"
                     f"{jp.I_right:.17g},{jp.m0:.17g}")
    return "\n".join(lines) + "\n"


def excess_csv_by_rows(records):
    lines = ["r,excess,exponent_window,mass,tilt_norm,definition"]
    lr = np.log([rec.r for rec in records])
    le = np.log([max(rec.excess, 1e-300) for rec in records])
    for i, rec in enumerate(records):
        if len(records) >= 2:
            j0 = max(i - 1, 0)
            j1 = min(i + 1, len(records) - 1)
            slope = (le[j1] - le[j0]) / (lr[j1] - lr[j0])
        else:
            slope = float("nan")
        lines.append(",".join([
            f"{rec.r:.17g}", f"{rec.excess:.17g}", f"{slope:.17g}",
            f"{rec.mass:.17g}", f"{rec.plane.tilt_norm:.17g}",
            "cylindrical"]))
    return "\n".join(lines) + "\n"


class TestWriters:
    """Every CSV table and JSON report matches the bytes of the per-row
    f-string writers it replaced, special floats included."""

    SPECIAL = [float("nan"), -0.0, 5e-324, 1.0 / 3.0, 1e300, -1e300]

    def column(self, k):
        """The special values, rotated by k, so each column sees each."""
        return self.SPECIAL[k:] + self.SPECIAL[:k]

    def test_frequency_profile(self):
        cols = [self.column(k) for k in range(9)]
        records = [qb.FrequencyRecord(*(c[i] for c in cols), valid=i % 2 == 0)
                   for i in range(len(self.SPECIAL))]
        prof = qb.FrequencyProfile(center=(0.0, 0.0), radii=[],
                                   records=records, cutoff=qb.RAMP)
        assert prof.to_csv() == profile_csv_by_rows(records)
        assert ",nan," in prof.to_csv() and "-0," in prof.to_csv()
        assert "4.9406564584124654e-324" in prof.to_csv()

    def test_intervals(self):
        planes = [None, qb.Plane(np.array([[1.0 / 3.0, -0.0], [5e-324, 0.1]])),
                  qb.HORIZONTAL]
        s, t, m0 = self.column(0), self.column(1), self.column(2)
        records = [qb.IntervalRecord(j=i, s=s[i], t=t[i], m0=m0[i],
                                     plane=planes[i % 3],
                                     end_reason=("excess", "floor")[i % 2])
                   for i in range(len(self.SPECIAL))]
        iv = qb.ScaleIntervals(intervals=records, gaps=[], radii=[],
                               excess_by_r={}, config=qb.ScaleTrackConfig())
        assert iv.to_csv() == intervals_csv_by_rows(records)

    def test_stitched_profile(self):
        r = [0.25, 0.5, 1.0 / 3.0, 1e300, 5e-324, 0.125]
        records = [qb.ProfileRecord(r=r[i], j=10 ** i, I=self.column(3)[i],
                                    jump_flag=i % 2 == 0)
                   for i in range(len(self.SPECIAL))]
        jumps = [qb.JumpRecord(r[i], *(self.column(k)[i] for k in (1, 2, 4)))
                 for i in range(len(self.SPECIAL))]
        prof = qb.UniversalProfile(records=records, jumps=jumps,
                                   interval_m0=[])
        assert prof.records_csv() == records_csv_by_rows(records)
        assert prof.jumps_csv() == jumps_csv_by_rows(jumps)

    def test_excess_table(self):
        r = [5e-324, 1.0 / 3.0, 0.5, 1e300]
        records = [qb.ExcessRecord(r=r[i], mass=self.column(1)[i],
                                   excess=self.column(2)[i],
                                   plane=qb.Plane(np.diag([0.1, -0.0])))
                   for i in range(len(r))]
        for recs in (records, records[:1], []):
            assert qb.excess_table_csv(recs) == excess_csv_by_rows(recs)

    def test_reports(self):
        nan, _, tiny, third, big, _ = self.SPECIAL
        est = qb.DegreeEstimate(value=third, spread=tiny,
                                per_step_I=[(1, 0.5, nan), (2, 0.25, big)],
                                converged=False,
                                notes={"step_failures": [[3, "x"]]})
        assert est.to_json() == json.dumps({
            "value": third, "spread": tiny, "converged": False,
            "per_step": [{"k": 1, "r": 0.5, "I": nan},
                         {"k": 2, "r": 0.25, "I": big}],
            "step_failures": [[3, "x"]]}, sort_keys=True, indent=1)
        res = qb.HardtSimonResult(integral=big, polar_identity_residual=nan,
                                  alpha_used=-0.0, growth_exponent=third,
                                  divergent=True, boundary_l2=tiny)
        assert res.to_json() == json.dumps({
            "integral": big, "polar_identity_residual": nan,
            "alpha_used": -0.0, "growth_exponent": third, "divergent": True,
            "boundary_l2": tiny}, sort_keys=True, indent=1)
