"""Dilations, normalized blow-ups, the degree estimator, and the
Hardt-Simon functional."""

import json
import math

import numpy as np
import pytest

import qbranch as qb
from qbranch.frequency import _ring_data


class TestRescale:
    def test_identity(self, curve_cache):
        f = curve_cache(2, 3)
        g = qb.rescale(f, None, 1.0)
        assert np.abs(g.values - f.values).max() < 1e-10

    def test_homogeneous_scaling_law(self, full_grid):
        # f(r x)/r = r^(alpha-1) f(x) for alpha-homogeneous f
        f = qb.homogeneous_map(1.5, grid=full_grid)
        g = qb.rescale(f, None, 0.25)
        shift = full_grid.n_rings - g.grid.n_rings
        expected = 0.25 ** 0.5 * f.values[:, shift:]
        assert np.abs(g.values - expected).max() < 1e-12

    def test_curve_quarter_scale_halves(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        g = qb.rescale(f, None, 0.25)
        shift = full_grid.n_rings - g.grid.n_rings
        assert np.abs(g.values - 0.5 * f.values[:, shift:]).max() < 1e-13

    def test_group_law(self, curve_cache):
        f = curve_cache(2, 3)
        twice = qb.rescale(qb.rescale(f, None, 0.5), None, 0.5)
        direct = qb.rescale(f, None, 0.25)
        assert np.abs(twice.values - direct.values).max() < 1e-8

    def test_group_law_off_lattice(self, curve_cache):
        f = curve_cache(2, 3)
        twice = qb.rescale(qb.rescale(f, None, 0.3), None, 0.5)
        direct = qb.rescale(f, None, 0.15)
        n = min(twice.grid.n_rings, direct.grid.n_rings)
        a = twice.values[:, twice.grid.n_rings - n:]
        b = direct.values[:, direct.grid.n_rings - n:]
        assert np.abs(a - b).max() < 1e-8

    def test_domain_overflow(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.rescale(curve_cache(2, 3), None, 4.0)


@pytest.fixture(scope="module")
def average_free_inputs():
    """Average-free parts of the five acceptance curves, a perturbed curve
    and the 5/3-homogeneous spiral map."""
    grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
    maps = {f"curve{q}{p}": qb.make_multigraph(qb.CurveSpec(q, p), grid)
            for q, p in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]}
    maps["curve25+0.3z^3"] = qb.make_multigraph(
        qb.CurveSpec(2, 5, (0, 0, 0, 0.3 + 0.2j)), grid)
    maps["homogeneous5/3"] = qb.homogeneous_map(5 / 3, grid=grid)
    return {name: qb.average_free_part(f) for name, f in maps.items()}


class TestRingShiftTables:
    """An exact ring-shift blow-up reads its ring table off its parent's;
    every frequency record must match the table computed from its own
    samples."""

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    @pytest.mark.parametrize("name", ["curve23", "curve25", "curve34",
                                      "curve35", "curve45", "curve25+0.3z^3",
                                      "homogeneous5/3"])
    def test_seeded_table_matches_a_fresh_copy(self, average_free_inputs,
                                               name, mode):
        v = average_free_inputs[name]
        for shift in (1, 2, 3, 8):
            u = qb.coarse_blowup_normalize(v, v.grid.rho ** shift, mode,
                                           reference=1.0)
            assert "ring_data" in u._cache
            copy = u.replace_values(u.values)  # empty cache
            radii = [float(s) for s in u.grid.radii
                     if s >= 2.0 * u.grid.r_min]
            seeded = qb.frequency_profile(u, radii=radii)
            own = qb.frequency_profile(copy, radii=radii)
            assert "grad" not in u._cache
            for a, b in zip(seeded.records, own.records):
                assert a.valid == b.valid, (shift, a.r)
                for key in ("D", "H", "I", "E", "G", "Sigma"):
                    x, y = getattr(a, key), getattr(b, key)
                    if not math.isnan(y):
                        assert abs(x - y) <= 1e-12 * abs(y), (shift, a.r, key)

    def test_off_lattice_ratio_builds_its_own_table(self,
                                                    average_free_inputs):
        u = qb.coarse_blowup_normalize(average_free_inputs["curve23"], 0.6)
        assert "ring_data" not in u._cache
        radii = qb.default_profile_radii(u.grid, octaves=1.0)
        lim = qb.frequency_limit(qb.frequency_profile(u, radii=radii))
        assert "grad" in u._cache
        assert lim["estimate"] == pytest.approx(1.5, abs=1e-3)


class TestNormalize:
    def test_l2_mode_unit_norm(self, curve_cache):
        f = curve_cache(2, 3)
        u = qb.coarse_blowup_normalize(f, 0.25, "l2_norm")
        # the blow-up has unit L2 norm on the reference ball of radius 3/2;
        # verify through the original-grid integral it was built from
        raw = qb.l2_norm_on_ball(f, 1.5 * 0.25) * 0.25 ** -2.0
        h = u.metadata["blowup"]["normalizer"]
        assert raw / h == pytest.approx(1.0, abs=1e-10)
        # consistency of the rescaled samples with the stored normalizer
        direct = qb.rescale(f, None, 0.25)
        assert np.abs(u.values * h - direct.values).max() < 1e-12

    def test_l2_norm_reads_the_cached_ring_table(self, curve_cache):
        f = curve_cache(3, 4)
        fresh = qb.QFunction(grid=f.grid, values=f.values,
                             monodromy=f.monodromy)
        cold = qb.l2_norm_on_ball(fresh, 0.5)
        assert fresh._cache.keys() <= {"rule"}  # nothing differentiated
        _ring_data(fresh)
        assert qb.l2_norm_on_ball(fresh, 0.5) == cold

    def test_parent_samples_stay_untouched(self, curve_cache):
        f = curve_cache(2, 3)
        before = f.values.copy()
        for r in (0.25, 0.3):  # ring shift, off-lattice ratio
            qb.coarse_blowup_normalize(f, r, "l2_norm")
        assert np.array_equal(f.values, before)

    def test_self_similarity_across_scales(self, curve_cache):
        # normalized blow-ups of an exactly homogeneous branch agree
        f = curve_cache(2, 3)
        u1 = qb.coarse_blowup_normalize(f, 2.0 ** -3, "l2_norm")
        u2 = qb.coarse_blowup_normalize(f, 2.0 ** -4, "l2_norm")
        n = min(u1.grid.n_rings, u2.grid.n_rings)
        a = u1.values[:, u1.grid.n_rings - n:]
        b = u2.values[:, u2.grid.n_rings - n:]
        assert np.abs(a - b).max() < 1e-10

    def test_excess_mode(self, curve_cache):
        f = curve_cache(2, 3)
        u = qb.coarse_blowup_normalize(f, 0.25, "excess_sqrt")
        # E(r) = 3r for this curve, so the normalizer is sqrt(3 r)
        assert u.metadata["blowup"]["normalizer"] == pytest.approx(
            math.sqrt(0.75), rel=1e-3)

    def test_zero_map_degenerates(self, curve_cache):
        f = curve_cache(2, 3)
        zero = f.replace_values(0.0 * f.values)
        with pytest.raises(qb.DegenerateBlowupError):
            qb.coarse_blowup_normalize(zero, 0.25)

    def test_reference_ball_range(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.coarse_blowup_normalize(curve_cache(2, 3), 0.9, "l2_norm")


class TestAverageFree:
    def test_unperturbed_curve_already_average_free(self, curve_cache):
        f = curve_cache(2, 3)
        v = qb.average_free_part(f)
        assert np.abs(v.values - f.values).max() < 1e-12

    def test_perturbed_curve_average_removed(self, curve_cache):
        f = curve_cache(2, 5, (0, 0, 1))
        v = qb.average_free_part(f)
        assert np.abs(np.mean(v.values, axis=0)).max() < 1e-12
        # the average of the input is h(z) = z^2, nonzero away from 0
        assert np.abs(np.mean(f.values, axis=0)).max() > 0.5

    def test_repeated_harmonic_sheet_collapses(self, small_grid):
        x, y = small_grid.nodes_xy()
        harm = np.stack([x, -y], axis=-1)
        values = np.repeat(harm[None], 3, axis=0)
        f = qb.QFunction(grid=small_grid, values=values,
                         monodromy=np.arange(3), metadata={})
        v = qb.average_free_part(f)
        assert np.abs(v.values).max() < 1e-14


class TestSingularityDegree:
    def test_curve23(self, curve_cache):
        est = qb.singularity_degree(curve_cache(2, 3))
        assert est.value == pytest.approx(1.5, abs=0.02 * 1.5)
        assert est.spread < 0.02 * 1.5
        assert est.converged

    def test_perturbed_curve_reports_branched_degree(self, curve_cache):
        est = qb.singularity_degree(curve_cache(2, 5, (0, 0, 1)))
        assert est.value == pytest.approx(2.5, abs=0.05)
        assert est.notes.get("discrepancy") is True
        assert est.notes["reference_degree"] == 2.0

    def test_homogeneous_map_exact(self, full_grid):
        f = qb.homogeneous_map(5 / 3, grid=full_grid)
        est = qb.singularity_degree(qb.average_free_part(f))
        assert est.value == pytest.approx(5 / 3, abs=1e-4)
        assert est.spread < 1e-6
        assert est.converged

    def test_amplitude_and_dilation_invariance(self, curve_cache):
        f = curve_cache(3, 4)
        base = qb.singularity_degree(f)
        amp = qb.singularity_degree(f.replace_values(5.0 * f.values))
        assert amp.value == pytest.approx(base.value, abs=1e-10)
        dil = qb.singularity_degree(qb.rescale(f, None, 0.5),
                                    qb.BlowupConfig(max_steps=10))
        assert dil.value == pytest.approx(base.value, abs=1e-3)

    def test_all_small_specs_match_ratio(self, full_grid):
        # empirical uniqueness of the frequency value on exact branches
        specs = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5),
                 (4, 7)]
        for (q, p) in specs:
            f = qb.make_multigraph(qb.CurveSpec(q, p), full_grid)
            est = qb.singularity_degree(f)
            assert est.value == pytest.approx(p / q, rel=0.02), (q, p)
            assert est.spread < 0.02 * p / q
            assert est.value >= 1.0 - 0.01  # lower bound for minimizers

    def test_too_few_steps(self, curve_cache):
        f = curve_cache(2, 3)
        shallow = qb.rescale(f, None, 2.0 ** -13)
        with pytest.raises(qb.DataError):
            qb.singularity_degree(shallow)

    def test_json_export_shape(self, curve_cache):
        est = qb.singularity_degree(curve_cache(2, 3))
        payload = json.loads(est.to_json())
        assert set(payload) >= {"value", "spread", "converged", "per_step"}
        assert all(set(step) == {"k", "r", "I"} for step in payload["per_step"])
        assert "step_failures" not in payload  # no step failed

    def test_failed_steps_are_kept(self):
        # the map vanishes on B_{2^-5}: steps whose top octave or reference
        # ball lies inside it fail, the outer steps survive
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        values = f.values.copy()
        values[:, grid.radii < 2.0 ** -5] = 0.0
        est = qb.singularity_degree(f.replace_values(values))
        failures = est.notes["step_failures"]
        failed = [k for k, _ in failures]
        survived = [k for k, _, _ in est.per_step_I]
        assert len(survived) >= 3
        assert {6, 7} <= set(failed)  # reference balls inside the zero disk
        assert sorted(failed + survived) == list(range(1, 8))
        assert all(isinstance(why, str) and why for _, why in failures)
        assert json.loads(est.to_json())["step_failures"] == failures


class TestHomogeneityCheck:
    def test_exact(self, full_grid):
        f = qb.homogeneous_map(1.5, grid=full_grid)
        assert qb.homogeneity_check(f, 1.5) < 1e-12

    def test_power(self, full_grid):
        f = qb.homogeneous_map(1.5, grid=full_grid)
        assert qb.homogeneity_check(f, 1.4) > 0.01

    def test_curve(self, curve_cache):
        assert qb.homogeneity_check(curve_cache(2, 3), 1.5) < 1e-3


class TestHardtSimon:
    def test_linear_pair_integral_vanishes(self, full_grid):
        f = qb.homogeneous_map(
            1.0, boundary=qb.constant_profile([[1, 0], [-1, 0]]),
            grid=full_grid)
        res = qb.hardt_simon_check(f, rho_inner=2.0 ** -8, alpha=1.0)
        assert abs(res.integral) < 1e-10
        assert not res.divergent

    @pytest.mark.parametrize("alpha", [1.5, 5 / 3])
    def test_polar_identity(self, full_grid, alpha):
        f = qb.homogeneous_map(alpha, grid=full_grid)
        res = qb.hardt_simon_check(f, rho_inner=2.0 ** -8)
        assert res.polar_identity_residual < 0.01
        assert not res.divergent
        # independent closed form: (alpha-1)^2 G0 int_rho^0.5 s^(2a-3) ds
        g0 = 2 * np.pi * f.q  # unit-modulus sheets
        ex = 2 * alpha - 2
        closed = (alpha - 1) ** 2 * g0 * (0.5 ** ex - 2.0 ** (-8 * ex)) / ex
        assert res.integral == pytest.approx(closed, rel=0.01)

    def test_curve_bounded_down_to_floor(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        vals = [qb.hardt_simon_check(f, rho).integral
                for rho in (2.0 ** -6, 2.0 ** -9, 2.0 ** -12)]
        assert max(vals) / min(vals) < 1.05
        res = qb.hardt_simon_check(f, 2.0 ** -12)
        assert res.polar_identity_residual < 0.01
        assert not res.divergent

    def test_subunit_degree_diverges(self, full_grid):
        f = qb.homogeneous_map(0.8, grid=full_grid)
        res = qb.hardt_simon_check(f, rho_inner=2.0 ** -10)
        assert res.divergent
        # the integral follows int_rho^0.5 s^(-1.4) ds = c (rho^-0.4 - 2^0.4)
        def closed(rho):
            return rho ** -0.4 - 0.5 ** -0.4
        i1 = qb.hardt_simon_check(f, rho_inner=2.0 ** -6).integral
        i2 = qb.hardt_simon_check(f, rho_inner=2.0 ** -10).integral
        assert i2 / i1 == pytest.approx(closed(2.0 ** -10) / closed(2.0 ** -6),
                                        rel=1e-3)

    def test_rho_below_grid(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.hardt_simon_check(curve_cache(2, 3), 2.0 ** -17)
