"""Smoothed frequency quantities, residual identities, and limits.

Reference values for the (2, 3) curve come from an independent quadrature
oracle evaluated inside the tests: the curve has sum_i |Df_i|^2 = 9 |z| and
sum_i |f_i|^2 = 2 |z|^3, so every smoothed quantity reduces to an explicit
one-dimensional radial integral handled by scipy."""

import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import qbranch as qb
from qbranch import frequency
from qbranch.curves import _area_moments, _area_rows, _profiles, _ring_data
from qbranch.grids import _cell_interpolant
from conftest import single


def ramp(t):
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        return 2.0 - 2.0 * t
    return 0.0


def oracle_curve23(s):
    """Dense-quadrature oracle for the (2,3) curve at scale s (center 0)."""
    # D = int 9 r phi(r/s) * 2 pi r dr
    D = quad(lambda r: 18 * np.pi * r ** 2 * ramp(r / s), 0, s,
             points=[s / 2])[0]
    # H = - int (2 r^3 / r) phi'(r/s) dy = 4 int_{s/2}^{s} r^2 * 2 pi r ... dr
    H = quad(lambda r: 4 * np.pi * r ** 3 * 2, s / 2, s)[0]
    return D, H


class TestDirichletEnergy:
    def test_constant_map_zero(self, small_grid):
        v = np.zeros((2, small_grid.n_rings, small_grid.n_theta, 2))
        v[1, ..., 0] = 3.0
        f = qb.QFunction(grid=small_grid, values=v, monodromy=[0, 1],
                         metadata={})
        assert qb.dirichlet_energy(f, small_grid.r_max) == pytest.approx(
            0.0, abs=1e-12)

    def test_curve23_total_energy(self, curve_cache):
        # independent oracle: int_{B_1} 9|z| = 9 * 2 pi / 3 = 6 pi
        expected = quad(lambda r: 9 * r * 2 * np.pi * r, 0, 1)[0]
        assert expected == pytest.approx(6 * np.pi, rel=1e-12)
        got = qb.dirichlet_energy(curve_cache(2, 3), 1.0)
        assert got == pytest.approx(expected, rel=1e-5)

    def test_quadratic_scaling(self, curve_cache):
        f = curve_cache(2, 3)
        g = f.replace_values(3.0 * f.values)
        assert qb.dirichlet_energy(g, 0.5) == pytest.approx(
            9.0 * qb.dirichlet_energy(f, 0.5), rel=1e-13)

    def test_out_of_range(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.dirichlet_energy(curve_cache(2, 3), 2.0)


class TestSmoothedQuantities:
    def test_curve23_at_unit_scale(self, curve_cache):
        f = curve_cache(2, 3)
        D_ref, H_ref = oracle_curve23(1.0)
        assert D_ref == pytest.approx(45 * np.pi / 16, rel=1e-12)
        assert H_ref == pytest.approx(15 * np.pi / 8, rel=1e-12)
        rec = single(f, 1.0)
        assert rec.D == pytest.approx(D_ref, rel=1e-5)
        assert rec.H == pytest.approx(H_ref, rel=1e-5)
        assert rec.I == pytest.approx(1.5, abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 5 / 3])
    def test_homogeneous_frequency_is_degree(self, full_grid, alpha):
        f = qb.homogeneous_map(alpha, grid=full_grid)
        for s in (1.0, 0.5, 0.25):
            assert single(f, s).I == pytest.approx(alpha, abs=1e-3)

    def test_single_valued_linear_map(self, small_grid):
        f = qb.homogeneous_map(1.0, grid=small_grid)  # the map z -> z
        for s in (1.0, 0.5):
            assert single(f, s).I == pytest.approx(1.0, abs=1e-5)

    def test_degenerate_height_is_an_invalid_record(self, small_grid):
        v = np.zeros((1, small_grid.n_rings, small_grid.n_theta, 2))
        f = qb.QFunction(grid=small_grid, values=v, monodromy=[0],
                         metadata={})
        rec = single(f, small_grid.r_max)
        assert not rec.valid and rec.reason == "degenerate-height"
        assert np.isnan([rec.I, rec.res_outer, rec.res_inner]).all()


class TestAuxiliaryQuantities:
    def test_outer_identity_on_harmonic_homogeneous(self, full_grid):
        f = qb.homogeneous_map(1.5, grid=full_grid)
        rec = single(f, 0.5)
        assert rec.E == pytest.approx(rec.D, rel=1e-5)

    def test_constant_map_values(self, small_grid):
        v = np.zeros((2, small_grid.n_rings, small_grid.n_theta, 2))
        v[0, ..., 0] = 1.0
        v[1, ..., 0] = -1.0
        f = qb.QFunction(grid=small_grid, values=v, monodromy=[0, 1],
                         metadata={})
        s = small_grid.r_max
        rec = single(f, s)
        assert rec.E == pytest.approx(0.0, abs=1e-12)
        assert rec.G == pytest.approx(0.0, abs=1e-12)
        # Sigma = |u|^2 int phi(|y|/s) dy with |u|^2 = 2
        sigma_ref = 2 * quad(lambda r: 2 * np.pi * r * ramp(r / s), 0, s,
                             points=[s / 2])[0]
        assert rec.Sigma == pytest.approx(sigma_ref, rel=1e-7)

    def test_curve_outer_residual_small(self, curve_cache):
        assert single(curve_cache(2, 3), 0.5).res_outer < 1e-3


class TestVariationResiduals:
    @pytest.mark.parametrize("alpha", [1.5, 5 / 3])
    def test_minimizing_branches_have_tiny_residuals(self, full_grid, alpha):
        f = qb.homogeneous_map(alpha, grid=full_grid)
        rec = single(f, 0.5)
        assert rec.res_outer < 1e-3
        assert rec.res_inner < 1e-3

    def test_non_minimizer_triggers_inner_residual(self, full_grid):
        # the pair {|z| e, -|z| e} has a non-harmonic radial profile; its
        # frequency is 1/2 and the inner identity fails by design
        bad = qb.homogeneous_map(
            1.0, boundary=qb.constant_profile([[1, 0], [-1, 0]]),
            grid=full_grid)
        rec = single(bad, 0.5)
        assert rec.res_inner > 1e-2
        assert rec.I == pytest.approx(0.5, abs=1e-4)

    def test_constant_map_guarded_as_degenerate(self, small_grid):
        v = np.ones((1, small_grid.n_rings, small_grid.n_theta, 2))
        f = qb.QFunction(grid=small_grid, values=v, monodromy=[0],
                         metadata={})
        rec = single(f, small_grid.r_max)
        assert rec.reason == "degenerate"
        assert np.isnan(rec.res_outer)
        assert np.isnan(rec.res_inner)


class TestProfiles:
    def test_curve23_profile_constant(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        prof = qb.frequency_profile(f, radii=qb.default_profile_radii(
            full_grid, octaves=2.0))
        for rec in prof.valid_records():
            assert abs(rec.I - 1.5) < 1e-3
            # stored I is exactly the recomputation r D / H
            assert rec.I == rec.r * rec.D / rec.H

    def test_cutoff_limits_agree(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        radii = qb.default_profile_radii(full_grid, octaves=2.0)
        lim_ramp = qb.frequency_limit(
            qb.frequency_profile(f, radii=radii, cutoff=qb.RAMP))
        lim_sharp = qb.frequency_limit(
            qb.frequency_profile(f, radii=radii, cutoff=qb.SHARP))
        assert lim_sharp["estimate"] == pytest.approx(
            lim_ramp["estimate"], rel=0.01)

    @given(curve=st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]),
           r=st.floats(-14.0, 0.0).map(lambda x: 2.0 ** x))
    @example(curve=(2, 5), r=0.52214)  # 2.1e-3 off with cubic ring reads
    def test_sharp_cutoff_between_rings(self, curve_cache, curve, r):
        # the boundary values at an off-ring radius are read by the cell
        # quintic of the quadrature, not by a lower-order interpolant
        q, p = curve
        I = single(curve_cache(q, p), r, qb.SHARP).I
        assert abs(I - p / q) < 1e-3

    @pytest.mark.parametrize("cutoff", [qb.RAMP, qb.SHARP])
    def test_profile_reads_one_inner_core(self, small_grid, monkeypatch,
                                          cutoff):
        # the core below r_min is cached with the map's cumulative table;
        # the map's one sweep builds its area table and its average-free
        # part's ring table too, each with its own core
        core, shapes = qb.grids.RadialRule.inner_core, []
        monkeypatch.setattr(qb.grids.RadialRule, "inner_core",
                            lambda rule, F, beta: shapes.append(F.shape)
                            or core(rule, F, beta))
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        radii = qb.default_profile_radii(f.grid)
        assert len(radii) == 17
        qb.frequency_profile(f, radii=radii, cutoff=cutoff)
        R = f.grid.n_rings
        assert shapes == [(R, 4), (R, 7), (R, 4)]

    def test_reversed_radii_rejected(self, curve_cache):
        with pytest.raises(qb.ConfigError, match="strictly increasing"):
            qb.frequency_profile(curve_cache(2, 3), radii=[0.5, 0.25])

    def test_empty_radii_rejected(self, curve_cache):
        with pytest.raises(qb.ConfigError, match="empty"):
            qb.frequency_profile(curve_cache(2, 3), radii=[])

    def test_csv_roundtrip_precision(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        prof = qb.frequency_profile(f, radii=qb.default_profile_radii(
            full_grid, octaves=1.0))
        text = prof.to_csv()
        header, *rows = text.strip().split("\n")
        assert header == "r,D,H,I,E,G,Sigma,res_outer,res_inner,valid"
        first = rows[0].split(",")
        assert float(first[3]) == prof.records[0].I  # 17 digits roundtrip


class TestRampMoments:
    """The ramp quantities are moments of the ring table's four columns:
    cumulative-table differences plus one window at beta = 1 and one at
    beta = 3, checked against the closed form I = p/Q on every ring."""

    @staticmethod
    def ring_records(f):
        grid = f.grid
        radii = grid.radii[grid.radii >= 4 * grid.r_min * (1 - 1e-12)]
        prof = qb.frequency_profile(f, radii=radii)
        assert all(rec.valid for rec in prof.records)
        return prof.records

    @pytest.mark.parametrize("curve, bound", [((2, 5), 6e-5),
                                              ((3, 7), 4e-5)])
    def test_frequency_on_every_ring(self, curve_cache, curve, bound):
        q, p = curve
        records = self.ring_records(curve_cache(q, p))
        assert max(abs(rec.I - p / q) for rec in records) <= bound

    def test_variation_residuals_on_every_ring(self, curve_cache):
        records = self.ring_records(curve_cache(2, 5))
        assert max(max(rec.res_outer, rec.res_inner)
                   for rec in records) <= 1e-5

    def test_record_integrates_two_windows(self, curve_cache, monkeypatch):
        weights, betas = qb.grids.RadialRule.weights, []
        monkeypatch.setattr(qb.grids.RadialRule, "weights",
                            lambda rule, t_a, t_b, beta: betas.append(beta)
                            or weights(rule, t_a, t_b, beta))
        f = curve_cache(2, 3)
        for r in (0.5, 0.3):  # on a ring and between rings
            betas.clear()
            single(f, r)
            assert sorted(betas) == [1.0, 3.0]


def assert_same(records, singles):
    """Records equal field for field, bit for bit (NaN equal to NaN)."""
    for rec, ref in zip(records, singles, strict=True):
        assert repr(dataclasses.astuple(rec)) == \
            repr(dataclasses.astuple(ref))


RATIO15 = qb.PolarGrid(radii=1.5 ** np.arange(-16.0, 1.0), n_theta=64)


class TestOnRingRecords:
    """Records on rings, between rings, on a grid whose kinks s / 2 miss
    its rings (ratio 1.5) and with the sharp cutoff, invalid ones included:
    each record of a profile is the one its radius gets alone, bit for
    bit, however many radii share the call."""

    @pytest.mark.parametrize("curve", [(2, 3), (2, 5), (3, 4), (3, 5),
                                       (4, 5)])
    def test_batched_records_are_the_single_ones(self, curve_cache, curve):
        f = curve_cache(*curve)
        for u in (f, qb.coarse_blowup_normalize(qb.average_free_part(f),
                                                2.0 ** -5)):
            radii = u.grid.radii[u.grid.radii >= 2 * u.grid.r_min]
            prof = qb.frequency_profile(u, radii=radii)
            assert all(rec.valid and not rec.reason for rec in prof.records)
            assert_same(prof.records, [single(u, s) for s in prof.radii])

    def test_other_records_are_the_single_ones(self, curve_cache, full_grid):
        f = curve_cache(2, 5, (0, 0, 1))
        between = np.sqrt(full_grid.radii[-40:-1] * full_grid.radii[-39:])
        g = qb.homogeneous_map(1.5, grid=RATIO15)
        for u, radii, cutoff in [(f, between, qb.RAMP),
                                 (f, full_grid.radii[-40:], qb.SHARP),
                                 (g, RATIO15.radii, qb.RAMP),
                                 (g, RATIO15.radii, qb.SHARP)]:
            prof = qb.frequency_profile(u, radii, cutoff)
            assert_same(prof.records,
                        [single(u, s, cutoff) for s in prof.radii])

    def test_mixed_radii_keep_their_order(self, curve_cache, full_grid):
        f = curve_cache(3, 4)
        on = full_grid.radii[-17:]
        radii = np.sort(np.concatenate([on, np.sqrt(on[:-1] * on[1:])]))
        prof = qb.frequency_profile(f, radii=radii)
        assert prof.radii == radii.tolist()
        assert [rec.r for rec in prof.records] == prof.radii
        assert_same(prof.records, [single(f, s) for s in prof.radii])

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    def test_invalid_records_and_reasons_are_the_single_ones(
            self, small_grid, fill):
        # a zero map has no height; a constant one has no energy, so its
        # residuals are undefined; kinks below the grid are refused
        v = np.full((1, small_grid.n_rings, small_grid.n_theta, 2), fill)
        f = qb.QFunction(grid=small_grid, values=v, monodromy=[0])
        radii = small_grid.radii
        prof = qb.frequency_profile(f, radii=radii)
        reasons = {rec.reason.split(" ")[0] for rec in prof.records}
        assert reasons == {"scale", "degenerate-height" if fill == 0.0
                           else "degenerate"}
        assert_same(prof.records, [single(f, s) for s in radii])


class TestOneRecordPath:
    """Every record comes from one path: any sorted subset of on-ring and
    between-ring radii, some with their kink below the grid, gives for each
    radius the record it gets alone, bit for bit."""

    def test_each_radius_is_checked_once(self, curve_cache, monkeypatch):
        kinks, kink = [], frequency._kink
        monkeypatch.setattr(frequency, "_kink", lambda grid, s:
                            kinks.append(s) or kink(grid, s))
        f = curve_cache(2, 3)
        radii = [f.grid.r_min, 2.0 ** -14, 0.5, 2.0]
        prof = qb.frequency_profile(f, radii=radii)
        assert kinks == radii
        assert [rec.valid for rec in prof.records] == [False, True, True,
                                                       False]
        for r, why in [(f.grid.r_min, "kink below"), (2.0, "outside grid")]:
            rec = single(f, r)
            assert not rec.valid and why in rec.reason

    @staticmethod
    def candidates(grid):
        r = grid.radii
        return np.sort(np.concatenate([r, np.sqrt(r[:-1] * r[1:])]))

    @given(kind=st.sampled_from(["curve", "blowup", "ratio15"]),
           sharp=st.booleans(),
           picks=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=1, max_size=12))
    def test_every_record_is_the_one_radius_record(self, curve_cache, kind,
                                                   sharp, picks):
        f = curve_cache(3, 4)
        u = {"curve": lambda: f,
             "blowup": lambda: qb.coarse_blowup_normalize(
                 qb.average_free_part(f), 2.0 ** -5),
             "ratio15": lambda: qb.homogeneous_map(1.5, grid=RATIO15)}[kind]()
        cutoff = qb.SHARP if sharp else qb.RAMP
        cands = self.candidates(u.grid)
        radii = np.unique(cands[(np.array(picks) * cands.size).astype(int)])
        prof = qb.frequency_profile(u, radii, cutoff)
        assert_same(prof.records, [single(u, s, cutoff) for s in prof.radii])

    @pytest.mark.parametrize("cutoff", [qb.RAMP, qb.SHARP])
    def test_each_window_is_its_own_product(self, curve_cache, full_grid,
                                            cutoff):
        # H is 2 M_1 (ramp) or s B(s) (sharp): one vector-matrix product per
        # radius, never a row of one stacked product, whose rows can round
        # differently
        f = curve_cache(3, 4)
        on = full_grid.radii[-17:]
        radii = np.sort(np.concatenate([on, np.sqrt(on[:-1] * on[1:])]))
        F = _ring_data(f)[0]
        for rec in qb.frequency_profile(f, radii, cutoff).records:
            t_s = math.log(rec.r)
            if cutoff.kind == "ramp":
                w = f.rule().weights(math.log(rec.r / 2), t_s, 1.0)
                assert rec.H == 2.0 * (w @ F)[1]
            else:
                j0, wc = _cell_interpolant(f.grid, t_s)
                assert rec.H == rec.r * (wc @ F[j0:j0 + 6])[1]


#: finite arrays of 1 to 64 values with magnitudes from 1e-300 to 1e300,
#: both zeros, and repeats: a draw followed by values drawn from it again
_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300]),
    st.floats(-1e300, 1e300),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0), st.integers(-300, 299)))
MEDIAN_INPUTS = st.lists(_MEDIAN_VALUES, min_size=1, max_size=64).flatmap(
    lambda x: st.lists(st.sampled_from(x), max_size=64 - len(x))
    .map(lambda repeats: np.array(x + repeats)))


class TestFrequencyLimit:
    def test_curve_estimates(self, curve_cache, full_grid):
        radii = qb.default_profile_radii(full_grid, octaves=3.0)
        for (q, p) in [(2, 3), (3, 4)]:
            prof = qb.frequency_profile(curve_cache(q, p), radii=radii)
            lim = qb.frequency_limit(prof)
            assert lim["estimate"] == pytest.approx(p / q, abs=0.02)
            assert lim["spread"] < 0.02

    def test_homogeneous_estimate_exact(self, full_grid):
        f = qb.homogeneous_map(2.0, grid=full_grid)
        prof = qb.frequency_profile(f, radii=qb.default_profile_radii(
            full_grid, octaves=2.0))
        lim = qb.frequency_limit(prof)
        assert lim["estimate"] == pytest.approx(2.0, abs=1e-4)
        assert lim["spread"] < 1e-4

    def test_insufficient_data(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        prof = qb.frequency_profile(f, radii=[0.5, 0.6, 0.7])
        with pytest.raises(qb.DataError):
            qb.frequency_limit(prof)

    def test_needs_an_octave(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        prof = qb.frequency_profile(f, radii=full_grid.radii[-6:-1])
        with pytest.raises(qb.DataError, match="at least one octave"):
            qb.frequency_limit(prof)

    @given(MEDIAN_INPUTS)
    @settings(max_examples=300)
    def test_median_is_numpys_bit_for_bit(self, a):
        # the octave medians keep the bits np.median gives them
        assert frequency._median(a).hex() == float(np.median(a)).hex()

    @pytest.mark.parametrize("x", [[np.nan], [1.0, np.nan],
                                   [np.nan, -2.0, 3.0],
                                   [np.inf, np.nan, -np.inf, 0.0]])
    def test_median_of_values_with_a_nan_is_nan(self, x):
        assert math.isnan(frequency._median(np.array(x)))
        assert math.isnan(np.median(np.array(x)))


class TestInvariances:
    def test_amplitude_invariance(self, curve_cache):
        f = curve_cache(2, 3)
        g = f.replace_values(7.0 * f.values)
        for s in (1.0, 0.25):
            assert abs(single(g, s).I - single(f, s).I) < 1e-12

    def test_scale_invariance_on_aligned_dilations(self, curve_cache):
        f = curve_cache(2, 3)
        g = qb.rescale(f, 0.25)
        assert abs(single(g, 0.5).I - single(f, 0.125).I) < 1e-10

    def test_monotonicity_on_minimizers(self, curve_cache, full_grid):
        radii = qb.default_profile_radii(full_grid, octaves=3.0)
        for (q, p) in [(2, 3), (3, 5)]:
            prof = qb.frequency_profile(curve_cache(q, p), radii=radii)
            I = [rec.I for rec in prof.valid_records()]
            diffs = np.subtract.outer(I, I)  # I[i] - I[j]
            upper = diffs[np.triu_indices(len(I), 1)]
            assert (-upper).min() >= -1e-3  # I(r2) - I(r1) for r2 > r1

    def test_energy_decomposition(self, small_grid, rng):
        from conftest import random_smooth_qfunction
        for _ in range(20):
            q = int(rng.integers(2, 5))
            f = random_smooth_qfunction(small_grid, q, rng)
            D_f = qb.dirichlet_energy(f, small_grid.r_max)
            D_v = qb.dirichlet_energy(qb.average_free_part(f),
                                      small_grid.r_max)
            D_eta = qb.dirichlet_energy(qb.eta_map(f), small_grid.r_max)
            assert abs(D_f - D_v - q * D_eta) <= 1e-10 * abs(D_f)

    def test_decay_sandwich(self, curve_cache):
        # int_{B_rho} |Du|^2 <= rho^(m + 2 I0 - 2) int_{B_1} |Du|^2
        f = curve_cache(2, 3)
        total = qb.dirichlet_energy(f, 1.0)
        for rho in (0.5, 0.25, 0.125):
            lhs = qb.dirichlet_energy(f, rho)
            rhs = rho ** (2 + 2 * 1.5 - 2) * total
            assert lhs <= rhs * 1.02
            assert lhs >= rhs * 0.98


class TestOffCenter:
    def test_recentered_profile_runs(self, curve_cache):
        f = curve_cache(2, 3)
        val = single(qb.recenter(f, (0.3, 0.0)), 0.02).I
        assert np.isfinite(val)
        # away from the branch point the map is a pair of regular branches,
        # so the frequency at a regular point is small
        assert 0 <= val < 1.0

    def test_profile_reports_its_center(self, curve_cache):
        moved = qb.recenter(curve_cache(2, 3), (0.3, 0.1))
        assert qb.frequency_profile(moved).center == (0.3, 0.1)

    @pytest.mark.parametrize("q, p, h, x", [
        (2, 3, (), (0.4, 0.1)), (3, 5, (0, 0, 0.3), (-0.2, 0.35)),
        (4, 5, (), (0.1, -0.5))])
    def test_recenter_is_within_the_bilinear_bound(self, q, p, h, x):
        # unordered error at the shifted nodes against the closed form, in
        # units of the bilinear bound (dt^2 + dtheta^2)/8 * sqrt(Q) *
        # (alpha^2 |z|^alpha + k^2 |h|) for h = c z^k: 0.75, 0.60 and 0.76
        # of it on the 128-angle default grid
        spec = qb.CurveSpec(q, p, h)
        f = qb.make_multigraph(spec, qb.default_grid(n_theta=128))
        moved = qb.recenter(f, x)
        xs, ys = moved.grid.nodes_xy()
        z = (xs + x[0]) + 1j * (ys + x[1])
        want = spec.sheets(np.abs(z), np.angle(z) % (2 * np.pi))
        got = moved.values.view(complex)[..., 0]
        err = np.min([np.sqrt(np.sum(np.abs(got[list(perm)] - want) ** 2,
                                     axis=0))
                      for perm in itertools.permutations(range(q))], axis=0)
        alpha, k = p / q, len(spec.h_coeffs) - 1 if h else 0
        curvature = np.sqrt(q) * (alpha ** 2 * np.abs(z) ** alpha
                                  + k ** 2 * np.abs(spec.h(z)))
        bound = (f.grid.dt ** 2 + f.grid.d_theta ** 2) / 8.0 * curvature
        assert np.max(err / bound) <= 1.0

    def test_recenter_works_a_block_of_rings_at_a_time(self, curve_cache):
        # the raw and the tracked samples, the per-node coordinates and one
        # block's matching costs: no copy of f and no whole-grid cost array
        f = curve_cache(4, 5)
        tracemalloc.start()
        try:
            moved = qb.recenter(f, (0.4, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * moved.values.nbytes

    def test_recenter_rejects_grid_overflow(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.recenter(curve_cache(2, 3), (1.5, 0.0))
        # too close to the branch point for a multivalued selection
        with pytest.raises(qb.RangeError):
            qb.recenter(curve_cache(2, 3), (1e-4, 0.0))


class TestOneSweep:
    """A map is differentiated once, a block of rings at a time, and keeps
    only the ring tables its blocks reduce to."""

    @staticmethod
    def whole_reduction(f):
        """f's tables from one pass over its whole gradient arrays."""
        from conftest import whole_gradients
        x, (u, w), disk = f.values, whole_gradients(f), f.rule().disk_table
        tables = {"ring": disk(_profiles(x, u, w)),
                  "area": disk(_area_rows(f)(x, u, w))}
        if f.q > 1:
            tables["free"] = disk(_profiles(
                *(a - np.mean(a, axis=0, keepdims=True) for a in (x, u, w))))
        return tables

    @pytest.mark.parametrize("block", [1, None, 1 << 60],
                             ids=["ring", "default", "all_rings"])
    @pytest.mark.parametrize("case", ["perturbed", "ratio15", "single"])
    def test_swept_tables_are_the_whole_reduction(self, case, block,
                                                  monkeypatch):
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=128)
        if case == "perturbed":
            f = qb.make_multigraph(qb.CurveSpec(3, 5, (0, 0, 0, 0.3 + 0.2j)),
                                   grid)
        elif case == "ratio15":
            f = qb.make_multigraph(qb.CurveSpec(2, 3), qb.PolarGrid(
                radii=1.5 ** -np.arange(24.0)[::-1], n_theta=128))
        else:
            f = qb.homogeneous_map(2.0, grid=grid)
            assert f.q == 1
        if block is not None:
            monkeypatch.setattr(qb.grids, "_BLOCK_BYTES", block)
        swept = {"ring": _ring_data(f), "area": _area_moments(f)}
        if f.q > 1:
            swept["free"] = _ring_data(qb.average_free_part(f))
        else:
            assert "free_ring_data" not in f._cache
        want = self.whole_reduction(f)
        assert swept.keys() == want.keys()
        for key, table in want.items():
            for a, b in zip(swept[key], table):
                assert np.array_equal(a, b), key

    def test_flatten_pipeline_keeps_no_gradient(self, full_grid):
        tracemalloc.start()
        try:
            f = qb.make_multigraph(qb.CurveSpec(4, 5), full_grid)
            qb.frequency_profile(f)
            qb.excess_decay_fit(f, [2.0 ** -k for k in range(9, 2, -1)])
            qb.universal_frequency(
                f, qb.intervals_of_flattening(f, eps3_sq=0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the samples of f and of its average-free part, and ring blocks
        assert peak <= 2.5 * f.values.nbytes
        for g in (f, f._cache["average_free"]):
            for entry in g._cache.values():
                for a in entry if isinstance(entry, tuple) else (entry,):
                    if isinstance(a, np.ndarray):
                        assert a.size < g.values[0].size


PROFILE_RADII = [0.2, 0.2 * 2 ** 0.3, 0.31, 0.5, 0.7071, 0.9]
PROFILE_SCRIPT = f"""
import qbranch as qb
f = qb.make_multigraph(qb.CurveSpec(3, 5, (0, 0, 0.3 + 0.2j)),
                       qb.default_grid(r_min=2.0 ** -8, n_theta=128))
csv = (qb.frequency_profile(f, radii={PROFILE_RADII!r}).to_csv()
       + qb.frequency_profile(f, radii={PROFILE_RADII!r},
                              cutoff=qb.SHARP).to_csv())
"""


def test_profiles_do_not_depend_on_earlier_work():
    """Quadrature windows are shared by every grid in the process, keyed by
    what fixes a window: a profile is byte for byte the one a fresh process
    writes, after profiles of other maps, grids and blow-ups, including
    windows a hair away from this profile's."""
    src = pathlib.Path(qb.__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-c", PROFILE_SCRIPT + "print(csv, end='')"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}).stdout
    near = [r * (1 + 1e-11) for r in PROFILE_RADII]
    for grid in (qb.default_grid(r_min=2.0 ** -8, n_theta=64),
                 qb.default_grid(r_min=2.0 ** -9, rings_per_octave=6,
                                 n_theta=64)):
        g = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        for cutoff in (qb.RAMP, qb.SHARP):
            qb.frequency_profile(g, radii=near, cutoff=cutoff)
        qb.singularity_degree(g, qb.BlowupConfig(scale_factor=0.6))
    scope = {}
    exec(PROFILE_SCRIPT, scope)
    assert scope["csv"] == fresh
