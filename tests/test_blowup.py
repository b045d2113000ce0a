"""Dilations, normalized blow-ups, the degree estimator, and the
Hardt-Simon functional."""

import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import qbranch as qb
from qbranch import blowup, curves, frequency, grids
from qbranch.curves import _area_moments, _ring_data
from qbranch.grids import _window
from conftest import CURVE_SET, single, union_of


class TestRescale:
    def test_identity(self, curve_cache):
        f = curve_cache(2, 3)
        g = qb.rescale(f, 1.0)
        assert np.abs(g.values - f.values).max() < 1e-10

    def test_homogeneous_scaling_law(self, full_grid):
        # f(r x)/r = r^(alpha-1) f(x) for alpha-homogeneous f
        f = qb.homogeneous_map(1.5, grid=full_grid)
        g = qb.rescale(f, 0.25)
        shift = full_grid.n_rings - g.grid.n_rings
        expected = 0.25 ** 0.5 * f.values[:, shift:]
        assert np.abs(g.values - expected).max() < 1e-12

    def test_curve_quarter_scale_halves(self, curve_cache, full_grid):
        f = curve_cache(2, 3)
        g = qb.rescale(f, 0.25)
        shift = full_grid.n_rings - g.grid.n_rings
        assert np.abs(g.values - 0.5 * f.values[:, shift:]).max() < 1e-13

    def test_group_law(self, curve_cache):
        f = curve_cache(2, 3)
        twice = qb.rescale(qb.rescale(f, 0.5), 0.5)
        direct = qb.rescale(f, 0.25)
        assert np.abs(twice.values - direct.values).max() < 1e-8

    def test_group_law_off_lattice(self, curve_cache):
        f = curve_cache(2, 3)
        twice = qb.rescale(qb.rescale(f, 0.3), 0.5)
        direct = qb.rescale(f, 0.15)
        n = min(twice.grid.n_rings, direct.grid.n_rings)
        a = twice.values[:, twice.grid.n_rings - n:]
        b = direct.values[:, direct.grid.n_rings - n:]
        assert np.abs(a - b).max() < 1e-8

    def test_domain_overflow(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.rescale(curve_cache(2, 3), 4.0)


class TestDilationSamples:
    """A blow-up holds its parent's samples and its divisor; its own
    samples are the parent's first rings over the divisor, formed when
    first read."""

    @pytest.mark.parametrize("r", [1.0, 0.25, 0.3])
    def test_rescale_reads_the_eager_quotient(self, curve_cache, r):
        f = curve_cache(3, 4)
        u = qb.rescale(f, r)
        assert np.array_equal(u.values, f.values[:, :u.grid.n_rings] / r)

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    def test_normalized_blowup_reads_the_eager_quotient(self, curve_cache,
                                                        mode):
        v = qb.average_free_part(curve_cache(2, 5, (0, 0, 1)))
        for r in (0.5, 0.3, 2.0 ** -9):
            u = qb.coarse_blowup_normalize(v, r, mode)
            h = u.metadata["blowup"]["normalizer"]
            assert np.array_equal(u.values,
                                  v.values[:, :u.grid.n_rings] / (r * h))

    def test_shape_and_degree_step_form_no_samples(self, curve_cache):
        # a degree step's normalized blow-up, and its shape, read none
        f = qb.average_free_part(curve_cache(4, 5))
        u = qb.coarse_blowup_normalize(f, 0.25)
        assert (u.q, u.n) == (4, 2)
        assert u._values is None
        assert u.values.shape == (4, u.grid.n_rings, u.grid.n_theta, 2)
        assert u._values is not None and (u.q, u.n) == (4, 2)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_only_an_overflowing_quotient_is_refused(self, small_grid,
                                                     alpha):
        # f(r x) / r is r^(alpha - 1) f(x) on an alpha-homogeneous map: its
        # kept samples overflow at amplitude 1e308 for alpha < 1 only
        f = qb.homogeneous_map(alpha, grid=small_grid)
        huge = f.replace_values(f.values * 1e308)
        if alpha < 1:
            with pytest.raises(qb.DimensionError):
                qb.rescale(huge, 0.25)
        else:
            assert np.isfinite(qb.rescale(huge, 0.25).values).all()

    def test_degree_estimate_forms_no_step_samples(self, curve_cache):
        # with the average-free part, its ring table and its amplitude
        # cached by a first estimate, a second one allocates less than the
        # samples of its smallest step
        f = curve_cache(4, 5)
        _ring_data(f)
        qb.singularity_degree(f)
        tracemalloc.start()
        try:
            est = qb.singularity_degree(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r_last = est.per_step_I[-1][1]
        m = np.count_nonzero(f.grid.radii <= r_last * (1 + 1e-12))
        assert peak < f.values[:, :m].nbytes

    def test_ring_amplitudes_form_no_full_temporary(self, curve_cache):
        # negative samples: a largest magnitude is no largest sample
        f = curve_cache(4, 5)
        f = f.replace_values(-np.abs(f.values))
        tracemalloc.start()
        try:
            amplitude = blowup._ring_amplitudes(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(amplitude,
                              np.abs(f.values).max(axis=(0, 2, 3)))
        assert peak < f.values.nbytes / 8


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
    """A blow-up at any ratio, differentiated on its own, has its parent's
    frequency records at the relabelled radii, so a degree step reads its
    records off the parent."""

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    @pytest.mark.parametrize("name", ["curve23", "curve25", "curve34",
                                      "curve35", "curve45", "curve25+0.3z^3",
                                      "homogeneous5/3"])
    def test_blowup_reads_its_parents_table(self, average_free_inputs,
                                            name, mode):
        """u = c v(r .) has I_u(s) = I_v(r s), and D, H, E, G, Sigma scale
        by c^2, c^2 / r, c^2, c^2 r and c^2 / r^2, at every ring of u whose
        quadrature and radial stencils stay clear of its top rings, where
        they clamp and v's do not."""
        v = average_free_inputs[name]
        # ring shifts, then off-lattice ratios
        for r in [v.grid.rho ** k for k in (1, 2, 3, 8)] + [0.6, 0.3]:
            u = qb.coarse_blowup_normalize(v, r, mode, reference=1.0)
            c2 = (r * u.metadata["blowup"]["normalizer"]) ** -2
            scale = {"I": 1.0, "D": c2, "H": c2 / r, "E": c2, "G": c2 * r,
                     "Sigma": c2 / r ** 2}
            keep = [i for i, s in enumerate(u.grid.radii[:-7])
                    if s >= 2.0 * u.grid.r_min]
            own = qb.frequency_profile(u, radii=u.grid.radii[keep])
            parent = qb.frequency_profile(v, radii=v.grid.radii[keep])
            for a, b in zip(own.records, parent.records):
                assert a.valid == b.valid, (r, a.r)
                for key, k in scale.items():
                    x, y = getattr(a, key), k * getattr(b, key)
                    if not math.isnan(y):
                        assert abs(x - y) <= 1e-12 * abs(y), (r, a.r, key)

    def test_cached_tables_are_read_only(self, average_free_inputs):
        v = average_free_inputs["curve23"]
        for table in (_area_moments(v), _ring_data(v)):
            for a in table:
                with pytest.raises(ValueError):
                    a[0] = a[0]

    def test_off_lattice_ratio_reads_its_parents_table(self,
                                                       average_free_inputs):
        # the step at r = 0.6 reads v's octave below r_m, the ring of v that
        # is its blow-up's top ring; the blow-up forms and builds nothing
        v = average_free_inputs["curve23"]
        est = qb.singularity_degree(v, qb.BlowupConfig(scale_factor=0.6,
                                                       max_steps=3))
        u = qb.coarse_blowup_normalize(v, 0.6)
        radii = qb.default_profile_radii(
            v.grid, octaves=1.0, top=v.grid.radii[u.grid.n_rings - 1])
        lim = qb.frequency_limit(qb.frequency_profile(v, radii=radii))
        assert est.per_step_I[0] == (1, 0.6, lim["estimate"])
        assert u._values is None and not u._cache
        assert lim["estimate"] == pytest.approx(1.5, abs=1e-3)


@pytest.fixture(scope="module")
def perturbed_curve():
    grid = qb.default_grid(r_min=2.0 ** -10, n_theta=64)
    return qb.make_multigraph(qb.CurveSpec(2, 5, (0, 0, 0.3 + 0.2j)), grid)


class TestScaleInvariance:
    @given(r=st.floats(2.0 ** -5, 1.0, exclude_max=True),
           c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
    @example(r=0.21446587082434623, c=1.0)  # r s / 2 rounds below r_min
    def test_frequency_of_a_blowup_reads_the_parent(self, perturbed_curve,
                                                    r, c):
        """I_{c f(r .)}(s) = I_f(r s) at every ring s of the blow-up whose
        quadrature and radial stencils stay clear of its top rings, and
        whose cutoff kink s / 2 lies on or above its bottom ring."""
        f = perturbed_curve
        u = qb.rescale(f, r)
        u = u.replace_values(c * u.values)
        for s in u.grid.radii[:-7]:
            if s / 2 >= u.grid.r_min * (1 - 1e-9):
                assert single(u, s).I == pytest.approx(
                    single(f, r * s).I, rel=1e-12, abs=0.0), s


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
        direct = qb.rescale(f, 0.25)
        assert np.abs(u.values * h - direct.values).max() < 1e-12

    def test_l2_norm_reads_the_cached_ring_table(self, curve_cache,
                                                 monkeypatch):
        # a fresh map's first norm builds its ring table, and a second norm
        # reads that table and sweeps nothing more
        f = curve_cache(3, 4)
        fresh = qb.QFunction(grid=f.grid, values=f.values,
                             monodromy=f.monodromy)
        swept, gradients = [], qb.QFunction.gradients

        def spy(self, reduce):
            swept.append(self)
            return gradients(self, reduce)

        monkeypatch.setattr(qb.QFunction, "gradients", spy)
        first = qb.l2_norm_on_ball(fresh, 0.5)
        assert "ring_data" in fresh._cache and swept == [fresh]
        assert qb.l2_norm_on_ball(fresh, 0.5) == first
        assert swept == [fresh]

    def test_l2_norm_is_the_ring_tables_column(self, full_grid):
        # the samples-only table and column B of the ring table, which the
        # l2_norm normalizer reads, give the same integral bit for bit, on
        # and off the rings, for seeded and self-differentiated parts too
        def curve(q, p, h=()):
            return qb.make_multigraph(qb.CurveSpec(q, p, h), full_grid)

        swept = [curve(2, 3), curve(3, 5, (0, 0, 0.3))]
        for g in swept:
            _ring_data(g)
        maps = [curve(3, 4), curve(2, 5, (0, 0, 1)), curve(4, 5),
                qb.homogeneous_map(2.0, grid=full_grid),
                qb.homogeneous_map(0.8, grid=full_grid),
                qb.rescale(curve(2, 3), 0.25)]
        maps += [qb.average_free_part(g) for g in swept + maps[:2]]
        assert ["ring_data" in v._cache for v in maps[-4:]] == [
            True, True, False, False]
        radii = list(full_grid.radii[::23]) + [0.013, 0.3, 0.71, 1.0]
        for g in maps:
            table = _ring_data(g)
            for r in (r for r in radii if r >= g.grid.r_min):
                assert qb.l2_norm_on_ball(g, r) == float(np.sqrt(
                    g.rule()._disk_integral(table, r)[1]))

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    def test_samples_are_divided_once(self, curve_cache, mode):
        # x / (r h) is (x / r) / h bit for bit when r is a power of two
        v = qb.average_free_part(curve_cache(2, 5, (0, 0, 1)))
        for k in (1, 2, 5, 9):
            u = qb.coarse_blowup_normalize(v, 2.0 ** -k, mode)
            h = u.metadata["blowup"]["normalizer"]
            assert np.array_equal(u.values,
                                  qb.rescale(v, 2.0 ** -k).values / h)

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

    def test_excess_mode_on_steep_scales(self, curve_cache):
        # past 3r = 2 no graph plane is optimal for (2,3); the least excess
        # over all planes is then Q = 2 (see test_excess)
        u = qb.coarse_blowup_normalize(curve_cache(2, 3), 0.8, "excess_sqrt")
        assert u.metadata["blowup"]["normalizer"] == pytest.approx(
            math.sqrt(2.0), rel=1e-6)

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

    def test_gradients_are_seeded_from_the_input(self, perturbed_curve):
        # f's sweep takes v's ring table from f's gradients minus their
        # sheet mean, as v's own sweep does.  Only a copy of v, which
        # differentiates v's centred samples, gets another table: the
        # same up to rounding
        f = perturbed_curve
        _ring_data(f)
        v = qb.average_free_part(f)
        assert "ring_data" in v._cache
        fresh = _ring_data(v.replace_values(v.values))
        for seeded, own in zip(_ring_data(v), fresh):
            assert np.abs(seeded - own).max() <= 1e-12 * np.abs(own).max()
        # so a degree estimate does not depend on the call order: on the
        # selfcheck map, qbranch degree has v's sweep differentiate f's
        # samples and centre the blocks, exactly as selfcheck's profile of
        # f first seeds v's table
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        ests = []
        for swept_first in (False, True):
            g = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
            if swept_first:
                _ring_data(g)
            ests.append(qb.singularity_degree(g, qb.BlowupConfig(max_steps=6)))
        own, seeded = ests
        assert seeded.value == own.value
        assert seeded.per_step_I == own.per_step_I

    def test_one_shared_read_only_part_per_map(self, perturbed_curve):
        # a fresh map: caching here must not unseed the test above
        f = perturbed_curve.replace_values(perturbed_curve.values)
        v = qb.average_free_part(f)
        assert qb.average_free_part(f) is v
        assert not v.values.flags.writeable
        with pytest.raises(ValueError):
            v.values[0, 0, 0, 0] = 1.0

    def test_flatten_sequence_builds_two_ring_tables(self, monkeypatch):
        # the map's table and its average-free part's, which the stitched
        # profile and the Hardt-Simon check share
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        f = qb.make_multigraph(qb.CurveSpec(2, 3, (0, 0, 0.3)), grid)
        built = []
        cached = qb.QFunction.cached

        def counting(self, key, build):
            if self._cache.get(key) is None:
                built.append(key)
            return cached(self, key, build)

        monkeypatch.setattr(qb.QFunction, "cached", counting)
        radii = qb.default_profile_radii(grid)
        for cutoff in (qb.RAMP, qb.SHARP):
            qb.frequency_profile(f, radii=radii, cutoff=cutoff)
        qb.universal_frequency(f, qb.intervals_of_flattening(f, eps3_sq=0.2))
        qb.hardt_simon_check(qb.average_free_part(f), 64 * grid.r_min)
        assert [built.count(key) for key in
                ("average_free", "ring_data", "free_ring_data")] == [1, 2, 1]
        # f's one sweep also fills the area table the flattening scan's
        # excess reads, and v's ring table; v's ring amplitudes, read when
        # v is built, are cached like every table; no gradient, no
        # Cartesian Jacobians and no per-sheet profile are kept
        assert set(built) == {"rule", "average_free", "ring_data",
                              "area_moments", "free_ring_data",
                              "ring_amplitudes"}

    def test_repeated_harmonic_sheet_collapses(self, small_grid):
        x, y = small_grid.nodes_xy()
        harm = np.stack([x, -y], axis=-1)
        values = np.repeat(harm[None], 3, axis=0)
        f = qb.QFunction(grid=small_grid, values=values,
                         monodromy=np.arange(3), metadata={})
        v = qb.average_free_part(f)
        assert np.abs(v.values).max() < 1e-14


class TestAverageFreeView:
    """The average-free part is a view of its parent's samples: its tables
    come from one sweep of them, whichever table was built first."""

    def test_lone_and_seeded_estimates_are_bit_identical(self):
        # the selfcheck map: qbranch degree estimates f alone, selfcheck
        # profiles f first
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        ests = []
        for swept_first in (False, True):
            f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
            if swept_first:
                qb.frequency_profile(f)
            ests.append(qb.singularity_degree(f, qb.BlowupConfig(
                max_steps=6)).to_json())
        assert ests[0] == ests[1]

    def test_degree_never_forms_the_parts_samples(self, full_grid):
        f = qb.make_multigraph(qb.CurveSpec(4, 5), full_grid)
        tracemalloc.start()
        try:
            qb.singularity_degree(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qb.average_free_part(f)._values is None
        assert peak < f.values.nbytes / 2

    def test_overflowing_sheet_mean_is_refused(self):
        # each sample is finite, their sheet mean is not
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=64)
        values = np.empty((2, grid.n_rings, grid.n_theta, 2))
        values[0], values[1] = 1.5e308, 1.35e308
        f = qb.QFunction(grid=grid, values=values, monodromy=np.arange(2))
        with pytest.raises(qb.DimensionError, match="finite"):
            qb.average_free_part(f)

    def test_part_of_a_part_is_the_part(self, curve_cache):
        v = qb.average_free_part(curve_cache(2, 5, (0, 0, 1)))
        assert qb.average_free_part(v) is v

    def test_part_and_parent_form_no_reference_cycle(self, small_grid):
        # f caches v, so v holds f's samples and not f: with the collector
        # off, f dies with its last reference
        gc.disable()
        try:
            f = qb.make_multigraph(qb.CurveSpec(2, 5, (0, 0, 1)),
                                   small_grid)
            qb.coarse_blowup_normalize(qb.average_free_part(f), 0.5)
            parent = weakref.ref(f)
            del f
            assert parent() is None
        finally:
            gc.enable()


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

    def test_degree_is_the_frequency_limit_not_the_growth_exponent(
            self, full_grid):
        # r^1.5 times the fixed pair {e, -e} is no harmonic branch: column
        # B of its part's ring table grows like r^3, as a homogeneity of
        # 1.5, while its frequency is 1.5 / 2; the degree is the frequency,
        # and the spectrum's disagreement with it leaves it unconverged
        f = qb.homogeneous_map(1.5, qb.constant_profile([[1, 0], [-1, 0]]),
                               grid=full_grid)
        est = qb.singularity_degree(f)
        r = full_grid.radii
        B = _ring_data(qb.average_free_part(f))[0][:, 1]
        assert np.abs(B / (4 * np.pi * r ** 3) - 1).max() < 1e-13
        assert est.value == pytest.approx(0.75, abs=1e-4)
        assert not est.converged
        assert "not harmonic on its cover" in est.notes["spectrum_note"]
        assert "at least 1" in est.notes["below_one_note"]

    def test_amplitude_and_dilation_invariance(self, curve_cache):
        f = curve_cache(3, 4)
        base = qb.singularity_degree(f)
        amp = qb.singularity_degree(f.replace_values(5.0 * f.values))
        assert amp.value == pytest.approx(base.value, abs=1e-10)
        dil = qb.singularity_degree(qb.rescale(f, 0.5),
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

    def test_estimate_differentiates_once(self, monkeypatch):
        # the average-free part's gradients are the estimate's only radial
        # differentiation: every step reads that part's ring table
        calls = []
        for module in (grids, curves, frequency, blowup):
            original = getattr(module, "d_dr_geometric", None)
            if original is not None:
                monkeypatch.setattr(module, "d_dr_geometric",
                                    lambda *a, _d=original, **k:
                                    calls.append(1) or _d(*a, **k))
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=64)
        qb.singularity_degree(qb.make_multigraph(qb.CurveSpec(2, 3), grid))
        assert len(calls) == 1

    def test_cold_estimate_shares_its_windows(self, curve_cache):
        """The average-free part and all its blow-ups read one process-wide
        window cache: their top-octave windows coincide, and bottom-anchored
        integrals read cumulative tables built from one-cell windows."""
        _window.cache_clear()
        qb.singularity_degree(curve_cache(3, 4))
        assert _window.cache_info().misses <= 40

    def test_too_few_steps(self, curve_cache):
        f = curve_cache(2, 3)
        shallow = qb.rescale(f, 2.0 ** -13)
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
        assert failed == sorted(failed)  # in step order, whichever refused
        assert sorted(failed + survived) == list(range(1, 8))
        assert all(isinstance(why, str) and why for _, why in failures)
        assert json.loads(est.to_json())["step_failures"] == failures

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    def test_no_step_is_skipped_silently(self, curve_cache, mode):
        # at scale factor 0.7 the first step's reference ball B_1.05 leaves
        # the unit disk: l2_norm lists the step as failed, and excess_sqrt,
        # which has no reference ball, keeps it
        est = qb.singularity_degree(curve_cache(2, 3), qb.BlowupConfig(
            scale_factor=0.7, normalization=mode))
        failures = est.notes.get("step_failures", [])
        failed = [k for k, _ in failures]
        survived = [k for k, _, _ in est.per_step_I]
        if mode == "l2_norm":
            assert failed == [1] and "reference ball" in failures[0][1]
        else:
            assert failed == []
        assert sorted(failed + survived) == list(range(1, survived[-1] + 1))


class TestOneLimit:
    """The degree is one limit of v's profile, read over v's rings in
    [8 r_min, 64 r_min]; the disjoint three-octave windows above test it.
    It does not depend on the scale sequence."""

    @pytest.mark.parametrize("mode", ["l2_norm", "excess_sqrt"])
    def test_union_converges_to_its_lower_degree(self, union_curve, mode):
        # I approaches 4/3 at the rate s^{1/3}: a limit fitted at a fixed
        # rate missed it by about 3e-3 and moved with the scale sequence
        ests = [qb.singularity_degree(union_curve, qb.BlowupConfig(
            scale_factor=sf, normalization=mode)) for sf in (0.25, 0.5, 0.6)]
        for est in ests:
            assert abs(est.value - 4 / 3) <= 1e-4
            assert est.converged
            assert est.value == ests[0].value and est.spread == ests[0].spread
            assert "convergence_note" not in est.notes

    @pytest.mark.parametrize("scale_factor", [0.25, 0.5, 0.6, 0.7])
    def test_impostor_is_unconverged(self, impostor, scale_factor):
        # I oscillates in log r: H's spectrum in every window holds the
        # log-periodic factor's exponents 4 +- 2 pi i k / ln 2, so no window
        # has a limit and each stands for its smallest octave's values of
        # I, which span 2.6e-2 whichever scale sequence the steps take;
        # column B's spectrum holds the exponents 3 +- 2 pi i k / ln 2
        est = qb.singularity_degree(impostor, qb.BlowupConfig(
            scale_factor=scale_factor))
        assert not est.converged
        assert est.spread > qb.BlowupConfig().convergence_tol
        assert "non-real exponents" in est.notes["spectrum_note"]

    def test_value_is_the_lowest_windows_limit(self, union_curve,
                                               curve_cache):
        # the value is half the leading exponent of column B's spectrum
        # over the lowest window, checked against that window's limit
        for f in (union_curve, curve_cache(3, 5)):
            v = qb.average_free_part(f)
            window = qb.default_profile_radii(v.grid, octaves=3.0,
                                              top=64 * v.grid.r_min)
            lim = qb.frequency_limit(qb.frequency_profile(v, radii=window))
            spec = v.rule().spectrum(_ring_data(v)[0][:, 1], window[0],
                                     window[-1])
            est = qb.singularity_degree(f)
            assert window[0] == 8 * v.grid.r_min
            assert est.value == spec.leading().real / 2
            assert abs(est.value - lim["estimate"]) \
                <= qb.BlowupConfig().convergence_tol

    @pytest.mark.parametrize("parts, degree", [
        (((1, 2, 3), (2, 3, 4)), 4 / 3),
        (((2, 2, 3), (1, 5, 8)), 3 / 2),
        (((2, 7, 10), (1, 2, 3)), 10 / 7),
        (((2, 5, 6), (1, 4, 5)), 6 / 5)])
    def test_close_unions_read_their_lower_degree(self, full_grid, parts,
                                                  degree):
        # the two lowest degrees lie 1/6 to 1/20 apart, so I approaches the
        # lower one at a rate 2 (alpha_2 - alpha_1) of 1/3 down to 1/10:
        # a limit whose rate is clipped at 1/4 missed it by up to 2.6e-3,
        # and its windows spread by up to 8.6e-3
        f = union_of(full_grid, *parts)
        for scale_factor in (0.25, 0.5, 0.6):
            est = qb.singularity_degree(f, qb.BlowupConfig(
                scale_factor=scale_factor))
            assert est.converged and "spectrum_note" not in est.notes
            assert abs(est.value - degree) <= 1e-10
            assert est.spread <= 2e-6

    @pytest.mark.parametrize("q, p", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5),
                                      (2, 7), (2, 9)])
    def test_curves_read_their_degree_to_rounding(self, curve_cache, q, p):
        # column B of a curve's ring table is one power of r: the frequency
        # limit missed 9/2 by 2.6e-3, the spectrum misses it by rounding
        est = qb.singularity_degree(curve_cache(q, p))
        assert est.converged and abs(est.value - p / q) <= 1e-12

    @pytest.mark.parametrize("parts, degree, tol", [
        (((1, 2, 3),), 3 / 2, 2e-9), (((2, 5, 6), (1, 4, 5)), 6 / 5, 3e-6)])
    def test_noisy_samples_keep_their_spectrum(self, full_grid, parts,
                                               degree, tol):
        # a relative error of 1e-8 in the values lifts the Hankel matrix's
        # least singular values to about 1e-10, over the fixed 1e-11 floor;
        # the floor follows them, so the order stays the number of branches
        # and the residual, about 5e-10, stays within the floor.  Over 20
        # seeds the spectrum missed by at most 1.9e-10 and 3.2e-7, the
        # frequency limit by 1.4e-6 and 2.4e-3
        f = union_of(full_grid, *parts)
        noise = np.random.default_rng(1).standard_normal(f.values.shape)
        f = f.replace_values(f.values * (1 + 1e-8 * noise))
        est = qb.singularity_degree(f)
        assert est.converged and "spectrum_note" not in est.notes
        assert abs(est.value - degree) <= tol

    def test_a_window_without_spectrum_keeps_its_limit(self):
        # the map vanishes on B_{2^-5}, so column B's first sample in the
        # lowest window, at 2^-7, is zero
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
        f = f.replace_values(np.where(grid.radii[:, None, None] < 2.0 ** -5,
                                      0.0, f.values))
        window = qb.default_profile_radii(grid, octaves=3.0,
                                          top=64 * grid.r_min)
        lim = qb.frequency_limit(qb.frequency_profile(
            qb.average_free_part(f), radii=window))
        est = qb.singularity_degree(f)
        assert est.value == lim["estimate"] and not est.converged
        assert "nonzero first sample" in est.notes["spectrum_note"]

    def test_one_window_is_no_convergence(self):
        grid = qb.default_grid(r_min=2.0 ** -8, n_theta=256)
        est = qb.singularity_degree(qb.make_multigraph(qb.CurveSpec(2, 3),
                                                       grid))
        assert est.value == pytest.approx(1.5, abs=1e-5)
        assert not est.converged and est.spread == 0.0
        assert "one three-octave limit window" in est.notes[
            "convergence_note"]
        assert "convergence_note" in json.loads(est.to_json())

    def test_no_window_is_refused(self):
        # five octaves: three steps fit at scale factor 0.7, no window does
        grid = qb.default_grid(r_min=2.0 ** -5, n_theta=256)
        with pytest.raises(qb.DataError, match="0 fitting limit windows"):
            qb.singularity_degree(
                qb.make_multigraph(qb.CurveSpec(2, 3), grid),
                qb.BlowupConfig(scale_factor=0.7, normalization="excess_sqrt"))


class TestClaimedCurve:
    def test_reads_the_claim_through_curve_spec(self, perturbed_curve):
        est = qb.singularity_degree(perturbed_curve,
                                    qb.BlowupConfig(max_steps=6))
        claim = qb.CurveSpec(2, 5, (0, 0, 0.3 + 0.2j))
        assert est.notes["reference_degree"] == claim.contact_order() == 2.0
        assert est.notes["measured_object"] == "average_free"

    def test_average_free_part_claims_no_curve(self):
        # v's sheet average is 0, so the perturbed curve's full-graph order
        # 2 is no reference for it
        f = qb.make_multigraph(qb.CurveSpec(2, 5, (0, 0, 1)), qb.default_grid(
            r_min=2.0 ** -10, n_theta=256))
        v = qb.average_free_part(f)
        assert qb.CurveSpec.from_metadata(v.metadata) is None
        assert v.metadata["label"] == f.metadata["label"]
        est = qb.singularity_degree(v)
        assert est.value == pytest.approx(2.5, abs=1e-3)
        assert not {"discrepancy", "reference_degree"} & set(est.notes)
        assert qb.singularity_degree(f).notes["discrepancy"] is True

    @pytest.mark.parametrize("meta", [{"kind": "curve"},
                                      {"kind": "curve", "q": 2, "p": 2}])
    def test_malformed_claim_is_refused_before_any_sweep(self, meta,
                                                         monkeypatch):
        f = qb.homogeneous_map(1.5, grid=qb.default_grid(r_min=2.0 ** -8,
                                                          n_theta=64))
        f.metadata = meta

        def no_sweep(*args):
            raise AssertionError("swept before reading the claim")
        monkeypatch.setattr(curves.QFunction, "gradients", no_sweep)
        with pytest.raises(qb.ConfigError, match="claimed curve"):
            qb.singularity_degree(f)
        assert f._cache == {}


class TestRefusals:
    def test_convergence_tolerance_must_be_positive(self):
        with pytest.raises(qb.ConfigError, match="convergence_tol"):
            qb.BlowupConfig(convergence_tol=0)

    def test_rescale_refuses_a_zero_ratio(self, perturbed_curve):
        with pytest.raises(qb.RangeError, match="must be positive"):
            qb.rescale(perturbed_curve, 0)

    def test_unknown_normalization(self, perturbed_curve):
        with pytest.raises(qb.ConfigError, match="unknown normalization"):
            qb.coarse_blowup_normalize(perturbed_curve, 0.5, mode="peak")

    def test_hardt_simon_needs_the_half_disk(self):
        grid = qb.default_grid(r_min=2.0 ** -10, r_max=0.25, n_theta=64)
        f = qb.homogeneous_map(1.5, grid=grid)
        with pytest.raises(qb.RangeError, match="reach radius 1/2"):
            qb.hardt_simon_check(f, rho_inner=2.0 ** -8)


class TestStepsFromOneProfile:
    """Every step of a degree estimate reads one frequency profile of the
    average-free part v: step k's records are v's over its window, v's
    octave below r_m, the ring of v that is the blow-up's top ring."""

    @given(scale_factor=st.floats(0.3, 0.75),
           mode=st.sampled_from(["l2_norm", "excess_sqrt"]))
    def test_each_step_is_its_windows_limit(self, perturbed_curve,
                                            scale_factor, mode):
        v = qb.average_free_part(perturbed_curve)
        est = qb.singularity_degree(perturbed_curve, qb.BlowupConfig(
            scale_factor=scale_factor, normalization=mode))
        for k, r, I in est.per_step_I:
            u = qb.coarse_blowup_normalize(v, r, mode)
            window = qb.default_profile_radii(
                v.grid, octaves=1.0, top=v.grid.radii[u.grid.n_rings - 1])
            lim = qb.frequency_limit(qb.frequency_profile(v, radii=window))
            assert r == scale_factor ** k and I == lim["estimate"]
        failed = [k for k, _ in est.notes.get("step_failures", [])]
        steps = sorted(failed + [k for k, _, _ in est.per_step_I])
        assert failed == sorted(failed)
        assert steps == list(range(1, len(steps) + 1))

    def test_one_profile_per_estimate(self, perturbed_curve, monkeypatch):
        calls = []
        profile = blowup.frequency_profile
        monkeypatch.setattr(blowup, "frequency_profile", lambda g, *a, **k:
                            calls.append(g) or profile(g, *a, **k))
        est = qb.singularity_degree(perturbed_curve)
        assert len(est.per_step_I) >= 3
        assert len(calls) == 1
        assert calls[0] is qb.average_free_part(perturbed_curve)

    @pytest.mark.parametrize("scale_factor", [0.5, 0.6])
    @pytest.mark.parametrize("q, p, tol", [(2, 5, 6e-5), (3, 7, 3.5e-5)])
    def test_no_step_reads_a_clamped_window(self, curve_cache, q, p, tol,
                                            scale_factor):
        # every step's limit reads v's octave below r_m and misses p/Q by
        # 5.07e-5 and 3.16e-5; read off each blow-up's own top octave,
        # whose windows clamp at its grid top, it misses by 7.09e-5 and
        # 4.32e-5.  The value is the spectrum's, which no window clamps
        est = qb.singularity_degree(curve_cache(q, p), qb.BlowupConfig(
            scale_factor=scale_factor))
        assert max(abs(I - p / q) for _, _, I in est.per_step_I) <= tol
        assert abs(est.value - p / q) <= tol


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
        res = qb.hardt_simon_check(f, rho_inner=2.0 ** -8)
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

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("rho", [2.0 ** -10, 2.0 ** -4, 0.1, 0.125])
    def test_growth_exponent_is_exact(self, alpha, rho):
        # column B is one power r^(2 alpha), whose exponent less 2 is the
        # integral's growth rho^(2 alpha - 2)
        grid = qb.default_grid(r_min=2.0 ** -12, n_theta=128)
        res = qb.hardt_simon_check(qb.homogeneous_map(alpha, grid=grid), rho)
        assert res.growth_exponent == pytest.approx(2 * alpha - 2, abs=1e-6)
        assert res.divergent is (alpha < 1)

    @pytest.mark.parametrize("alpha", [1 / 2, 4 / 5, 7 / 8, 11 / 12, 13 / 12,
                                       9 / 8, 3 / 2, 7 / 2])
    def test_homogeneous_closed_form(self, alpha, monkeypatch):
        # the integrand is read off the ring table: with f's ring table
        # cached, nothing differentiates f again
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        f = qb.homogeneous_map(alpha, grid=grid)
        _ring_data(f)
        for module in (grids, curves, frequency, blowup):
            monkeypatch.setattr(module, "d_dr_geometric", None, raising=False)
        res = qb.hardt_simon_check(f, 2.0 ** -6)
        assert res.polar_identity_residual <= 2e-6
        assert res.growth_exponent == pytest.approx(2 * alpha - 2, abs=1e-12)
        assert res.divergent is (alpha < 1)

    def test_degree_one_integral_is_rounding(self):
        # the integrand's three terms cancel on a 1-homogeneous map, to
        # rounding, and the growth is read off column B, not off that
        # rounding
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        res = qb.hardt_simon_check(qb.homogeneous_map(1.0, grid=grid),
                                   2.0 ** -6)
        assert abs(res.integral) <= 1e-12
        assert abs(res.growth_exponent) <= 1e-12
        assert not res.divergent

    @pytest.mark.parametrize("parts", [((1, 2, 3), (2, 3, 4)),
                                       ((2, 5, 6), (1, 4, 5)),
                                       ((1, 2, 3), (2, 2, 5))])
    def test_union_reads_every_branch(self, full_grid, parts):
        # column B of a union is a sum of powers, one per branch, and the
        # closed form sums the branches: one alpha for all of them would
        # miss by 4.2e-3, 8.5e-4 and 0.2
        res = qb.hardt_simon_check(qb.average_free_part(
            union_of(full_grid, *parts)), 64 * full_grid.r_min)
        alpha = min(p / q for _, q, p in parts)
        assert res.polar_identity_residual <= 1e-6
        assert abs(res.alpha_used - alpha) <= 1e-10
        assert abs(res.growth_exponent - (2 * alpha - 2)) <= 1e-10
        assert not res.divergent

    def test_impostor_misses_the_closed_form(self, impostor, full_grid):
        # the log-periodic factor gives column B non-real exponents
        # 3 +- 2 pi i k / ln 2 about the real 3, outside the closed form
        res = qb.hardt_simon_check(impostor, 64 * full_grid.r_min)
        assert res.polar_identity_residual > 0.01
        assert abs(res.alpha_used - 1.5) <= 1e-10

    def test_coinciding_sheets_have_no_spectrum(self, full_grid):
        # the average-free part of two equal sheets is zero, so column B
        # vanishes at rho
        f = qb.make_multigraph(qb.CurveSpec(2, 3), full_grid)
        f = f.replace_values(np.repeat(f.values[:1], 2, axis=0))
        with pytest.raises(qb.DataError, match="nonzero first sample"):
            qb.hardt_simon_check(qb.average_free_part(f),
                                 64 * full_grid.r_min)

    @given(parts=st.lists(st.tuples(st.floats(0.5, 2.0),
                                    st.sampled_from(CURVE_SET)),
                          min_size=1, max_size=3,
                          unique_by=lambda part: part[1]))
    def test_unions_meet_their_closed_form(self, parts):
        # one to three branches of distinct curves, each scaled: over every
        # corner of the scales the least alpha came back within 1.5e-10
        grid = qb.default_grid(r_min=2.0 ** -10, n_theta=256)
        f = union_of(grid, *[(c, q, p) for c, (q, p) in parts])
        res = qb.hardt_simon_check(qb.average_free_part(f), 64 * grid.r_min)
        assert res.polar_identity_residual <= 1e-5
        assert abs(res.alpha_used - min(p / q for _, (q, p) in parts)) \
            <= 1e-9

    def test_rho_below_grid(self, curve_cache):
        with pytest.raises(qb.RangeError):
            qb.hardt_simon_check(curve_cache(2, 3), 2.0 ** -17)

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.7, math.inf, math.nan])
    def test_rho_without_annulus(self, small_grid, rho):
        # the spectrum's window [rho, 1/2] spans less than two octaves
        f = qb.homogeneous_map(0.8, grid=small_grid)
        with pytest.raises(qb.RangeError):
            qb.hardt_simon_check(f, rho)
