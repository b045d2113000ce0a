"""Mass, excess over planes, optimal planes, and decay fits.

The oracle for the unperturbed curves is exact: a holomorphic sheet has a
conformal Jacobian, so its area element is 1 + |w'|^2 with no quartic
remainder, and the cylindrical excess of the (Q, p) curve over the
horizontal plane is

    E(r) = (1/(pi r^2)) int_{B_r} sum_i |w_i'|^2
         = (Q alpha^2 / (pi r^2)) int_{B_r} |z|^(2 alpha - 2)
         = p r^(2 (p/Q - 1)),        alpha = p/Q,

hence E(r) = 3 r for (2, 3) and E(r) = 4 r^(2/3) for (3, 4).  The tests
evaluate the first line with an independent one-dimensional quadrature and
freeze the closed form as a sanity cross-check."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import qbranch as qb
from qbranch.curves import _ring_data
from qbranch.excess import _plucker, _plucker_of_tilt
from qbranch.grids import RadialRule
from qbranch.qvalue import _sq_norm


def oracle_curve_excess(q, p, r):
    """Independent oracle: (1/(pi r^2)) int_{B_r} sum_i |w_i'|^2 with
    |w_i'| = (p/q) |z|^(p/q - 1)."""
    alpha = p / q
    integrand = lambda s: q * alpha ** 2 * s ** (2 * alpha - 2) * 2 * np.pi * s
    return quad(integrand, 0, r)[0] / (np.pi * r ** 2)


def tilt_of(direction, norm):
    """2x2 tilt of Frobenius norm `norm` along `direction` (zero if the
    direction is too short to normalize)."""
    d = np.reshape(direction, (2, 2))
    size = np.linalg.norm(d)
    return d * (norm / size) if size > 1e-3 else np.zeros((2, 2))


def tilts(max_norm):
    return st.builds(tilt_of, st.lists(st.floats(-1, 1), min_size=4,
                                       max_size=4), st.floats(0, max_norm))


def hodge_halves(S):
    """Self-dual and anti-self-dual halves of a 2-vector of R^4 given in the
    order (x12, x13, x14, x23, x24, x34), with *e12 = e34, *e13 = -e24,
    *e14 = e23."""
    x12, x13, x14, x23, x24, x34 = S
    star = np.array([x34, -x24, x23, x14, -x13, x12])
    return (S + star) / 2, (S - star) / 2


def flat_sheets(grid, q, tilt=None, offsets=None):
    x, y = grid.nodes_xy()
    values = np.zeros((q, grid.n_rings, grid.n_theta, 2))
    for k in range(q):
        if tilt is not None:
            values[k, :, :, 0] = tilt[0, 0] * x + tilt[0, 1] * y
            values[k, :, :, 1] = tilt[1, 0] * x + tilt[1, 1] * y
        if offsets is not None:
            values[k] += np.asarray(offsets[k])[None, None, :]
    return qb.QFunction(grid=grid, values=values, monodromy=np.arange(q),
                        metadata={"kind": "flat"})


class TestPlanarCodomainOnly:
    """The area table describes graphs in R^2 x R^2 only: the (2,3) curve
    padded to R^3, and the same rotated by 0.7 rad in the codomain's
    (2,3)-plane, have the same area, yet the table read 2.74889 and
    2.63657 for their mass over B_1/2."""

    @staticmethod
    def maps():
        f = qb.make_multigraph(qb.CurveSpec(2, 3),
                               qb.default_grid(r_min=2.0 ** -8, n_theta=64))
        padded = np.concatenate([f.values, np.zeros_like(f.values[..., :1])],
                                axis=-1)
        c, s = np.cos(0.7), np.sin(0.7)
        turn = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        return [qb.QFunction(grid=f.grid, values=v, monodromy=f.monodromy)
                for v in (padded, padded @ turn.T)]

    @pytest.mark.parametrize("read", [
        qb.graph_mass, qb.least_excess, qb.mean_tilt, qb.optimal_plane,
        qb.spherical_excess, qb.mass_expansion_residual])
    def test_area_reads_refuse_other_codomains(self, read):
        for f in self.maps():
            with pytest.raises(qb.DimensionError, match="planar codomain"):
                read(f, 0.5)

    def test_other_codomains_sweep_without_an_area_table(self):
        # the scalar first component of (2,3) is 3/2-homogeneous and
        # harmonic; its sweep reads no second component, and an R^3 map's
        # sweep builds no table that its one reader would refuse
        padded = self.maps()[0]
        scalar = qb.QFunction(grid=padded.grid, values=padded.values[..., :1],
                              monodromy=padded.monodromy)
        for f in (scalar, padded):
            prof = qb.frequency_profile(f)
            assert max(abs(rec.I - 1.5) for rec in prof.valid_records()) \
                < 1e-5
            assert "area_moments" not in f._cache
        est = qb.singularity_degree(scalar)
        assert est.value == pytest.approx(1.5, abs=1e-5)
        with pytest.raises(qb.DimensionError, match="planar codomain"):
            qb.least_excess(padded, 0.5)


class TestGraphMass:
    def test_flat_sheets_exact_area(self, small_grid):
        f = flat_sheets(small_grid, 3, offsets=[(0, 0), (1, 0), (0, 1)])
        for r in (small_grid.r_max, 0.5):
            assert qb.graph_mass(f, r) == pytest.approx(
                3 * np.pi * r ** 2, rel=1e-10)

    def test_tilted_plane_exact(self, small_grid):
        # constant integrand; the only error left is the numerical gradient
        # of the linear sheet at the one-sided boundary stencils
        A = np.array([[0.3, 0.1], [-0.2, 0.25]])
        f = flat_sheets(small_grid, 1, tilt=A)
        area_element = np.sqrt(np.linalg.det(np.eye(2) + A.T @ A))
        assert qb.graph_mass(f, 1.0) == pytest.approx(
            np.pi * area_element, rel=1e-6)

    def test_curve23_mass(self, curve_cache):
        # conformal sheets: mass = Q pi r^2 + int sum |w'|^2 exactly
        expected = 2 * np.pi + quad(
            lambda s: 2 * (1.5 ** 2) * s * 2 * np.pi * s, 0, 1)[0]
        assert expected == pytest.approx(5 * np.pi, rel=1e-12)
        assert qb.graph_mass(curve_cache(2, 3), 1.0) == pytest.approx(
            expected, rel=1e-6)

    def test_mass_monotone_and_above_projection(self, curve_cache):
        f = curve_cache(3, 4)
        masses = [qb.graph_mass(f, r) for r in (0.25, 0.5, 1.0)]
        assert masses[0] < masses[1] < masses[2]
        for r, m in zip((0.25, 0.5, 1.0), masses):
            assert m >= 3 * np.pi * r ** 2 * (1 - 1e-10)

    def test_taylor_expansion_of_mass(self, curve_cache):
        # |mass - Q pi r^2 - dir/2| <= C int |Df|^4 with a modest C
        for (q, p) in [(2, 3), (3, 4), (2, 5)]:
            out = qb.mass_expansion_residual(curve_cache(q, p), 1.0)
            assert out["lhs"] <= 0.25 * out["quartic"] + 1e-9


class TestMassExpansionResidual:
    """The |Df|^4 profile is reduced a block of rings at a time."""

    @staticmethod
    def whole_array_residual(f, r):
        """The residual from f's whole gradient arrays at once."""
        from conftest import whole_gradients
        mass, dir2 = qb.graph_mass(f, r), qb.dirichlet_energy(f, r)
        du_dr, du_dth = whole_gradients(f)
        g2 = _sq_norm(du_dr) + _sq_norm(du_dth)
        prof4 = 2 * np.pi * np.mean(np.sum(g2 ** 2, axis=0), axis=-1)
        rule = f.rule()
        quartic = rule._disk_integral(rule.disk_table(prof4), r)
        lhs = abs(mass - f.q * np.pi * r ** 2 - 0.5 * dir2)
        return {"lhs": lhs, "quartic": quartic,
                "ratio": lhs / quartic if quartic > 0 else 0.0}

    @pytest.mark.parametrize("case", ["curve23", "perturbed25", "homog2"])
    def test_is_the_whole_array_formula(self, case, curve_cache, full_grid):
        f = {"curve23": lambda: curve_cache(2, 3),
             "perturbed25": lambda: curve_cache(2, 5, (0, 0, 0.3)),
             "homog2": lambda: qb.homogeneous_map(2.0, grid=full_grid)}[case]()
        for r in (1.0, 0.3):
            assert qb.mass_expansion_residual(f, r) == \
                self.whole_array_residual(f, r)

    @pytest.mark.parametrize("part", ["map", "average_free"])
    def test_one_sweep_serves_every_radius(self, part, full_grid,
                                           monkeypatch):
        # the sum |Df|^4 profile is a table of the map's one sweep, asked
        # for first with the area table: a fresh map, an average-free part
        # too, is differentiated once, and the calls at other radii read
        # tables only
        f = qb.make_multigraph(qb.CurveSpec(4, 5), full_grid)
        if part == "average_free":
            f = qb.average_free_part(f)
        swept, gradients = [], qb.QFunction.gradients

        def spy(self, reduce):
            swept.append(self)
            return gradients(self, reduce)

        monkeypatch.setattr(qb.QFunction, "gradients", spy)
        for k in range(5):
            qb.mass_expansion_residual(f, 2.0 ** -k)
        assert len(swept) == 1 and swept[0] is f

    def test_peaks_below_half_the_samples(self, curve_cache, monkeypatch):
        # the sweep that builds the sum |Df|^4 table, alone: the ring, area
        # and average-free tables are filled first, so the traced call
        # reduces block gradients to that table only (whole gradients took
        # 4x the samples)
        base = curve_cache(4, 5)
        f = base.replace_values(base.values)
        _ring_data(f)
        swept, gradients = [], qb.QFunction.gradients

        def spy(self, reduce):
            swept.append(self)
            return gradients(self, reduce)

        monkeypatch.setattr(qb.QFunction, "gradients", spy)
        tracemalloc.start()
        try:
            qb.mass_expansion_residual(f, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert swept == [f]
        assert peak <= 0.5 * f.values.nbytes


class TestSphericalExcess:
    def test_flat_sheets_zero_excess(self, small_grid):
        f = flat_sheets(small_grid, 2, offsets=[(0, 0), (1, 1)])
        rec = qb.spherical_excess(f, 1.0)
        assert abs(rec.excess) < 1e-12
        assert rec.excess >= -1e-12

    def test_on_its_own_tilted_plane(self, small_grid):
        A = np.array([[0.2, 0.05], [0.0, 0.15]])
        f = flat_sheets(small_grid, 2, tilt=A, offsets=[(0, 0), (1, 0)])
        rec = qb.spherical_excess(f, 1.0, qb.Plane(A))
        assert abs(rec.excess) < 1e-12

    def test_curve23_matches_oracle(self, curve_cache):
        f = curve_cache(2, 3)
        for r in (0.5, 0.25, 0.125):
            expected = oracle_curve_excess(2, 3, r)
            got = qb.spherical_excess(f, r).excess
            assert got == pytest.approx(expected, rel=1e-2)
        # leading order: E(r) = 3 r for this curve
        assert oracle_curve_excess(2, 3, 0.25) == pytest.approx(0.75,
                                                                rel=1e-9)

    def test_mass_ratio_identity(self, curve_cache):
        # horizontal-plane excess equals (mass - Q pi r^2) / (pi r^2)
        f = curve_cache(3, 4)
        r = 0.5
        rec = qb.spherical_excess(f, r)
        ratio = (qb.graph_mass(f, r) - 3 * np.pi * r ** 2) / (np.pi * r ** 2)
        assert rec.excess == pytest.approx(ratio, rel=1e-9)

    def test_horizontal_excess_is_the_mass_ratio(self, curve_cache,
                                                 small_grid):
        # mass, excess and S1 read one row of one table, so with
        # P_0 = e12 the excess is (mass - S1_12) / (pi r^2) to the last bit
        maps = [curve_cache(2, 3), curve_cache(3, 4),
                curve_cache(2, 5, (0, 0, 0.3)),
                curve_cache(3, 5, (0, 0, 0, 0.3 + 0.2j)),
                qb.homogeneous_map(1.5, grid=small_grid),
                qb.homogeneous_map(2.0, grid=small_grid)]
        for f in maps:
            for r in 2.0 ** -np.arange(15):
                if r < f.grid.r_min:
                    break
                S1 = qb.excess._moments_up_to(f, r)[1]
                ratio = (qb.graph_mass(f, r) - S1[0]) / (np.pi * r ** 2)
                assert qb.spherical_excess(f, r).excess == ratio

    def test_tilting_away_increases_excess(self, curve_cache):
        f = curve_cache(2, 3)
        base = qb.spherical_excess(f, 0.25).excess
        for eps in (0.05, 0.1, 0.2):
            for direction in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
                rec = qb.spherical_excess(f, 0.25, qb.Plane(eps * direction))
                assert rec.excess > base

    def test_large_tilt_rejected(self):
        with pytest.raises(qb.TiltError):
            qb.Plane(np.array([[0.6, 0.0], [0.0, 0.0]]))


class TestOptimalPlane:
    def test_symmetric_curves_prefer_horizontal(self, curve_cache):
        for (q, p) in [(2, 3), (3, 4)]:
            res = qb.optimal_plane(curve_cache(q, p), 0.25)
            assert res["plane"].tilt_norm < 1e-8

    def test_recovers_common_tilt(self, small_grid):
        A0 = np.array([[0.2, -0.1], [0.05, 0.3]])
        f = flat_sheets(small_grid, 3, tilt=A0,
                        offsets=[(0, 0), (1, 0), (0, 1)])
        res = qb.optimal_plane(f, 1.0)
        assert np.abs(res["plane"].tilt - A0).max() < 1e-10
        assert abs(res["excess"]) < 1e-12

    def test_perturbed_curve_tilt_shrinks(self, curve_cache):
        f = curve_cache(2, 5, (0, 0, 1))
        tilts = [qb.optimal_plane(f, r)["plane"].tilt_norm
                 for r in (0.5, 0.25, 0.125)]
        # h'(0) = 0, so the optimal tilt tends to 0 with the radius; for
        # this centered holomorphic perturbation it is zero at every scale
        assert all(t < 1e-6 for t in tilts)

    def test_rotation_invariance_of_optimal_value(self, curve_cache):
        f = curve_cache(2, 5, (0, 0, 0.5))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated = f.replace_values(np.einsum("ab,krtb->krta", R, f.values))
        e0 = qb.optimal_plane(f, 0.25)["excess"]
        e1 = qb.optimal_plane(rotated, 0.25)["excess"]
        assert e1 == pytest.approx(e0, rel=1e-10)

    def test_tilted_curve_answers_at_every_scale(self, curve_cache,
                                                 full_grid):
        # the (2,3) curve plus a common tilt 0.1 x_1: at r = 1/2 the excess
        # is about 1.5 and an iterative fit converged only linearly there
        f = curve_cache(2, 3)
        x, _ = full_grid.nodes_xy()
        values = f.values.copy()
        values[..., 0] += 0.1 * x[None]
        g = f.replace_values(values)
        res = qb.optimal_plane(g, 0.5)
        assert res["excess"] == pytest.approx(1.48375, abs=1e-5)
        assert np.abs(res["plane"].tilt
                      - np.diag([0.22235, 0.16314])).max() < 1e-4
        assert res["iterations"] == 1
        assert not qb.intervals_of_flattening(g).empty

    def test_steep_scales_have_no_graph_optimal_plane(self, curve_cache):
        # on the (Q, p) curve S1 is a self-dual half S0 (e12 + e34)/2 plus an
        # anti-self-dual half (Q pi r^2 - D)(e12 - e34)/2, D = int sum |w'|^2,
        # so the least excess over all planes is min(Q, p r^(2(p/Q - 1))):
        # past 3r = 2 the best plane for (2, 3) is the vertical e34
        f = curve_cache(2, 3)
        for r in (0.25, 0.5, 0.8, 2.0 ** -0.125):
            assert qb.least_excess(f, r) == pytest.approx(min(2.0, 3 * r),
                                                          rel=1e-6)
        with pytest.raises(qb.TiltError):
            qb.optimal_plane(f, 0.8)
        # the horizontal plane is a saddle there, not a minimum
        tilted = qb.spherical_excess(f, 0.8, qb.Plane(0.3 * np.eye(2)))
        assert tilted.excess < qb.spherical_excess(f, 0.8).excess
        # where a graph plane is best, both entry points give its excess
        assert qb.least_excess(f, 0.25) == pytest.approx(
            qb.optimal_plane(f, 0.25)["excess"], rel=1e-12)

    @pytest.mark.parametrize("S1,error", [
        ([0, 0, 0, 0, 0, 0], qb.DataError),
        ([1, 0, 0, 0, 0, 1], qb.DataError),    # anti-self-dual half is 0
        ([1, 0, 0, 0, 0, -1], qb.DataError),   # self-dual half is 0
        ([0, 1, 0, 0, 0, 0], qb.TiltError),    # tau_12 = 0: no graph
        ([-1, 0, 0, 0, 0, 0], qb.TiltError),   # tau_12 < 0
        ([1, 0.6, 0, 0, 0, 0], qb.TiltError),  # tilt 0.6 > TILT_MAX
    ], ids=["zero", "self_dual", "anti_self_dual", "vertical", "reversed",
            "steep"])
    def test_refusals(self, small_grid, monkeypatch, S1, error):
        f = flat_sheets(small_grid, 1)
        monkeypatch.setattr(qb.excess, "_moments_up_to",
                            lambda f, r: (1.0, np.array(S1, float)))
        with pytest.raises(error):
            qb.optimal_plane(f, 1.0)

    @given(tilt=tilts(0.49), q=st.integers(1, 3), r=st.sampled_from(
        [1.0, 0.5, 0.125]), offsets=st.lists(st.tuples(
            st.floats(-2, 2), st.floats(-2, 2)), min_size=3, max_size=3))
    def test_flat_sheets_recover_their_tilt(self, small_grid, tilt, q, r,
                                            offsets):
        f = flat_sheets(small_grid, q, tilt=tilt, offsets=offsets[:q])
        res = qb.optimal_plane(f, r)
        assert np.abs(res["plane"].tilt - tilt).max() < 1e-10
        assert abs(res["excess"]) < 1e-12

    @given(S1=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
           tilt=tilts(qb.excess.TILT_MAX))
    def test_closed_form_pairing_bounds_every_graph_plane(self, S1, tilt):
        S1 = np.array(S1)
        plus, minus = hodge_halves(S1)
        bound = (np.linalg.norm(plus) + np.linalg.norm(minus)) / np.sqrt(2)
        assert _plucker_of_tilt(tilt) @ S1 <= bound + 1e-12 * max(bound, 1)

    @given(planes=st.lists(tilts(0.3), min_size=1, max_size=4),
           weights=st.lists(st.floats(0.1, 1), min_size=4, max_size=4))
    def test_optimal_plane_attains_the_closed_form_maximum(
            self, small_grid, planes, weights):
        # S1 as the moments of a few weighted graph planes
        S1 = sum(w * _plucker(A[:, 0], A[:, 1])
                 for w, A in zip(weights, planes))
        plus, minus = hodge_halves(S1)
        bound = (np.linalg.norm(plus) + np.linalg.norm(minus)) / np.sqrt(2)
        with mock.patch.object(qb.excess, "_moments_up_to",
                               lambda f, r: (bound, S1)):
            res = qb.optimal_plane(flat_sheets(small_grid, 1), 1.0)
        attained = _plucker_of_tilt(res["plane"].tilt) @ S1
        assert attained == pytest.approx(bound, rel=1e-12)
        assert abs(res["excess"]) < 1e-12 * bound


class TestAreaMoments:
    """All excess entry points read one cached table of ring profiles."""

    @staticmethod
    def direct_mean_tilt(f, r):
        """Window weights over [r_min, r] plus the power-law core below,
        on the Jacobians rotated here out of the polar gradients."""
        from conftest import whole_gradients
        du_dr, du_dth = whole_gradients(f)
        c = np.cos(f.grid.angles)[None, None, :, None]
        s = np.sin(f.grid.angles)[None, None, :, None]
        Jc = np.stack([du_dr * c - du_dth * s, du_dr * s + du_dth * c],
                      axis=-1)
        prof = 2 * np.pi * np.mean(np.mean(Jc, axis=0), axis=1)  # (R, n, 2)
        rule = f.rule()
        w = rule.weights(f.grid.t[0], np.log(r), 2.0)
        total = np.einsum("r,rnc->nc", w, prof) + rule.inner_core(prof, 2.0)
        return total / (np.pi * r ** 2)

    @staticmethod
    def rotated_plucker_table(f):
        """The (R, 7) area table as a stack of Pluecker vectors p: the
        Jacobian columns a = Df e1, b = Df e2 rotated out of the polar
        gradients, s0 = 2 pi <|p|> and s1 = 2 pi <p> per sheet, summed."""
        from conftest import whole_gradients
        du_dr, du_dth = whole_gradients(f)
        c = np.cos(f.grid.angles)[None, None, :, None]
        s = np.sin(f.grid.angles)[None, None, :, None]
        p = _plucker(du_dr * c - du_dth * s, du_dr * s + du_dth * c)
        area = np.sqrt(np.einsum("krtc,krtc->krt", p, p))
        table = np.concatenate(
            [np.mean(area, axis=-1)[..., None], np.mean(p, axis=2)], axis=-1)
        return (2 * np.pi * table).sum(axis=0)

    def test_table_is_the_rotated_plucker_table(self, curve_cache,
                                                full_grid):
        # a tilt with four distinct entries plus a non-holomorphic term, so
        # that the linear entries (b1, b2, -a1, -a2) are O(1) and distinct
        f = curve_cache(3, 4)
        x, y = full_grid.nodes_xy()
        values = f.values.copy()
        values[..., 0] += 0.2 * x + 0.1 * y + 0.3 * (x * x + y * y)
        values[..., 1] += -0.15 * x + 0.25 * y + 0.2 * x * y
        maps = [curve_cache(2, 3), curve_cache(2, 5, (0, 0, 0.3)),
                f.replace_values(values)]
        got = np.stack([qb.curves._area_moments(g)[0] for g in maps])
        want = np.stack([self.rotated_plucker_table(g) for g in maps])
        scale = np.abs(want).max(axis=(0, 1))
        assert scale[2:6].min() > 0.1  # the table columns of p_1 .. p_4
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_fresh_build_peaks_at_two_and_a_half_gradients(self, full_grid):
        # q^2 is formed per node one sheet at a time: the build never holds
        # a per-node stack of the six Pluecker entries
        f = qb.make_multigraph(qb.CurveSpec(4, 5), full_grid)
        f.rule()
        tracemalloc.start()
        try:
            qb.curves._area_moments(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * f.values.nbytes  # a gradient's size

    def test_mean_tilt_is_the_area_average_of_the_jacobians(
            self, small_grid, curve_cache):
        A = np.array([[0.3, 0.1], [-0.2, 0.25]])
        tilted = flat_sheets(small_grid, 2, tilt=A, offsets=[(0, 0), (1, 0)])
        perturbed = curve_cache(3, 5, (0, 0, 0, 0.3 + 0.2j))
        for f in (tilted, perturbed):
            for r in (1.0, 0.25, 2.0 ** -5):
                got = qb.mean_tilt(f, r)
                assert np.abs(got - self.direct_mean_tilt(f, r)).max() < 1e-14
        # with the core below r_min the tilt of affine sheets is exact; the
        # disk r < 2^-6 alone is a share (2^-6 / r)^2 of B_r
        for r in (1.0, 0.25, 2.0 ** -5):
            assert np.abs(qb.mean_tilt(tilted, r) - A).max() < 1e-12
        # a holomorphic perturbation has zero mean Jacobian on centered disks
        assert np.abs(qb.mean_tilt(perturbed, 0.25)).max() < 1e-6

    def test_one_gradient_pass_serves_every_entry_point(self, small_grid,
                                                       monkeypatch):
        calls, tables = [], []
        original = qb.QFunction.gradients
        monkeypatch.setattr(qb.QFunction, "gradients",
                            lambda f, *a: calls.append(1) or original(f, *a))
        cumulative = RadialRule.cumulative
        monkeypatch.setattr(RadialRule, "cumulative", lambda rule, F, beta:
                            tables.append(1) or cumulative(rule, F, beta))
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        radii = [2.0 ** -k for k in range(5, 0, -1)]
        for _ in range(2):
            for r in radii:
                qb.optimal_plane(f, r)
                qb.least_excess(f, r)
                qb.graph_mass(f, r)
                qb.mean_tilt(f, r)
                qb.spherical_excess(f, r)
            qb.excess_decay_fit(f, radii)
        assert len(calls) == 1
        # every disk integral reads one cumulative table of the area
        # moments; the sweep's others are the ring tables of f and of its
        # average-free part
        assert len(tables) == 3


class TestDecayFit:
    def test_curve23_exponent(self, curve_cache):
        radii = [2.0 ** -k for k in range(8, 2, -1)]
        fit = qb.excess_decay_fit(curve_cache(2, 3), radii)
        assert fit["exponent"] == pytest.approx(1.0, abs=0.1)
        assert fit["r2"] > 0.999

    def test_curve34_exponent(self, curve_cache):
        radii = [2.0 ** -k for k in range(8, 2, -1)]
        fit = qb.excess_decay_fit(curve_cache(3, 4), radii)
        assert fit["exponent"] == pytest.approx(2.0 / 3.0, abs=0.1)

    def test_flat_input_is_data_error(self, small_grid):
        f = flat_sheets(small_grid, 2, offsets=[(0, 0), (1, 0)])
        with pytest.raises(qb.DataError):
            qb.excess_decay_fit(f, [2.0 ** -k for k in range(5, 0, -1)])

    def test_needs_two_octaves(self, curve_cache):
        with pytest.raises(qb.DataError):
            qb.excess_decay_fit(curve_cache(2, 3),
                                [0.3, 0.35, 0.4, 0.45, 0.5])

    def test_steep_radii_are_dropped(self, curve_cache):
        # on (2, 3) the optimal plane turns vertical beyond r = 2/3
        f = curve_cache(2, 3)
        radii = [2.0 ** -k for k in range(8, -1, -1)]
        fit = qb.excess_decay_fit(f, radii)
        assert fit["dropped"] == [
            [1.0, "the optimal plane is not a graph over the base"]]
        assert [rec.r for rec in fit["records"]] == radii[:-1]
        assert fit["exponent"] == pytest.approx(1.0, abs=0.1)
        assert "dropped" not in qb.excess_decay_fit(f, radii[:-1])

    def test_window_rule_applies_to_the_radii_left(self, curve_cache):
        with pytest.raises(qb.DataError, match="dropped"):
            qb.excess_decay_fit(curve_cache(2, 3),
                                [0.125, 0.25, 0.5, 0.7, 0.8, 1.0])

    def test_two_sided_decay_bound(self, curve_cache):
        # E(r) >= (r/s)^gamma E(s) for r < s < 1/4, gamma = 2(p/q - 1) + 0.1
        for (q, p) in [(2, 3), (3, 4)]:
            f = curve_cache(q, p)
            gamma = 2 * (p / q - 1) + 0.1
            radii = [2.0 ** -k for k in range(9, 2, -1)]
            ex = {r: qb.spherical_excess(f, r).excess for r in radii}
            below = [r for r in radii if r < 0.25]
            for i, r in enumerate(below):
                for s in below[i + 1:]:
                    assert ex[r] >= (r / s) ** gamma * ex[s]

    def test_csv_export(self, curve_cache):
        radii = [2.0 ** -k for k in range(6, 2, -1)]
        recs = [qb.spherical_excess(curve_cache(2, 3), r) for r in radii]
        text = qb.excess_table_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == "r,excess,exponent_window,mass,tilt_norm,definition"
        assert len(lines) == len(radii) + 1
        # interior local slopes reproduce the decay exponent
        mid = lines[2].split(",")
        assert float(mid[2]) == pytest.approx(1.0, abs=0.05)
