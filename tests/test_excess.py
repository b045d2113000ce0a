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

import numpy as np
import pytest
from scipy.integrate import quad

import qbranch as qb


def oracle_curve_excess(q, p, r):
    """Independent oracle: (1/(pi r^2)) int_{B_r} sum_i |w_i'|^2 with
    |w_i'| = (p/q) |z|^(p/q - 1)."""
    alpha = p / q
    integrand = lambda s: q * alpha ** 2 * s ** (2 * alpha - 2) * 2 * np.pi * s
    return quad(integrand, 0, r)[0] / (np.pi * r ** 2)


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

    def test_tilting_away_increases_excess(self, curve_cache):
        f = curve_cache(2, 3)
        base = qb.spherical_excess(f, 0.25).excess
        for eps in (0.05, 0.1, 0.2):
            for direction in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
                rec = qb.spherical_excess(f, 0.25, qb.Plane(eps * direction))
                assert rec.excess > base

    def test_ball_variant_converges_to_cylindrical(self, curve_cache):
        # the ball loses the rim annulus of relative width |f|^2/(2 r^2),
        # which for this curve costs a factor 1 - 3r/2 of the excess to
        # leading order; the two definitions agree as r -> 0
        f = curve_cache(2, 3)
        ratios = []
        for r in (2.0 ** -2, 2.0 ** -4, 2.0 ** -6):
            cyl = qb.spherical_excess(f, r, definition="cylindrical").excess
            ball = qb.spherical_excess(f, r,
                                       definition="spherical_ball").excess
            ratios.append(ball / cyl)
            if r <= 2.0 ** -4:  # leading order needs r small
                assert ball / cyl == pytest.approx(1.0 - 1.5 * r, abs=0.02)
        assert ratios == sorted(ratios)

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


class TestAreaMoments:
    """All excess entry points read one cached table of ring profiles."""

    @staticmethod
    def direct_mean_tilt(f, r):
        Jc = f.cartesian_gradients()
        prof = 2 * np.pi * np.mean(np.mean(Jc, axis=0), axis=1)  # (R, n, 2)
        w = f.rule().weights(f.grid.t[0], np.log(r), 2.0)
        return np.einsum("r,rnc->nc", w, prof) / (np.pi * r ** 2)

    def test_mean_tilt_is_the_area_average_of_the_jacobians(
            self, small_grid, curve_cache):
        A = np.array([[0.3, 0.1], [-0.2, 0.25]])
        tilted = flat_sheets(small_grid, 2, tilt=A, offsets=[(0, 0), (1, 0)])
        perturbed = curve_cache(3, 5, (0, 0, 0, 0.3 + 0.2j))
        for f in (tilted, perturbed):
            for r in (1.0, 0.25, 2.0 ** -5):
                got = qb.mean_tilt(f, r)
                assert np.abs(got - self.direct_mean_tilt(f, r)).max() < 1e-14
        assert np.abs(qb.mean_tilt(tilted, 1.0) - A).max() < 1e-3
        # a holomorphic perturbation has zero mean Jacobian on centered disks
        assert np.abs(qb.mean_tilt(perturbed, 0.25)).max() < 1e-6

    def test_one_gradient_pass_serves_every_entry_point(self, small_grid,
                                                       monkeypatch):
        calls = []
        original = qb.QFunction.cartesian_gradients
        monkeypatch.setattr(qb.QFunction, "cartesian_gradients",
                            lambda f: calls.append(1) or original(f))
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        radii = [2.0 ** -k for k in range(5, 0, -1)]
        for _ in range(2):
            for r in radii:
                qb.optimal_plane(f, r)
                qb.optimal_plane(f, r, "spherical_ball")
                qb.graph_mass(f, r)
                qb.mean_tilt(f, r)
                qb.spherical_excess(f, r)
            qb.excess_decay_fit(f, radii)
        assert len(calls) == 1

    @pytest.mark.parametrize("call", [
        lambda f: qb.optimal_plane(f, 0.25, "spherical-ball"),
        lambda f: qb.spherical_excess(f, 0.25, definition="ball"),
        lambda f: qb.excess_decay_fit(f, [2.0 ** -k for k in range(5, 0, -1)],
                                      definition="bogus"),
        lambda f: qb.intervals_of_flattening(
            f, cfg=qb.ScaleTrackConfig(definition="bogus")),
    ], ids=["optimal_plane", "spherical_excess", "excess_decay_fit",
            "scale_track_config"])
    def test_unknown_definition_is_refused(self, small_grid, call):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        with pytest.raises(qb.ConfigError, match="definition"):
            call(f)


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
