"""The stencil-weight generator behind every interpolation, derivative and
quadrature weight: each use is exact where its docstring says so."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import qbranch as qb
from qbranch.grids import (RadialRule, _cubic_window, _moments,
                           _stencil_weights, d_dr_geometric)


@pytest.fixture(scope="module")
def grid():
    return qb.default_grid(r_min=2.0 ** -6, n_theta=64)


def test_stencil_weights_solve_the_moment_conditions(rng):
    offsets = rng.normal(size=6)
    rhs = rng.normal(size=6)
    w = _stencil_weights(offsets, rhs)
    moments = [w @ offsets ** a for a in range(6)]
    assert np.allclose(moments, rhs, rtol=1e-10, atol=1e-10)


def test_cubic_window_reproduces_cubics_in_t(grid, rng):
    t = grid.t
    c = rng.normal(size=4)

    def cubic(x):
        return c[0] + c[1] * x + c[2] * x ** 2 + c[3] * x ** 3

    scale = np.abs(cubic(t)).max()
    # off-ring targets across the whole grid, both ends included
    targets = np.concatenate([np.linspace(t[0], t[-1], 97), t])
    for ts in targets:
        j0, w = _cubic_window(t, ts)
        assert 0 <= j0 <= t.size - 4
        assert abs(w @ cubic(t[j0:j0 + 4]) - cubic(ts)) <= 1e-13 * scale


@pytest.mark.parametrize("degree", range(7))
def test_d_dr_geometric_exact_through_degree_six(grid, degree):
    r = grid.radii
    values = np.broadcast_to(r[None, :, None, None] ** degree,
                             (2, r.size, 3, 2))
    exact = degree * r ** (degree - 1) if degree else np.zeros_like(r)
    got = d_dr_geometric(values, r, axis=1)
    # every row, the three one-sided rows at each end included
    err = np.abs(got - exact[None, :, None, None])
    assert err.max() <= 1e-12 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_radial_weights_exact_on_polynomials_times_exponential(grid, beta):
    t = grid.t
    rule = RadialRule(grid)
    windows = [(t[0] + 0.37 * grid.dt, t[-1] - 0.61 * grid.dt),
               (t[10] + 0.2 * grid.dt, t[10] + 0.7 * grid.dt)]
    for t_a, t_b in windows:
        w = rule.weights(t_a, t_b, beta)
        for k in range(6):
            exact, _ = quad(lambda x: x ** k * math.exp(beta * x), t_a, t_b,
                            epsabs=0.0, epsrel=1e-13)
            assert w @ t ** k == pytest.approx(exact, rel=1e-13)


def _per_cell_weights(grid, t_a, t_b, beta):
    """The radial rule cell by cell: one solve per cell at the stencil's
    offsets from the cell's lower ring, with adaptive-quadrature moments."""
    t = grid.t
    R, k = t.size, RadialRule.STENCIL
    w = np.zeros(R)
    for i in range(R - 1):
        lo, hi = max(t_a, t[i]), min(t_b, t[i + 1])
        if hi <= lo:
            continue
        j0 = min(max(i - 2, 0), R - k)
        m = [quad(lambda x: x ** a * math.exp(beta * x), lo - t[i],
                  hi - t[i], epsabs=0.0, epsrel=1e-13)[0] for a in range(k)]
        w[j0:j0 + k] += _stencil_weights(t[j0:j0 + k] - t[i], np.array(m)) \
            * math.exp(beta * t[i])
    return w


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_radial_weights_match_the_per_cell_rule(grid, rng, beta):
    ratio15 = qb.PolarGrid(radii=1.5 ** np.arange(-11.0, 1.0), n_theta=64)
    for g in (grid, ratio15):
        t, dt = g.t, g.dt
        rule = RadialRule(g)
        # both clamped ends, a window inside one cell, and random windows
        windows = [(t[0] + 0.3 * dt, t[-1] - 0.8 * dt),
                   (t[1] + 0.6 * dt, t[-2] + 0.1 * dt),
                   (t[5] + 0.2 * dt, t[5] + 0.9 * dt)]
        windows += [tuple(np.sort(rng.uniform(t[0], t[-1], 2)))
                    for _ in range(4)]
        for t_a, t_b in windows:
            ref = _per_cell_weights(g, t_a, t_b, beta)
            got = rule.weights(t_a, t_b, beta)
            assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("beta", [0.05, 1.0, 10.0])
def test_cell_moments_hold_their_digits_on_short_cells(beta):
    a = np.array([0.0, 0.0, 0.5, 0.999, 0.0])
    b = np.array([1.0, 1e-3, 0.5 + 1e-6, 1.0, 0.3])
    got = _moments(a, b, beta, 5)
    for q in range(6):
        for j in range(a.size):
            exact, _ = quad(lambda x: x ** q * math.exp(beta * x), a[j], b[j],
                            epsabs=0.0, epsrel=1e-13)
            assert got[q, j] == pytest.approx(exact, rel=1e-12)


STACKED_POWERS = np.array([0.0, 0.5, 1.0])


@pytest.mark.parametrize("power,rel", [(0.0, 1e-13), (0.5, 1e-9),
                                       (1.0, 1e-8), (STACKED_POWERS, 1e-8)])
def test_disk_integral_matches_power_law_closed_form(grid, power, rel):
    """int_0^r s^p s ds = r^(p+2) / (p+2), including the core below r_min.
    Constants are integrated exactly; other powers carry the quintic rule's
    (p dt)^6 error, far below the core's share (r_min/r)^(p+2).  A stacked
    (R, 3) profile gives each column bit for bit what a lone call gives."""
    rule = RadialRule(grid)
    F = np.power.outer(grid.radii, power)
    for r in (grid.r_max, 0.3, float(grid.radii[20])):
        exact = r ** (power + 2) / (power + 2)
        core = rule.inner_core(F, 2.0)
        assert np.all(core > 100 * rel * exact)
        got = rule._disk_integral(F, r)
        assert got == pytest.approx(exact, rel=rel)
        if F.ndim == 2:
            assert np.array_equal(got, [rule._disk_integral(F[:, j], r)
                                        for j in range(F.shape[1])])


def test_stacked_inner_core_takes_every_branch_per_column(grid):
    """Columns with a fitted power, opposite signs at the two inner rings,
    a zero first ring and a power too steep for a finite core each get the
    scalar answer, bit for bit."""
    r = grid.radii
    F = np.stack([3.0 * r ** 0.7, -2.0 * r, np.where(r > r[0], 1.0, -1.0),
                  np.where(r > r[0], 1.0, 0.0), r ** -2.5, np.zeros_like(r)],
                 axis=1)
    stacked = RadialRule(grid).inner_core(F, 2.0)
    lone = [RadialRule(grid).inner_core(F[:, j], 2.0)
            for j in range(F.shape[1])]
    assert np.array_equal(stacked, lone)
    assert stacked[1] < 0 < stacked[0]
    assert stacked[2] == -r[0] ** 2 / 2.0  # constant extension
    assert stacked[3] == stacked[4] == stacked[5] == 0.0


def test_disk_integral_refuses_radii_off_the_grid(grid):
    rule = RadialRule(grid)
    with pytest.raises(qb.RangeError):
        rule._disk_integral(np.ones(grid.n_rings), 2.0 * grid.r_max)
