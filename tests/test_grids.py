"""The stencil-weight generator behind every interpolation, derivative and
quadrature weight: each use is exact where its docstring says so."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import qbranch as qb
from qbranch.curves import _ring_data
from qbranch import grids
from qbranch.grids import (RadialRule, _cell_interpolant, _moments,
                           _stencil_weights, d_dr_geometric,
                           d_dtheta_periodic)


def whole(blocks):
    """A derivative kernel's ring blocks, concatenated along the rings."""
    return np.concatenate([*blocks], axis=1)


@pytest.fixture(scope="module")
def grid():
    return qb.default_grid(r_min=2.0 ** -6, n_theta=64)


def test_stencil_weights_solve_the_moment_conditions(rng):
    offsets = rng.normal(size=6)
    rhs = rng.normal(size=6)
    w = _stencil_weights(offsets, rhs)
    moments = [w @ offsets ** a for a in range(6)]
    assert np.allclose(moments, rhs, rtol=1e-10, atol=1e-10)


def test_cell_interpolant_reproduces_quintics_in_t(grid, rng):
    t = grid.t
    c = rng.normal(size=6)

    def quintic(x):
        return np.polynomial.polynomial.polyval(x, c)

    scale = np.abs(quintic(t)).max()
    # off-ring targets across the whole grid, both ends included
    targets = np.concatenate([np.linspace(t[0], t[-1], 97), t])
    for ts in targets:
        j0, w = _cell_interpolant(grid, ts)
        assert 0 <= j0 <= t.size - 6 and w.size == 6
        assert abs(w @ quintic(t[j0:j0 + 6]) - quintic(ts)) <= 1e-13 * scale


@pytest.mark.parametrize("degree", range(7))
def test_d_dr_geometric_exact_through_degree_six(grid, degree):
    r = grid.radii
    values = np.broadcast_to(r[None, :, None, None] ** degree,
                             (2, r.size, 3, 2))
    exact = degree * r ** (degree - 1) if degree else np.zeros_like(r)
    got = whole(d_dr_geometric(values, r))
    # every row, the three one-sided rows at each end included
    err = np.abs(got - exact[None, :, None, None])
    assert err.max() <= 1e-12 * max(1.0, np.abs(exact).max())


def _d_dr_row_by_row(values, radii):
    """The radial derivative along axis 1 written out pattern by pattern:
    one np.vander matrix and one solve per weight pattern, interior rows
    accumulated out of place."""
    v = np.moveaxis(values, 1, 0)
    n, k = v.shape[0], 7
    half = k // 2
    g = float(radii[1] / radii[0])
    inv_r = 1.0 / radii

    def weights(centre):
        offsets = g ** (np.arange(k, dtype=float) - centre) - 1.0
        return np.linalg.solve(np.vander(offsets, k, increasing=True).T,
                               np.eye(k)[1])

    out = np.empty_like(v)
    w = weights(half)
    acc = w[0] * v[0:n - k + 1]
    for j in range(1, k):
        acc = acc + w[j] * v[j:n - k + 1 + j]
    out[half:n - half] = acc * inv_r[half:n - half, None, None, None]
    for row in range(half):
        out[row] = np.tensordot(weights(row), v[:k], axes=(0, 0)) \
            * inv_r[row]
        out[n - 1 - row] = np.tensordot(weights(k - 1 - row), v[n - k:],
                                        axes=(0, 0)) * inv_r[n - 1 - row]
    return np.moveaxis(out, 0, 1)


@pytest.mark.parametrize("rings", [slice(None), slice(-7, None)],
                         ids=["default_grid", "seven_rings"])
def test_d_dr_geometric_is_the_row_by_row_stencil(curve_cache, rings):
    """One batched solve and in-place accumulation change no bit."""
    f = curve_cache(2, 5, (0, 0, 1))
    values, radii = f.values[:, rings], f.grid.radii[rings]
    assert np.array_equal(whole(d_dr_geometric(values, radii)),
                          _d_dr_row_by_row(values, radii))


@given(g=st.floats(2.0 ** (1 / 32), 2.0 ** 0.5), n=st.integers(7, 40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_d_dr_geometric_is_the_row_by_row_stencil_at_any_ratio(g, n, seed):
    radii = 2.0 ** -5 * g ** np.arange(n)
    values = np.random.default_rng(seed).normal(size=(2, n, 5, 2))
    assert np.array_equal(whole(d_dr_geometric(values, radii)),
                          _d_dr_row_by_row(values, radii))


@pytest.mark.parametrize("shape, monodromy", [
    ((2, 129, 64, 2), [1, 0]),          # n = 2, three blocks of 64 rings
    ((3, 40, 64, 3), [1, 2, 0]),        # n = 3, a three-cycle
    ((4, 50, 65, 2), [1, 0, 3, 2]),     # two two-cycles, odd n_theta
    ((2, 9, 64, 2), [0, 1])],           # fewer rings than a block
    ids=["n2", "n3", "two_cycles_odd_T", "one_block"])
@pytest.mark.parametrize("block", [None, 1], ids=["default", "ring"])
def test_blocked_kernels_are_the_one_block_kernels(shape, monodromy, block,
                                                   monkeypatch):
    """Ring blocks change no bit: a block of one ring, the default block
    and one block over every ring give the same derivatives."""
    values = np.random.default_rng(7).normal(size=shape)
    radii = 2.0 ** (np.arange(shape[1]) / 8.0 - 5.0)
    monodromy = np.array(monodromy)
    if block is not None:
        monkeypatch.setattr(grids, "_BLOCK_BYTES", block)
    got = (whole(d_dr_geometric(values, radii)),
           whole(d_dtheta_periodic(values, monodromy)))
    monkeypatch.setattr(grids, "_BLOCK_BYTES", 1 << 60)
    ref = (whole(d_dr_geometric(values, radii)),
           whole(d_dtheta_periodic(values, monodromy)))
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_grid_takes_its_logarithms_once():
    radii = 2.0 ** np.arange(-10.0, 1.0)
    g = qb.PolarGrid(radii=radii, n_theta=64)
    radii[0] = 0.0  # the grid holds its own copy
    assert g.r_min == 2.0 ** -10 and g.t is g.t
    assert np.array_equal(g.t, np.log(g.radii))
    assert g.dt == float(np.log(g.radii[1] / g.radii[0]))
    assert not (g.radii.flags.writeable or g.t.flags.writeable)


def test_d_dr_geometric_solves_once_per_call(grid, monkeypatch):
    # the weights are not cached across calls: a traced run counts a solve
    # for every differentiation
    solve, shapes = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(a.shape) or solve(a, b))
    values = np.ones((2, grid.n_rings, 3, 2))
    for _ in range(2):
        whole(d_dr_geometric(values, grid.radii))
    assert shapes == [(7, 7, 7)] * 2


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


def test_gauss_table_is_leggauss_bit_for_bit():
    # the library commits the table so that it never imports
    # numpy.polynomial; this test may
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert grids._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert grids._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


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


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
def test_cumulative_reads_match_the_bottom_windows(grid, beta):
    """int_{t_min}^{t} of a map's ring profiles read off their cumulative
    table, at every ring and between rings, all ends in one call, is the
    bottom-anchored window's integral."""
    f = qb.make_multigraph(qb.CurveSpec(3, 4), grid)
    F = _ring_data(f)[0]
    rule = f.rule()
    cum = rule.cumulative(F, beta)
    t = grid.t
    ends = np.concatenate([t[1:], t[:-1] + 0.37 * grid.dt]).tolist()
    got = rule._from_bottom(cum, F, ends, beta)
    assert got.shape == (len(ends), F.shape[1])
    for t_b, row in zip(ends, got):
        ref = rule.weights(t[0], t_b, beta) @ F
        assert np.all(np.abs(row - ref) <= 1e-13 * np.abs(ref)), t_b


STACKED_POWERS = np.array([0.0, 0.5, 1.0])


@pytest.mark.parametrize("power,rel", [(0.0, 1e-13), (0.5, 1e-9),
                                       (1.0, 1e-8), (STACKED_POWERS, 1e-8)])
def test_disk_integral_matches_power_law_closed_form(grid, power, rel):
    """int_0^r s^p s ds = r^(p+2) / (p+2), including the core below r_min.
    Constants are integrated exactly; other powers carry the quintic rule's
    (p dt)^6 error, far below the core's share (r_min/r)^(p+2).  A stacked
    (R, 3) profile gives each column, and an array of radii each radius,
    bit for bit what a lone call gives."""
    rule = RadialRule(grid)
    F = np.power.outer(grid.radii, power)
    for r in (grid.r_max, 0.3, float(grid.radii[20])):
        exact = r ** (power + 2) / (power + 2)
        core = rule.inner_core(F, 2.0)
        assert np.all(core > 100 * rel * exact)
        got = rule._disk_integral(rule.disk_table(F), r)
        assert got == pytest.approx(exact, rel=rel)
        if F.ndim == 2:
            assert np.array_equal(got, [
                rule._disk_integral(rule.disk_table(F[:, j]), r)
                for j in range(F.shape[1])])
    # an array of radii, on rings and between them, gives each radius's
    # lone result bit for bit
    radii = np.array([grid.r_max, 0.3, float(grid.radii[20]), 0.3])
    table = rule.disk_table(F)
    assert np.array_equal(rule._disk_integral(table, radii),
                          [rule._disk_integral(table, r) for r in radii])


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


def _power_sum(grid, terms):
    """sum_k a_k (r / r_0)^{lambda_k} over terms (lambda_k, a_k) at grid's
    rings, with the 25-ring window [r_0, 8 r_0], r_0 = grid.radii[8]."""
    lo = float(grid.radii[8])
    return sum(a * (grid.radii / lo) ** lam for lam, a in terms), lo, 8 * lo


@given(terms=st.lists(st.tuples(st.floats(2.0, 6.0), st.floats(0.1, 10.0)),
                      min_size=1, max_size=3).filter(
    lambda terms: all(abs(x[0] - y[0]) >= 0.1
                      for i, x in enumerate(terms) for y in terms[:i])))
def test_spectrum_recovers_a_sum_of_powers(grid, terms):
    # on 25 rings at 8 per octave the leading exponent comes back within
    # 1e-9 of random sets and 1.5e-7 of the worst corner (three exponents
    # 0.1 apart at the top of [2, 6], the least amplitude the leading one)
    F, lo, hi = _power_sum(grid, terms)
    spec = RadialRule(grid).spectrum(F, lo, hi)
    assert spec.exponents.size == len(terms)
    assert not np.any(spec.exponents.imag)
    assert abs(spec.leading().real - min(lam for lam, _ in terms)) <= 1e-6
    assert spec.residual <= 1e-10
    assert spec.r0 == lo


def test_spectrum_finds_a_log_periodic_factor(grid):
    # r^3 (1 + 0.1 sin(2 pi log2 r)) is r^3 plus the pair r^(3 +- i w),
    # w = 2 pi / ln 2
    F, lo, hi = _power_sum(grid, [(3.0, 1.0)])
    F = F * (1.0 + 0.1 * np.sin(2 * np.pi * np.log2(grid.radii)))
    spec = RadialRule(grid).spectrum(F, lo, hi)
    # sin vanishes at r_0 = 2^-5, so the pair's amplitudes are -+0.1 / 2i
    w = 2 * np.pi / math.log(2)
    order = np.argsort(spec.exponents.imag)
    assert np.allclose(spec.exponents[order], [3 - 1j * w, 3, 3 + 1j * w],
                       rtol=0, atol=1e-8)
    assert np.allclose(spec.amplitudes[order], [0.05j, 1, -0.05j], rtol=0,
                       atol=1e-8)


def test_spectrum_floor_follows_the_noise(grid):
    # noise of 1e-8 lifts the least singular values over SPECTRUM_FLOOR;
    # the floor stands 100 times above their median, so the two terms
    # stay the order, and samples of pure noise have no spectrum
    F, lo, hi = _power_sum(grid, [(2.0, 1.0), (2.5, 0.5)])
    F = F * (1 + 1e-8 * np.random.default_rng(2).standard_normal(F.shape))
    spec = RadialRule(grid).spectrum(F, lo, hi)
    s = spec.singular_values
    assert spec.floor == 100 * s[s.size // 2] > grids.SPECTRUM_FLOOR
    assert spec.exponents.size == 2 and not np.any(spec.exponents.imag)
    assert abs(spec.leading().real - 2.0) <= 1e-6
    assert spec.residual <= spec.floor
    with pytest.raises(qb.DataError, match="no singular value above"):
        RadialRule(grid).spectrum(
            1 + np.random.default_rng(3).random(grid.n_rings), lo, hi)


def test_spectrum_refusals(grid):
    rule = RadialRule(grid)
    F, lo, _ = _power_sum(grid, [(2.0, 1.0)])
    with pytest.raises(qb.DataError, match="at least 8 rings.* on 7 rings"):
        rule.spectrum(F, lo, lo * 2 ** (6 / 8))
    F[8] = 0.0
    with pytest.raises(qb.DataError, match=r"nonzero first .* \[0\.\] on 25"):
        rule.spectrum(F, lo, 8 * lo)


def test_spectrum_refuses_a_zero_eigenvalue():
    # a profile that vanishes after its first ring has the shift 0, whose
    # logarithm would be the exponent -inf
    grid = qb.default_grid()
    F = np.zeros(grid.n_rings)
    F[8] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qb.DataError, match="zero eigenvalue"):
            RadialRule(grid).spectrum(F, grid.radii[8], grid.radii[32])


def test_disk_integral_refuses_radii_off_the_grid(grid):
    rule = RadialRule(grid)
    with pytest.raises(qb.RangeError):
        rule._disk_integral(rule.disk_table(np.ones(grid.n_rings)),
                            2.0 * grid.r_max)


def test_default_grid_counts_octaves_past_the_float_range():
    # r_max / r_min overflows here; the octave count does not
    grid = qb.default_grid(r_min=2.0 ** -1074, rings_per_octave=1)
    assert grid.n_rings == 1075 and grid.r_min == 2.0 ** -1074


@pytest.mark.parametrize("radii, n_theta, message", [
    (2.0 ** -np.arange(7.0)[::-1], 64, "at least 8 radii"),
    (2.0 ** -np.arange(9.0), 64, "strictly increasing"),
    (2.0 ** -np.arange(9.0)[::-1], 32, "n_theta must be at least 64"),
])
def test_polar_grid_refusals(radii, n_theta, message):
    with pytest.raises(qb.ConfigError, match=message):
        qb.PolarGrid(radii=radii, n_theta=n_theta)


def test_default_grid_refuses_a_part_octave_range():
    with pytest.raises(qb.ConfigError, match="whole number of octaves"):
        qb.default_grid(r_min=2.0 ** -6.3)


def test_weights_refuse_a_range_outside_the_grid(grid):
    rule = RadialRule(grid)
    with pytest.raises(qb.RangeError, match="outside grid"):
        rule.weights(grid.t[0] - 1.0, grid.t[-1], 2.0)
