"""Polar grids and the numerical kernels tied to them.

A grid is geometric in radius (uniform in t = log r) and uniform in angle.
Interpolation, differentiation and quadrature weights all come from one
generator, _stencil_weights, which solves the moment conditions of a stencil
(B. Fornberg, Math. Comp. 51 (1988) 699-706).

All radial quadrature goes through moment-matched weights: on each cell the
integrand is interpolated by the quintic through the six surrounding rings
and integrated against the exact measure r^{beta-1} dr = e^{beta t} dt.
The rule is exact for ring profiles polynomial in t (constants above all)
and accepts arbitrary off-ring integration endpoints, which is how the
kinks of piecewise cutoffs are kept out of the quadrature cells; a ring
profile read between rings is that cell quintic too.  In units of dt every
cell's stencil sits at whole-number offsets from its lower ring, so five
inverse Vandermonde patterns, solved once per process, serve every cell of
every grid: a cell's weights are its pattern applied to the moments of
e^{beta dt u} over the covered part of the cell, times dt e^{beta t_i}.
The moments are a 16-node Gauss-Legendre rule whose nodes and weights are
a committed table, numpy's leggauss(16) bit for bit.

So a window of cells is fixed, up to the factor e^{beta t_i0} of its first
ring, by dt, beta, its cell count, where its stencils clamp at the grid's
ends and its fractional end offsets.  One process-wide cache, _window,
holds windows under exactly that key, each computed from its key alone and
scaled by e^{beta t_i0} when read: every grid of the same dt shares them,
and no result depends on what ran before.  Integrals from the bottom ring
read a cumulative table of cell integrals instead (RadialRule.cumulative),
plus one partial-cell window when the end is off-ring.  A map keeps its
stacked ring profiles with their cumulative table and inner core as one
table, built by RadialRule.disk_table (the frequency profiles and the area
moments alike), and every disk integral reads such a table.

The rings are uniform in t, so a ring profile that is a sum of powers of r
is an exponential sum sampled at equal steps.  pencil reads the
exponents of such samples by the matrix pencil, one SVD of their Hankel
matrix and the eigenvalues of its shifted signal subspace, with no
derivative and no quadrature: it is the package's one exponent reader.
RadialRule.spectrum is the pencil of a ring profile's slice over a
window, from which the singularity degree takes its value, and the
frequency limit reads the pencil of its records' heights.

A blow-up of a map lives on the map's rings relabelled (radii divided by
the dilation ratio), a grid with the same dt, so a window at the same
place below the top ring is one cached window for the map and all its
blow-ups.  A degree estimate reads its steps off the map's own table, so
no blow-up of it builds one.

Radial derivatives use 7-point weights built in the radius variable, exact
for polynomials in r through degree 6; low-order stencils in log r bias
the frequency of an alpha-homogeneous map by (alpha*dt)^2/6 at second
order, well above the accuracy this library promises, and any stencil in
log r puts a boundary bias on affine sheets.  Their seven weight patterns
come from one batched solve per call, uncached so that a traced run's
solve count still sees every differentiation.  Angular derivatives are
spectral on the monodromy covering circle.  Both kernels return an
iterator over blocks of rings of _BLOCK_BYTES (_ring_blocks), never a
whole derivative: a block stays in cache through all their passes and
through QFunction.gradients' reduction of it to ring tables.  Every ring
is its own stencil row and its own transform, so the blocks change no
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, RangeError
from .qvalue import _cycles

TWO_PI = 2.0 * np.pi

M_DIM = 2  # base dimension of every graph in this laboratory


@dataclass(frozen=True)
class PolarGrid:
    """Sampling grid for maps on a punctured disk.

    radii are strictly increasing and geometric, angles are the uniform
    subdivision of [0, 2pi).  center is the base point in the plane.
    """

    radii: np.ndarray
    n_theta: int
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        # a private read-only copy, so t and dt are taken from it once
        r = np.array(self.radii, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise ConfigError("grid needs at least 8 radii")
        if np.any(np.diff(r) <= 0):
            raise ConfigError("radii must be strictly increasing")
        t = np.log(r)
        dt = np.diff(t)
        # np.allclose(dt, dt[0], rtol=1e-10, atol=1e-14) without its dispatch
        if not np.all(np.abs(dt - dt[0]) <= 1e-14 + 1e-10 * abs(dt[0])):
            raise ConfigError("radii must form a geometric sequence")
        if self.n_theta < 64:
            raise ConfigError("n_theta must be at least 64")
        r.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "_t", t)
        object.__setattr__(self, "_dt", float(np.log(r[1] / r[0])))

    @property
    def n_rings(self) -> int:
        return self.radii.size

    @property
    def t(self) -> np.ndarray:
        return self._t

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def rho(self) -> float:
        """Ratio between consecutive radii, in (0, 1)."""
        return float(self.radii[0] / self.radii[1])

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.n_theta) * (TWO_PI / self.n_theta)

    @property
    def d_theta(self) -> float:
        return TWO_PI / self.n_theta

    @property
    def r_min(self) -> float:
        return float(self.radii[0])

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    def require_radius(self, r: float):
        if not (self.r_min <= r <= self.r_max * (1.0 + 1e-12)):
            raise RangeError(
                f"radius {r!r} outside grid range [{self.r_min}, {self.r_max}]"
            )

    def nodes_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian node coordinates, shape (R, T) each, relative to center."""
        th = self.angles
        x = np.outer(self.radii, np.cos(th))
        y = np.outer(self.radii, np.sin(th))
        return x, y


def default_grid(r_min: float = 2.0 ** -16, r_max: float = 1.0,
                 rings_per_octave: int = 8, n_theta: int = 512,
                 center=(0.0, 0.0)) -> PolarGrid:
    """Standard lab grid: 2^{-1/rpo} radius ratio, r_min..r_max inclusive."""
    if not (0 < r_min < r_max):
        raise ConfigError("need 0 < r_min < r_max")
    n_oct = np.log2(r_max) - np.log2(r_min)  # r_max / r_min may overflow
    n = int(round(n_oct * rings_per_octave))
    if abs(n - n_oct * rings_per_octave) > 1e-9:
        raise ConfigError("r_max/r_min must be a whole number of octaves")
    radii = r_max * 2.0 ** (-(n - np.arange(n + 1)) / rings_per_octave)
    return PolarGrid(radii=radii, n_theta=n_theta, center=tuple(center))


# ----------------------------------------------------------------------------
# stencil weights and ring tables


def _stencil_weights(offsets: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Weights w with sum_j w_j offsets_j^a = rhs_a for a = 0..k-1, k the
    stencil size (Fornberg's moment condition).  Every interpolation,
    differentiation and quadrature weight of the library comes from here:
    rhs = e_1 differentiates at 0, rhs = the identity gives the cell patterns
    that interpolate and integrate; each is exact below degree k.  Stacked
    offsets (..., k) are solved in one call, rhs (k, m) serving each."""
    k = offsets.shape[-1]
    V = np.ones(offsets.shape[:-1] + (k, k))  # V[..., a, j] = offs_j^a
    for a in range(1, k):  # repeated products, the powers of np.vander
        V[..., a, :] = V[..., a - 1, :] * offsets
    return np.linalg.solve(V, np.broadcast_to(rhs, V.shape[:-2] + rhs.shape))


def _ring_profile(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Angularly integrated ring profile 2 pi mean_theta sum_{k,n} a . b of
    sheet samples (Q, R, T, n), shape (R,); b defaults to a.  One batched
    dot product over the angles and components of every sheet and ring,
    summed over the sheets and scaled by 2 pi / T: no per-node array is
    formed, and the blocked dot keeps a pairwise mean's accuracy (a single
    einsum's running sum lost up to 1e-14 relative on rings of equal
    terms)."""
    b = a if b is None else b
    q, r = a.shape[:2]
    dots = a.reshape(q, r, 1, -1) @ b.reshape(q, r, -1, 1)
    return (TWO_PI / a.shape[2]) * dots.sum(axis=0)[:, 0, 0]


# ----------------------------------------------------------------------------
# radial quadrature


#: Gauss-Legendre rule of the cell moments: the integrand is entire, so 16
#: nodes reach rounding on cells of unit length for |beta dt| up to 20.
#: The 8 positive nodes and their weights, mirrored: bit for bit numpy's
#: leggauss(16), which symmetrizes its own output, without importing
#: numpy.polynomial
_GAUSS_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499])
_GAUSS_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176])
_GAUSS_NODES = np.concatenate([-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES])
_GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF_WEIGHTS[::-1],
                                 _GAUSS_HALF_WEIGHTS])


def _moments(a: np.ndarray, b: np.ndarray, beta: float,
             kmax: int) -> np.ndarray:
    """m_k = int_a^b u^k e^{beta u} du for k = 0..kmax and every pair of
    endpoints 0 <= a <= b <= 1, shape (kmax + 1,) + a.shape.  Quadrature, not
    the integration-by-parts recursion, which loses a factor k / (beta b)
    per order and so most digits on short cells or for small beta."""
    half = (b - a) / 2.0
    u = (a + b) / 2.0 + np.multiply.outer(_GAUSS_NODES, half)
    f = _GAUSS_WEIGHTS[:, None] * np.exp(beta * u) * half
    out = np.empty((kmax + 1,) + np.shape(a))
    for k in range(kmax + 1):
        out[k] = f.sum(axis=0)
        f = f * u
    return out


#: rings per interpolation window; quintic local interpolation keeps the
#: composite error at (c dt)^6 for integrands growing like e^{c t}
_STENCIL = 6
#: rings an unclamped cell stencil reaches below the cell's lower ring and
#: above its upper ring
_BELOW = _STENCIL // 2 - 1
_ABOVE = _STENCIL - _BELOW - 2

#: integration endpoints closer than this to a ring, in units of dt, are
#: taken on the ring
_ON_RING = 1e-12

#: inverse Vandermonde matrices of the cell stencils in units of dt, per
#: stencil size k: entry s serves the stencil at the integer offsets
#: -s .. k - 1 - s from the cell's lower ring (s = 2 inside, clamped at
#: the ends)
_CELL_INVERSES: dict = {}


def _cell_inverses(k: int) -> np.ndarray:
    inv = _CELL_INVERSES.get(k)
    if inv is None:
        inv = np.stack([_stencil_weights(np.arange(k, dtype=float) - s,
                                         np.eye(k)) for s in range(k - 1)])
        inv.flags.writeable = False  # shared by every rule in the process
        _CELL_INVERSES[k] = inv
    return inv


def _cell_interpolant(grid: PolarGrid, ts: float) -> tuple[int, np.ndarray]:
    """(j0, w): w @ F[j0:j0 + 6] interpolates F at ts by the quadrature's
    quintic on the cell holding ts (its pattern, clamped as in _window)."""
    t, R = grid.t, grid.n_rings
    i = min(max(math.floor((ts - t[0]) / grid.dt + _ON_RING), 0), R - 2)
    j0 = min(max(i - _BELOW, 0), R - _STENCIL)
    u = _snap((ts - t[i]) / grid.dt)
    return j0, _cell_inverses(_STENCIL)[i - j0] @ u ** np.arange(_STENCIL)


def _snap(u: float) -> float:
    """A cell offset u in units of dt, taken to the cell's ends within
    _ON_RING of them."""
    return 0.0 if u < _ON_RING else 1.0 if u > 1.0 - _ON_RING else u


@functools.lru_cache(maxsize=4096)  # bounded: off-ring ends make new keys
def _window(dt: float, beta: float, n: int, bottom: int, top: int,
            a: float, b: float) -> tuple[int, np.ndarray]:
    """Weights of int F(t) e^{beta t} dt over n consecutive cells from a
    ring i0, the first cell covered from offset a and the last up to offset
    b, in units of dt, divided by e^{beta t_i0}: (lo, w) with w weighting
    the rings i0 + lo, i0 + lo + 1, ...

    bottom = min(i0, _BELOW) and top = min(R - 1 - (i0 + n), _ABOVE) say
    where the stencils clamp at the grid's ends.  With dt, beta and the
    offsets they fix every cell: cell c covers u in [0, 1] from ring
    i0 + c, its stencil sits at whole-number offsets from that ring, and
    its weights are dt e^{beta dt c} times the inverse Vandermonde matrix
    of those offsets applied to the moments of e^{beta dt u} over the
    covered part of [0, 1].  So every grid of this dt shares the window,
    and a window depends only on its key, never on what ran before."""
    k = _STENCIL
    c = np.arange(n)
    rel = c - _BELOW  # stencil start - i0, clamped where the grid ends
    if bottom < _BELOW:
        rel = np.maximum(rel, -bottom)
    if top < _ABOVE:
        rel = np.minimum(rel, top + n + 1 - k)
    lo, hi = np.zeros(n), np.ones(n)
    lo[0], hi[-1] = a, b
    m = _moments(lo, hi, beta * dt, k - 1)
    cell = np.einsum("ijq,qi->ij", _cell_inverses(k)[c - rel], m) \
        * (dt * np.exp(beta * dt * c))[:, None]
    w = np.bincount(((rel - rel[0])[:, None] + np.arange(k)).ravel(),
                    weights=cell.ravel())
    w.flags.writeable = False  # shared by every rule in the process
    return int(rel[0]), w


#: singular values of a spectrum's Hankel matrix above this fraction of the
#: largest count toward its order, unless noise lifts the floor (see
#: pencil)
SPECTRUM_FLOOR = 1e-11
#: a spectrum fits its samples to this relative l2 misfit, or to its order
#: floor where that is more (noisy samples), when it is a sum of powers
SPECTRUM_RESIDUAL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """A ring profile over a window as an exponential sum in t = log r,
    F(r) = Re sum_k a_k (r / r0)^{lambda_k}, r0 the window's first ring:
    the exponents lambda_k (complex, sorted by real part), the amplitudes
    a_k, the Hankel matrix's singular values relative to the largest, the
    floor above which they count toward the order, the sum's relative l2
    misfit to the samples levelled as pencil levels them, and r0."""

    exponents: np.ndarray
    amplitudes: np.ndarray
    singular_values: np.ndarray
    floor: float
    residual: float
    r0: float

    def leading(self) -> complex:
        """The exponent of least real part, the one that rules as r -> 0."""
        return complex(self.exponents[0])

    def defect(self) -> str:
        """Why the sum is no sum of real powers through its samples: a
        non-real exponent, or a residual above SPECTRUM_RESIDUAL and the
        floor; "" when neither."""
        if np.any(self.exponents.imag):
            return f"non-real exponents {self.exponents.round(6).tolist()}"
        return "" if self.residual <= max(SPECTRUM_RESIDUAL, self.floor) \
            else f"residual {self.residual:.3g}"


class RadialRule:
    """Weight factory for integrals  int_{t_a}^{t_b} F(t) e^{beta t} dt
    with F known at the grid rings.  Its weights come from the process-wide
    window cache, _window."""

    STENCIL = _STENCIL

    def __init__(self, grid: PolarGrid):
        self.grid = grid

    def weights(self, t_a: float, t_b: float, beta: float) -> np.ndarray:
        t = self.grid.t
        w = np.zeros(t.size)
        if t_b <= t_a + 1e-15:
            return w
        if t_a < t[0] - 1e-9 or t_b > t[-1] + 1e-9:
            raise RangeError("integration range outside grid")
        j, seg = self._segment(t_a, t_b, beta)
        w[j:j + seg.size] = seg
        return w

    def _segment(self, t_a: float, t_b: float, beta: float):
        """(j, w): the weights of int_{t_a}^{t_b} on the rings j, j + 1, ...
        read off the window cache, for t_a < t_b inside the grid."""
        t = self.grid.t
        R = t.size
        dt = self.grid.dt
        t_a, t_b = max(t_a, t[0]), min(t_b, t[-1])
        i0 = min(math.floor((t_a - t[0]) / dt + _ON_RING), R - 2)
        i1 = math.ceil((t_b - t[0]) / dt - _ON_RING)
        i1 = max(min(i1, R - 1), i0 + 1)
        lo, w = _window(dt, float(beta), i1 - i0, min(i0, _BELOW),
                        min(R - 1 - i1, _ABOVE), _snap((t_a - t[i0]) / dt),
                        _snap((t_b - t[i1 - 1]) / dt))
        return i0 + lo, w * math.exp(beta * t[i0])

    def cumulative(self, F: np.ndarray, beta: float) -> np.ndarray:
        """int_{t_0}^{t_j} F(t) e^{beta t} dt at every ring j, shape F.shape
        (F may stack profiles as (R, ...)): the running sum of the cell
        integrals, each cell weighted by its one-cell window."""
        t = self.grid.t
        R = t.size
        F = np.asarray(F, dtype=float)
        i = np.arange(R - 1)
        bottom, top = np.minimum(i, _BELOW), np.minimum(R - 2 - i, _ABOVE)
        start = np.empty(R - 1, dtype=int)
        W = np.empty((R - 1, _STENCIL))
        for clamp in set(zip(bottom.tolist(), top.tolist())):
            cells = (bottom == clamp[0]) & (top == clamp[1])
            lo, w = _window(self.grid.dt, float(beta), 1, *clamp, 0.0, 1.0)
            start[cells], W[cells] = i[cells] + lo, w
        W *= np.exp(beta * t[:-1])[:, None]
        tail = (1,) * (F.ndim - 1)
        cell = sum(W[:, q].reshape(-1, *tail) * F[start + q]
                   for q in range(_STENCIL))
        out = np.zeros_like(F)
        np.cumsum(cell, axis=0, out=out[1:])
        return out

    def disk_table(self, F: np.ndarray) -> tuple:
        """(F, cum, core): ring profiles F, stacked as (R, ...), with their
        cumulative table and inner core at beta = 2, the table every disk
        integral reads."""
        F = np.asarray(F, dtype=float)
        return F, self.cumulative(F, 2.0), self.inner_core(F, 2.0)

    def _disk_integral(self, table: tuple, r):
        """int_{B_r} of ring profiles F carrying their angular weight, i.e.
        int_0^r F(s) s ds, with the power-law core below r_min included,
        read off F's disk_table (F, cum, core), at a radius r or an array
        of radii.  F may stack profiles as (R, ...); the result then has
        shape np.shape(r) + F.shape[1:], and each entry is summed by the
        same elementwise operations as a lone profile at a lone radius, so
        neither stacking nor batching changes a digit."""
        F, cum, core = table
        r = np.asarray(r, dtype=float)
        radii = r.ravel().tolist()
        for x in radii:
            self.grid.require_radius(x)
        total = self._from_bottom(cum, F, [math.log(x) for x in radii], 2.0)
        total = total.reshape(r.shape + F.shape[1:]) + core
        return float(total) if total.ndim == 0 else total

    def _from_bottom(self, cum: np.ndarray, F: np.ndarray, t_b: list,
                     beta: float) -> np.ndarray:
        """int_{t_0}^{t_b} F(t) e^{beta t} dt at each end of the list t_b,
        stacked, read off F's cumulative table cum: its row at the ring j
        at or below the end (clamped to the grid), plus the window
        [t_j, t_b] when the end is off that ring by _ON_RING of dt or
        more."""
        t, dt = self.grid.t, self.grid.dt
        lo, hi = float(t[0]), float(t[-1])
        below, partial = [], []
        for k, end in enumerate(t_b):
            clamped = min(max(end, lo), hi)
            j = min(math.floor((clamped - lo) / dt + _ON_RING), t.size - 1)
            below.append(j)
            if (clamped - float(t[j])) / dt >= _ON_RING:
                partial.append((k, j, end))
        out = cum[below]
        for k, j, end in partial:
            i, w = self._segment(float(t[j]), end, beta)
            out[k] = cum[j] + sum(w[q] * F[i + q] for q in range(w.size))
        return out

    def inner_core(self, F: np.ndarray, beta: float):
        """Contribution of the missing disk r < r_min, assuming F behaves
        like a power of r near the puncture (exponent fitted from the two
        inner rings; constant extension when the signs disagree).  F may
        stack profiles as (R, ...); each gets its own exponent."""
        F = np.asarray(F, dtype=float)
        f0, f1 = F[0], F[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(f0 * f1 > 0.0,
                         np.log(np.abs(f1) / np.abs(f0)) / self.grid.dt, 0.0)
            core = f0 * self.grid.r_min ** beta / (p + beta)
        core = np.where((f0 == 0.0) | (p + beta <= 0.1), 0.0, core)
        return float(core) if core.ndim == 0 else core

    def spectrum(self, F: np.ndarray, lo: float, hi: float) -> Spectrum:
        """The pencil of one ring profile F at the grid rings in [lo, hi]:
        their slice of F, the grid's dt and the first of them as r0."""
        r = self.grid.radii
        inside = (r >= lo * (1 - 1e-12)) & (r <= hi * (1 + 1e-12))
        return pencil(F[inside], self.grid.dt, float(r[inside.argmax()]))


def pencil(F: np.ndarray, dt: float, r0: float) -> Spectrum:
    """The exponential sum through samples F at r0 e^{i dt}, i = 0, 1, ...,
    by the matrix pencil (Y. Hua and T. K. Sarkar, IEEE Trans. ASSP 38
    (1990) 814-824).  The N samples over the first one, y_i, fill the
    Hankel matrix Y[i, j] = y_{i+j} with L + 1 columns, L = N // 2.  Its
    singular values above the floor, SPECTRUM_FLOOR of the largest or 100
    times the median where that is more, give the order M, at most half
    their number; the shift of the first M right singular vectors has the
    eigenvalues e^{lambda_k dt}.  The amplitudes come from least squares.
    DataError when there are fewer than 8 samples, the first vanishes, no
    singular value stands above the floor or the shift has a zero
    eigenvalue, as on samples that vanish after the first."""
    if F.size < 8 or not F[0]:
        raise DataError(f"a spectrum needs at least 8 rings and a nonzero "
                        f"first sample, got {F[:1]} on {F.size} rings")
    N, L = F.size, F.size // 2
    # e^{-c i} levels the last sample with the first and shifts every
    # exponent by -c / dt: the rows weigh alike, which keeps the least
    # kept singular values clear of the rounding of the largest
    c = math.log(abs(F[-1] / F[0])) / (N - 1) if F[-1] else 0.0
    y = F / F[0] * np.exp(-c * np.arange(N))
    _, s, Vh = np.linalg.svd(y[np.arange(N - L)[:, None] + np.arange(L + 1)])
    # noise in the samples lifts the least singular values into a plateau,
    # which holds the median while the order is below half the rank: the
    # floor stands two decades above it
    floor = max(SPECTRUM_FLOOR, 100 * s[s.size // 2] / s[0])
    V = Vh[:np.count_nonzero(s > floor * s[0])].T
    if not V.size:
        raise DataError(f"no singular value above the noise, {floor:.3g}")
    P = np.linalg.lstsq(V[:-1], V[1:], rcond=None)[0]
    z = np.linalg.eigvals(P).astype(complex)
    if not z.all():
        raise DataError("the shift has a zero eigenvalue: the profile is no "
                        "exponential sum")
    mu = np.sort_complex(np.log(z))
    # y_i = sum_k Re(a_k e^{mu_k i}), mu_k = lambda_k dt - c, with the mu_k
    # and a_k in conjugate pairs: one real system in the interleaved
    # Re a_k, Im a_k, whose least-norm solution pairs them (a complex solve
    # would page in complex LAPACK, 0.7 MB)
    A = (np.exp(mu) ** np.arange(N)[:, None]).conj().view(float)
    x = np.linalg.lstsq(A, y, rcond=None)[0]
    return Spectrum((mu + c) / dt, x.view(complex) * F[0], s / s[0], floor,
                    float(np.linalg.norm(A @ x - y) / np.linalg.norm(y)), r0)


# ----------------------------------------------------------------------------
# derivative stencils (sixth order radial, fourth order angular)


_RADIAL_WIDTH = 7

#: bytes of samples a block of rings holds: the derivative kernels, the
#: sweep of QFunction.gradients and make_multigraph's angular check keep a
#: block in cache through their passes
_BLOCK_BYTES = 1 << 18


def _ring_blocks(x: np.ndarray) -> list:
    """Ring ranges (a, b) covering the rings of sheet samples x (Q, R, ...),
    each block at most _BLOCK_BYTES of samples, or one ring."""
    step = max(_BLOCK_BYTES // max(x[:, 0].nbytes, 1), 1)
    return [(a, min(a + step, x.shape[1])) for a in range(0, x.shape[1], step)]


def d_dr_geometric(values: np.ndarray, radii: np.ndarray):
    """Radial derivative on geometric rings with 7-point weights built in
    the radius variable, so the stencil is exact for polynomials in r up to
    degree 6 (constant offsets and tilted planes in particular leave no
    boundary bias).  Because consecutive radii have a fixed ratio, one
    dimensionless weight pattern per row offset serves every ring after a
    1/r scaling; the seven patterns (interior, three rows at each end) come
    from one batched solve per call, uncached (see the module docstring).
    values are sheet samples (Q, R, ...), differentiated along the rings.
    Returns an iterator over the blocks of _ring_blocks(values), each
    block's rows read off the block and its three-ring halo; every row is
    the same operations in the same order whatever the blocks."""
    v = np.moveaxis(values, 1, 0)
    n = v.shape[0]
    k = _RADIAL_WIDTH
    if n < k:
        raise ConfigError(f"need at least {k} samples for the stencil")
    half = k // 2
    rows = np.arange(half)
    # node positions g^(j - c) around the row, c its place in the stencil
    c = np.concatenate([[half], rows, k - 1 - rows])[:, None]
    g = float(radii[1] / radii[0])
    w = _stencil_weights(g ** (np.arange(k) - c) - 1.0,
                         np.eye(k)[:, 1:2])[..., 0]  # d/dx at offset 0
    inv_r = 1.0 / radii
    shape_tail = (1,) * (v.ndim - 1)

    def block(a, b):
        out = np.empty_like(v[a:b])
        lo, hi = max(a, half), min(b, n - half)  # the interior rows
        if lo < hi:
            acc, tm = out[lo - a:hi - a], np.empty_like(v[lo:hi])
            np.multiply(w[0, 0], v[lo - half:hi - half], out=acc)
            for j in range(1, k):
                acc += np.multiply(w[0, j], v[lo - half + j:hi - half + j],
                                   out=tm)
            acc *= inv_r[lo:hi].reshape(-1, *shape_tail)
        for i in range(a, min(b, half)):
            out[i - a] = np.tensordot(w[1 + i], v[:k], axes=(0, 0)) * inv_r[i]
        for i in range(max(a, n - half), b):
            out[i - a] = np.tensordot(w[half + n - i], v[n - k:],
                                      axes=(0, 0)) * inv_r[i]
        return np.moveaxis(out, 0, 1)
    return (block(a, b) for a, b in _ring_blocks(values))


def d_dtheta_periodic(values: np.ndarray, monodromy: np.ndarray):
    """Angular derivative of sheet samples (Q, R, T, ...) that close up only
    after applying the monodromy permutation: continuing past theta = 2pi,
    sheet k runs into sheet monodromy[k] at theta = 0.

    Each monodromy cycle of length L is a smooth periodic function on the
    L-fold covering circle, so it is differentiated spectrally there; for
    band-limited sheets (branched roots, tilted planes, trigonometric
    profiles) the derivative is exact to rounding.  Returns an iterator
    over the blocks of _ring_blocks(values), each block's derivative in
    turn; every ring is its own transform, so the blocks change no bit."""
    T, tail = values.shape[2], (1,) * (values.ndim - 3)
    cycles = []
    for cycle in _cycles(monodromy):
        M = len(cycle) * T
        # real samples: the half spectrum of rfft, Nyquist bin zeroed
        fac = 1j * np.arange(M // 2 + 1) / len(cycle)
        if M % 2 == 0:
            fac[-1] = 0.0
        cycles.append((cycle, M, fac.reshape((1, -1) + tail)))

    def block(a, b):
        out = np.empty_like(values[:, a:b])
        for cycle, M, fac in cycles:
            sig = np.concatenate([values[c, a:b] for c in cycle], axis=1)
            spec = np.fft.rfft(sig, axis=1)
            spec *= fac
            dsig = np.fft.irfft(spec, n=M, axis=1)
            for m, c in enumerate(cycle):
                out[c] = dsig[:, m * T:(m + 1) * T]
        return out
    return (block(a, b) for a, b in _ring_blocks(values))
