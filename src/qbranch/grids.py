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
kinks of piecewise cutoffs are kept out of the quadrature cells.  In units
of dt every cell's stencil sits at whole-number offsets from its lower
ring, so five inverse Vandermonde patterns, solved once per process, serve
every cell of every grid: a cell's weights are its pattern applied to the
moments of e^{beta dt u} over the covered part of the cell, times
dt e^{beta t_i}, and a build forms all cells in one array expression.

Because the grid is uniform in t, an exact ring-shift blow-up of a map has
the map's ring table shifted and scaled; frequency._seed_blowup_ring_data
uses that so blow-up steps skip their own derivative pass.

Radial derivatives use 7-point weights built in the radius variable, exact
for polynomials in r through degree 6; low-order stencils in log r bias
the frequency of an alpha-homogeneous map by (alpha*dt)^2/6 at second
order, well above the accuracy this library promises, and any stencil in
log r puts a boundary bias on affine sheets.  Angular derivatives are
spectral on the monodromy covering circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeError

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
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise ConfigError("grid needs at least 8 radii")
        if np.any(np.diff(r) <= 0):
            raise ConfigError("radii must be strictly increasing")
        t = np.log(r)
        dt = np.diff(t)
        if not np.allclose(dt, dt[0], rtol=1e-10, atol=1e-14):
            raise ConfigError("radii must form a geometric sequence")
        if self.n_theta < 64:
            raise ConfigError("n_theta must be at least 64")
        object.__setattr__(self, "radii", r)

    @property
    def n_rings(self) -> int:
        return self.radii.size

    @property
    def t(self) -> np.ndarray:
        return np.log(self.radii)

    @property
    def dt(self) -> float:
        return float(np.log(self.radii[1] / self.radii[0]))

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
    n_oct = np.log2(r_max / r_min)
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
    rhs = e_0 interpolates at 0, rhs = e_1 differentiates at 0, and rhs =
    exact moments of the measure integrates against it; each is exact for
    polynomials of degree below k in the offset variable."""
    k = offsets.size
    V = np.vander(offsets, k, increasing=True).T  # V[a, j] = offs_j^a
    return np.linalg.solve(V, rhs)


def _cubic_window(t: np.ndarray, ts: float) -> tuple[int, np.ndarray]:
    """Cubic interpolation in t at ts: (j0, w) such that w @ F[j0:j0 + 4]
    is the value at ts of the cubic through four consecutive samples of F,
    the window centered on the cell holding ts and clamped at the ends."""
    i = int(np.clip(np.searchsorted(t, ts) - 1, 0, t.size - 2))
    j0 = min(max(i - 1, 0), t.size - 4)
    return j0, _stencil_weights(t[j0:j0 + 4] - ts, np.eye(4)[0])


def _ring_profile(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Angularly integrated ring profile 2 pi mean_theta sum_{k,n} a . b of
    sheet samples (Q, R, T, n), shape (R,); b defaults to a."""
    b = a if b is None else b
    return TWO_PI * np.mean(np.einsum("krtn,krtn->rt", a, b), axis=-1)


# ----------------------------------------------------------------------------
# radial quadrature


#: Gauss-Legendre rule of the cell moments: the integrand is entire, so 16
#: nodes reach rounding on cells of unit length for |beta dt| up to 20
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


class RadialRule:
    """Weight factory for integrals  int_{t_a}^{t_b} F(t) e^{beta t} dt
    with F known at the grid rings."""

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        self._cache: dict = {}

    def weights(self, t_a: float, t_b: float, beta: float) -> np.ndarray:
        key = (round(t_a, 12), round(t_b, 12), round(beta, 12))
        w = self._cache.get(key)
        if w is None:
            w = self._build(t_a, t_b, beta)
            self._cache[key] = w
        return w

    #: rings per interpolation window; quintic local interpolation keeps the
    #: composite error at (c dt)^6 for integrands growing like e^{c t}
    STENCIL = 6

    def _build(self, t_a: float, t_b: float, beta: float) -> np.ndarray:
        """All cells at once, in units of dt: cell i covers u in [0, 1]
        from ring i, its stencil sits at the integer offsets j0 - i ..
        j0 - i + k - 1, and its weights are dt e^{beta t_i} times the
        inverse Vandermonde matrix of those offsets applied to the moments
        of e^{beta dt u} over the covered part of [0, 1]."""
        t = self.grid.t
        R = t.size
        k = min(self.STENCIL, R)
        if t_b <= t_a + 1e-15:
            return np.zeros(R)
        if t_a < t[0] - 1e-9 or t_b > t[-1] + 1e-9:
            raise RangeError("integration range outside grid")
        t_a = max(t_a, t[0])
        t_b = min(t_b, t[-1])
        dt = self.grid.dt
        i0 = int(np.floor((t_a - t[0]) / dt + 1e-12))
        i1 = int(np.ceil((t_b - t[0]) / dt - 1e-12))
        i1 = max(min(i1, R - 1), i0 + 1)
        i = np.arange(i0, i1)
        lo = np.maximum(t_a, t[i])
        hi = np.minimum(t_b, t[i + 1])
        keep = hi > lo + 1e-15
        i, lo, hi = i[keep], lo[keep], hi[keep]
        if i.size == 0:
            return np.zeros(R)
        # k-ring window centered on cell i, clamped at the ends
        j0 = np.clip(i - (k // 2 - 1), 0, R - k)
        m = _moments((lo - t[i]) / dt, (hi - t[i]) / dt, beta * dt, k - 1)
        cell = np.einsum("ijq,qi->ij", _cell_inverses(k)[i - j0], m) \
            * (dt * np.exp(beta * t[i]))[:, None]
        return np.bincount((j0[:, None] + np.arange(k)).ravel(),
                           weights=cell.ravel(), minlength=R)

    def _disk_integral(self, F: np.ndarray, r: float):
        """int_{B_r} of a ring profile F carrying its angular weight, i.e.
        int_0^r F(s) s ds, with the power-law core below r_min included.
        F may stack profiles as (R, ...); the result then has shape
        F.shape[1:], and each entry is summed by the same dot product as a
        lone profile, so stacking never changes a digit."""
        self.grid.require_radius(r)
        w = self.weights(self.grid.t[0], math.log(r), 2.0)
        F = np.asarray(F, dtype=float)
        columns = np.ascontiguousarray(F.reshape(F.shape[0], -1).T)
        body = np.array([w @ c for c in columns]).reshape(F.shape[1:])
        total = body + self.inner_core(F, 2.0)
        return float(total) if total.ndim == 0 else total

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


# ----------------------------------------------------------------------------
# derivative stencils (sixth order radial, fourth order angular)


_RADIAL_WIDTH = 7


def d_dr_geometric(values: np.ndarray, radii: np.ndarray,
                   axis: int = 1) -> np.ndarray:
    """Radial derivative on geometric rings with 7-point weights built in
    the radius variable, so the stencil is exact for polynomials in r up to
    degree 6 (constant offsets and tilted planes in particular leave no
    boundary bias).  Because consecutive radii have a fixed ratio, one
    dimensionless weight pattern per row offset serves every ring after a
    1/r scaling."""
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    k = _RADIAL_WIDTH
    if n < k:
        raise ConfigError(f"need at least {k} samples for the stencil")
    half = k // 2
    pos = np.arange(k, dtype=float)
    e1 = np.eye(k)[1]  # first derivative at offset 0
    g = float(radii[1] / radii[0])
    inv_r = 1.0 / radii
    shape_tail = (1,) * (v.ndim - 1)
    out = np.empty_like(v)
    # interior rows: nodes at relative positions g^(j - half) around the row
    w_int = _stencil_weights(g ** (pos - half) - 1.0, e1)
    acc = w_int[0] * v[0:n - k + 1]
    for j in range(1, k):
        acc = acc + w_int[j] * v[j:n - k + 1 + j]
    out[half:n - half] = acc * inv_r[half:n - half].reshape(-1, *shape_tail)
    for row in range(half):
        w_lo = _stencil_weights(g ** (pos - row) - 1.0, e1)
        out[row] = np.tensordot(w_lo, v[:k], axes=(0, 0)) * inv_r[row]
        w_hi = _stencil_weights(g ** (pos - (k - 1 - row)) - 1.0, e1)
        out[n - 1 - row] = np.tensordot(w_hi, v[n - k:], axes=(0, 0)) \
            * inv_r[n - 1 - row]
    return np.moveaxis(out, 0, axis)


def d_dtheta_periodic(values: np.ndarray,
                      monodromy: np.ndarray) -> np.ndarray:
    """Angular derivative of sheet samples (Q, R, T, ...) that close up only
    after applying the monodromy permutation: continuing past theta = 2pi,
    sheet k runs into sheet monodromy[k] at theta = 0.

    Each monodromy cycle of length L is a smooth periodic function on the
    L-fold covering circle, so it is differentiated spectrally there; for
    band-limited sheets (branched roots, tilted planes, trigonometric
    profiles) the derivative is exact to rounding."""
    Q, R, T = values.shape[:3]
    mono = np.asarray(monodromy)
    out = np.empty_like(values)
    seen = np.zeros(Q, dtype=bool)
    for start in range(Q):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        k = int(mono[start])
        while k != start:
            cycle.append(k)
            seen[k] = True
            k = int(mono[k])
        L = len(cycle)
        sig = np.concatenate([values[c] for c in cycle], axis=1)
        M = L * T
        wav = np.fft.fftfreq(M, d=1.0 / M)
        fac = 1j * wav / L
        if M % 2 == 0:
            fac[M // 2] = 0.0
        shape = (1, M) + (1,) * (sig.ndim - 2)
        spec = np.fft.fft(sig, axis=1) * fac.reshape(shape)
        dsig = np.fft.ifft(spec, axis=1).real
        for m, c in enumerate(cycle):
            out[c] = dsig[:, m * T:(m + 1) * T]
    return out
