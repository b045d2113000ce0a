"""Smoothed frequency analysis of Q-valued graphs.

For a map u on a disk, a center x and a scale s, the regularized quantities

    D(s) = int |Du|^2 phi(|y|/s) dy
    H(s) = -int |u|^2 / |y| phi'(|y|/s) dy
    I(s) = s D(s) / H(s)

are computed with the ramp cutoff phi = 1 on [0, 1/2], 2 - 2t on [1/2, 1],
0 beyond, or with the sharp indicator cutoff, in which case D is the plain
Dirichlet energy of the ball and H the boundary integral of |u|^2.  I is
scale and amplitude invariant, constant in s for a radially homogeneous
minimizing branch, and its constant is the homogeneity degree.

The first-variation bookkeeping uses

    E(s) = -(1/s)  int phi'(|y|/s) sum_i u_i . (Du_i . yhat) dy
    G(s) = -(1/s^2) int phi'(|y|/s) |y| sum_i |Du_i . yhat|^2 dy
    Sigma(s) = int phi(|y|/s) |u|^2 dy

with yhat the radial unit vector.  On a flat base an exact minimizer has
D = E (outer variation) and dD/dr = (m-2) D / r + 2 G (inner variation,
m = 2 here); the recorded residuals measure the failure of these identities
and vanish to quadrature accuracy precisely on minimizing inputs.  The
radial derivative of D entering the inner residual is evaluated through its
own integral identity dD/dr = -int phi'(|y|/s)(|y|/s^2)|Du|^2 dy, which is
exact for any map, instead of differencing D across rings: at the default
ring spacing a fourth-order difference already biases the residual by more
than the promised tolerance for branch degrees around 5/2.

All integrals decompose into the smooth pieces [r_min, s/2] and [s/2, s] of
the cutoff, so the kinks never meet the quadrature cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DataError, DegenerateHeightError, RangeError)
from .grids import (M_DIM, TWO_PI, PolarGrid, _RADIAL_WIDTH, _cubic_window,
                    _ring_profile, default_grid)
from .curves import QFunction, _grad_sq, _polar_gradients
from .qvalue import QPoint, track_selection

#: H below this multiple of Sigma declares the annulus trivial
DEGENERATE_HEIGHT = 1e-14


@dataclass(frozen=True)
class Cutoff:
    """Frequency weight: 'ramp' is 1 on [0, 1/2], 2 - 2t on [1/2, 1] and 0
    beyond; 'sharp' is the indicator of [0, 1].  'paper_phi' is accepted as
    an input alias for 'ramp'."""

    kind: str = "ramp"

    def __post_init__(self):
        kind = {"paper_phi": "ramp"}.get(self.kind, self.kind)
        if kind not in ("ramp", "sharp"):
            raise ConfigError(f"unknown cutoff kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)


RAMP = Cutoff("ramp")
SHARP = Cutoff("sharp")


# ----------------------------------------------------------------------------
# ring-level data


def _ring_data(f: QFunction):
    """Angularly integrated ring profiles (each length R, already carrying
    the 2 pi angular weight): |Du|^2, |u|^2, u . du/dr, |du/dr|^2."""
    cached = f._cache.get("ring_data")
    if cached is None:
        cached = _ring_table(f.values, f.gradients()[0], f.grad_sq())
        f._cache["ring_data"] = cached
    return cached


def _ring_table(v: np.ndarray, du_dr: np.ndarray, grad_sq: np.ndarray):
    """The four ring profiles of _ring_data from samples, their radial
    derivative and |Du|^2, on any run of rings."""
    return (TWO_PI * np.mean(grad_sq, axis=-1), _ring_profile(v),
            _ring_profile(v, du_dr), _ring_profile(du_dr))


def _seed_blowup_ring_data(u: QFunction, f: QFunction, r: float, c: float):
    """Cache on u = c f(r .) a ring table read off f's, for an exact
    ring-shift blow-up: u's grid is f's grid without its bottom rings, and
    u's samples on ring i are c times f's samples on ring i.

    By the chain rule row i of u's table is row i of f's scaled, |Du|^2 and
    |du/dr|^2 by (r c)^2, |u|^2 by c^2 and u . du/dr by r c^2, wherever the
    two radial stencils agree: on every row but u's top three, where u's
    stencil is one-sided and f's is not.  Those three rows are computed
    from u's own top rings."""
    width = _RADIAL_WIDTH
    half = width // 2
    keep = u.grid.n_rings - half
    du_dr, du_dth = _polar_gradients(u.values[:, -width:],
                                     u.grid.radii[-width:], u.monodromy)
    du_dr, du_dth = du_dr[:, -half:], du_dth[:, -half:]
    top = _ring_table(u.values[:, -half:], du_dr, _grad_sq(du_dr, du_dth))
    scales = ((r * c) ** 2, c ** 2, r * c ** 2, (r * c) ** 2)
    u._cache["ring_data"] = tuple(
        np.concatenate([s * F[:keep], F_top])
        for s, F, F_top in zip(scales, _ring_data(f), top))


# ----------------------------------------------------------------------------
# the smoothed quantities


def _quantities(f: QFunction, s: float, cutoff: Cutoff = RAMP) -> dict:
    grid = f.grid
    grid.require_radius(s)
    if s / 2 < grid.r_min:
        raise RangeError(f"scale {s} puts the cutoff kink below the grid")
    rule = f.rule()
    A, B, C, P = _ring_data(f)
    r = grid.radii
    t_min, t_half, t_s = grid.t[0], math.log(s / 2), math.log(s)

    if cutoff.kind == "ramp":
        ramp = 2.0 - 2.0 * r / s
        w_in = rule.weights(t_min, t_half, 2.0)
        w_out = rule.weights(t_half, t_s, 2.0)
        D = float(w_in @ A + w_out @ (A * ramp)) + rule.inner_core(A, 2.0)
        Sigma = float(w_in @ B + w_out @ (B * ramp)) + rule.inner_core(B, 2.0)
        w1 = rule.weights(t_half, t_s, 1.0)
        H = 2.0 * float(w1 @ B)
        E = (2.0 / s) * float(w_out @ C)
        w3 = rule.weights(t_half, t_s, 3.0)
        G = (2.0 / s ** 2) * float(w3 @ P)
        dD = (2.0 / s ** 2) * float(w3 @ A)
    else:
        D = rule._disk_integral(A, s)
        Sigma = rule._disk_integral(B, s)
        # boundary values of the ring profiles at s
        j0, wc = _cubic_window(grid.t, t_s)
        H, E, G, dD = (s * float(wc @ F[j0:j0 + 4]) for F in (B, C, P, A))
    return {"D": D, "H": H, "E": E, "G": G, "Sigma": Sigma, "dD": dD}


def dirichlet_energy(f: QFunction, r: float) -> float:
    """Total gradient energy int_{B_r} sum_i |Df_i|^2."""
    return f.rule()._disk_integral(_ring_data(f)[0], r)


def smoothed_D(f: QFunction, x=None, r: float = 1.0,
               cutoff: Cutoff = RAMP) -> float:
    f = _at_center(f, x)
    return _quantities(f, r, cutoff)["D"]


def smoothed_H(f: QFunction, x=None, r: float = 1.0,
               cutoff: Cutoff = RAMP) -> float:
    f = _at_center(f, x)
    return _quantities(f, r, cutoff)["H"]


def smoothed_I(f: QFunction, x=None, r: float = 1.0,
               cutoff: Cutoff = RAMP) -> float:
    f = _at_center(f, x)
    q = _quantities(f, r, cutoff)
    if q["H"] <= DEGENERATE_HEIGHT * max(q["Sigma"], 1e-300):
        raise DegenerateHeightError(
            f"height vanishes on the annulus at scale {r}")
    return r * q["D"] / q["H"]


def auxiliary_quantities(f: QFunction, x=None, r: float = 1.0,
                         cutoff: Cutoff = RAMP) -> dict:
    f = _at_center(f, x)
    q = _quantities(f, r, cutoff)
    return {"E": q["E"], "G": q["G"], "Sigma": q["Sigma"]}


def variation_residuals(f: QFunction, x=None, r: float = 1.0,
                        cutoff: Cutoff = RAMP) -> dict:
    """Relative residuals of the outer and inner variation identities.

    res_outer = |D - E| / D and res_inner = |dD/dr - (m-2)D/r - 2G| * r / D,
    both dimensionless; NaN with reason 'degenerate' when D vanishes."""
    f = _at_center(f, x)
    q = _quantities(f, r, cutoff)
    return _residuals_from(q, r)


def _residuals_from(q: dict, r: float) -> dict:
    D = q["D"]
    scale = max(q["Sigma"] / r ** 2, 1e-300)
    if D <= 1e-13 * scale:
        return {"residual_outer": float("nan"),
                "residual_inner": float("nan"),
                "reason": "degenerate"}
    res_o = abs(D - q["E"]) / D
    res_i = abs(q["dD"] - (M_DIM - 2) * D / r - 2.0 * q["G"]) * r / D
    return {"residual_outer": res_o, "residual_inner": res_i, "reason": ""}


# ----------------------------------------------------------------------------
# profiles


@dataclass
class FrequencyRecord:
    r: float
    D: float = float("nan")
    H: float = float("nan")
    I: float = float("nan")
    E: float = float("nan")
    G: float = float("nan")
    Sigma: float = float("nan")
    res_outer: float = float("nan")
    res_inner: float = float("nan")
    valid: bool = False
    reason: str = ""


@dataclass
class FrequencyProfile:
    center: tuple
    radii: list
    records: list
    cutoff: Cutoff
    notes: dict = field(default_factory=dict)

    def valid_records(self) -> list:
        return [rec for rec in self.records if rec.valid]

    def to_csv(self) -> str:
        lines = ["r,D,H,I,E,G,Sigma,res_outer,res_inner,valid"]
        for rec in self.records:
            vals = [rec.r, rec.D, rec.H, rec.I, rec.E, rec.G, rec.Sigma,
                    rec.res_outer, rec.res_inner]
            lines.append(",".join(f"{v:.17g}" for v in vals)
                         + f",{int(rec.valid)}")
        return "\n".join(lines) + "\n"


def _record_at(f: QFunction, s: float, cutoff: Cutoff) -> FrequencyRecord:
    try:
        q = _quantities(f, s, cutoff)
    except RangeError as exc:
        return FrequencyRecord(r=s, valid=False, reason=str(exc))
    rec = FrequencyRecord(r=s, D=q["D"], H=q["H"], E=q["E"], G=q["G"],
                          Sigma=q["Sigma"])
    if q["H"] <= DEGENERATE_HEIGHT * max(q["Sigma"], 1e-300) or q["H"] <= 0:
        rec.valid = False
        rec.reason = "degenerate-height"
        return rec
    rec.I = s * q["D"] / q["H"]
    res = _residuals_from(q, s)
    rec.res_outer = res["residual_outer"]
    rec.res_inner = res["residual_inner"]
    rec.valid = True
    rec.reason = res["reason"]
    return rec


def frequency_profile(f: QFunction, x=None, radii=None,
                      cutoff: Cutoff = RAMP) -> FrequencyProfile:
    """Evaluate all per-radius quantities on an increasing list of radii,
    one radius after another in a single thread; the ring profiles and
    quadrature weights they share are cached on f."""
    f = _at_center(f, x)
    if radii is None:
        radii = default_profile_radii(f.grid)
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radii list is empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be sorted strictly increasing")
    records = [_record_at(f, s, cutoff) for s in radii]
    center = tuple(np.asarray(x, dtype=float)) if x is not None else (0.0, 0.0)
    return FrequencyProfile(center=center, radii=radii, records=records,
                            cutoff=cutoff,
                            notes={"label": f.metadata.get("label", "")})


def default_profile_radii(grid: PolarGrid, octaves: float = 2.0,
                          top: float | None = None) -> list:
    """Grid radii spanning the requested number of octaves below `top`."""
    top = grid.r_max if top is None else top
    lo = top * 2.0 ** (-octaves)
    r = grid.radii
    sel = r[(r >= lo * (1 - 1e-12)) & (r <= top * (1 + 1e-12))]
    return [float(v) for v in sel]


def frequency_limit(profile: FrequencyProfile) -> dict:
    """Extrapolate I(r) as r -> 0 from the smallest scales of a profile.

    Fits I(r) = I0 + c r^beta over the smallest octave, with beta measured
    from octave-to-octave differences when at least three octaves are
    available and defaulting to 1 otherwise; the spread (max - min of I over
    the smallest octave) is an empirical stand-in for the diameter of the
    set of frequency values."""
    recs = sorted(profile.valid_records(), key=lambda rec: rec.r)
    if len(recs) < 4:
        raise DataError("need at least 4 valid radii")
    r = np.array([rec.r for rec in recs])
    I = np.array([rec.I for rec in recs])
    if r[-1] / r[0] < 2.0 * (1 - 1e-9):
        raise DataError("valid radii must span at least one octave")
    octave0 = r <= r[0] * 2.0 * (1 + 1e-9)
    spread = float(I[octave0].max() - I[octave0].min())
    beta = 1.0
    if r[-1] / r[0] >= 8.0 * (1 - 1e-9):
        med = []
        for k in range(3):
            sel = (r >= r[0] * 2.0 ** k * (1 - 1e-9)) \
                & (r < r[0] * 2.0 ** (k + 1) * (1 - 1e-9))
            if np.any(sel):
                med.append(float(np.median(I[sel])))
        if len(med) == 3:
            d1, d2 = med[1] - med[0], med[2] - med[1]
            if abs(d1) > 1e-12 and d2 / d1 > 0:
                beta = float(np.clip(np.log2(d2 / d1), 0.25, 4.0))
    basis = np.column_stack([np.ones(octave0.sum()), r[octave0] ** beta])
    coef, *_ = np.linalg.lstsq(basis, I[octave0], rcond=None)
    return {"estimate": float(coef[0]), "spread": spread, "beta": beta}


# ----------------------------------------------------------------------------
# off-center evaluation (resampled, second class)


def _at_center(f: QFunction, x) -> QFunction:
    if x is None:
        return f
    x = np.asarray(x, dtype=float)
    if np.allclose(x, f.grid.center, atol=1e-15):
        return f
    return recenter(f, x)


def recenter(f: QFunction, x, rings_per_octave: int = 8,
             octaves: int = 6) -> QFunction:
    """Resample f onto a polar grid centered at x (inside the disk).

    Bilinear in (log r, theta) per sheet, then re-tracked ring by ring, so
    the result is a valid selection around the new center.  Accuracy is a
    full order below the native grid; intended for exploratory off-center
    frequency runs only."""
    x = np.asarray(x, dtype=float)
    d = float(np.hypot(*x))
    grid = f.grid
    if d == 0.0:
        return f
    limit = grid.r_max - d
    if f.q > 1:
        # a multivalued selection cannot be continued around the branch
        # point, so the recentered disk must not contain it
        limit = min(limit, d)
    r_out = limit * 0.45
    if r_out <= grid.r_min * 4:
        raise RangeError("center too close to the grid boundary "
                         "or to the branch point")
    new = default_grid(r_min=r_out * 2.0 ** (-octaves), r_max=r_out,
                       rings_per_octave=rings_per_octave,
                       n_theta=grid.n_theta, center=(float(x[0]), float(x[1])))
    xs, ys = new.nodes_xy()
    px, py = xs + x[0], ys + x[1]
    rr = np.hypot(px, py)
    th = np.mod(np.arctan2(py, px), TWO_PI)
    if rr.min() < grid.r_min:
        raise RangeError("recentered grid dips below the sampled core")
    raw = _bilinear_sheets(f, rr, th)  # (Q, R', T', n) unordered per node
    return _track_node_sets(new, raw, metadata={
        **f.metadata, "recentered_at": x.tolist()})


def _bilinear_sheets(f: QFunction, rr, th):
    grid = f.grid
    t = np.log(rr)
    it = np.clip(((t - grid.t[0]) / grid.dt).astype(int), 0,
                 grid.n_rings - 2)
    ft = (t - grid.t[0]) / grid.dt - it
    jt = (th / grid.d_theta).astype(int) % grid.n_theta
    fj = th / grid.d_theta - (th / grid.d_theta).astype(int)
    vals = f.values
    wrapped = vals[f.monodromy][:, :, :1]
    ext = np.concatenate([vals, wrapped], axis=2)
    v00 = ext[:, it, jt]
    v01 = ext[:, it, jt + 1]
    v10 = ext[:, it + 1, jt]
    v11 = ext[:, it + 1, jt + 1]
    ftb = ft[None, :, :, None]
    fjb = fj[None, :, :, None]
    return ((1 - ftb) * ((1 - fjb) * v00 + fjb * v01)
            + ftb * ((1 - fjb) * v10 + fjb * v11))


def _track_node_sets(grid: PolarGrid, raw: np.ndarray, metadata: dict) -> QFunction:
    """Turn per-node unordered sheet sets into a consistent selection.

    Each ring is tracked around the circle, then relabelled to match the
    ring below at the first angle, so labels are continuous both ways."""
    from .qvalue import match_step

    Q, R, T, n = raw.shape
    values = np.empty_like(raw)
    prev_first = None
    mono = np.arange(Q)
    for i in range(R):
        ring_pts = [QPoint(raw[:, i, j]) for j in range(T)]
        sel = track_selection(ring_pts, closed=True)
        sheets = sel.sheets  # (Q, T, n)
        ring_mono = sel.monodromy
        if prev_first is not None:
            s = match_step(QPoint(prev_first), QPoint(sheets[:, 0]))
            sheets = sheets[s]
            inv = np.empty(Q, dtype=int)
            inv[s] = np.arange(Q)
            ring_mono = inv[sel.monodromy[s]]
        if not np.array_equal(np.sort(ring_mono), np.arange(Q)):
            raise RangeError("inconsistent ring monodromy after resampling")
        if i == 0:
            mono = ring_mono
        elif not np.array_equal(mono, ring_mono):
            raise RangeError("monodromy changed between rings; the new disk "
                             "must not cross the branch point")
        values[:, i] = sheets
        prev_first = sheets[:, 0]
    return QFunction(grid=grid, values=values, monodromy=mono,
                     metadata=metadata)
