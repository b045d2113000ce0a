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

Every quantity is a moment of the four ring profiles of the map's one ring
table, F = (A, B, C, P) = (|Du|^2, |u|^2, u . du/dr, |du/dr|^2), each
integrated over the angle; curves builds and caches the table
(curves._ring_data), and this module only reads it.  With
Ball(rho) = int_0^rho F r dr, read off the table with the core below r_min
included, and M_beta = int_{s/2}^s F r^(beta - 1) dr, one window for all
four columns, the ramp (phi = 2 - 2t and phi' = -2 on the annulus) gives

    (D, Sigma) = 2 Ball(s) - Ball(s/2) - (2/s) M_3        columns A, B
    E = (2/s) (Ball(s) - Ball(s/2))                        column C
    H = 2 M_1,   G = (2/s^2) M_3,   dD/dr = (2/s^2) M_3    columns B, P, A

so a ramp record reads the table twice and integrates two windows, at
beta = 1 and beta = 3, whose ends sit on the kink s/2 and the edge s: the
kinks never meet the quadrature cells.  The sharp cutoff reads Ball(s) and
the boundary values s B(s), s C(s), s P(s) and s A(s).

Every record, of a profile (all the steps of a degree estimate are one
profile of the average-free part) or of the stitched frequency, comes
from _quantities over a list of scales: one table read for all the balls,
and each window, or sharp boundary value, its own product with F (a
stacked product's rows can round differently), so a record depends only
on the map, its scale and the cutoff.  The quantities at one scale s are
the fields of its record, frequency_profile(f, [s], cutoff).records[0]:
I and the residuals are formed in _record alone, and a scale off the grid
or with a vanishing height gives an invalid record carrying the reason.
The limit r -> 0 of a profile, frequency_limit, fits no rate of its own:
on a harmonic map H and s D are sums of the same powers of s, so the
pencil (grids.pencil) of the records' H gives the exponents, and the limit
is the ratio of the leading amplitudes of s D and H on them.  The records
of the grid's top two rings are left out, because their windows clamp
and carry another bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, RangeError
from .grids import (_ABOVE, M_DIM, TWO_PI, PolarGrid, _cell_interpolant,
                    _ring_blocks, default_grid, pencil)
from .curves import QFunction, _csv, _ring_data
from .qvalue import _chain_labels, _match_pairs

#: H below this multiple of Sigma declares the annulus trivial
DEGENERATE_HEIGHT = 1e-14

#: a recentered grid spans this many octaves at this many rings per octave
RECENTER_OCTAVES = 6
RECENTER_RINGS_PER_OCTAVE = 8


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
# the smoothed quantities


def _kink(grid: PolarGrid, s: float) -> float:
    """The cutoff kink s / 2, clamped to the bottom ring when it rounds
    below; RangeError when s or its kink is off the grid."""
    grid.require_radius(s)
    if s / 2 < grid.r_min * (1.0 - 1e-12):
        raise RangeError(f"scale {s} puts the cutoff kink below the grid")
    return max(s / 2, grid.r_min)


def _ramp(s, ball, inner, M1, M3) -> dict:
    """The ramp quantities at scales s from the ball reads Ball(s) and
    Ball(s/2) and the windows M_1 and M_3, each with the four columns
    A, B, C, P first: a scale per entry of s, elementwise."""
    D, Sigma = 2.0 * ball[:2] - inner[:2] - (2.0 / s) * M3[:2]
    return {"D": D, "H": 2.0 * M1[1], "E": (2.0 / s) * (ball[2] - inner[2]),
            "G": (2.0 / s ** 2) * M3[3], "Sigma": Sigma,
            "dD": (2.0 / s ** 2) * M3[0]}


def _quantities(f: QFunction, s, cutoff: Cutoff = RAMP):
    """(q, off): the quantities at the scales of the list s on the grid,
    {name: array over them}, and per scale of s why it or its kink is off
    the grid ("" when neither is).  All ball reads are one _disk_integral
    call, and each window is its own product with F, so no scale's
    quantities depend on the other scales of the call."""
    rule, table = f.rule(), _ring_data(f)
    F = table[0]
    scales, kinks, off = [], [], []
    for x in map(float, s):
        try:
            kinks.append(_kink(f.grid, x))
            scales.append(x)
            off.append("")
        except RangeError as exc:
            off.append(str(exc))
    K = len(scales)
    if cutoff.kind == "ramp":
        ball = rule._disk_integral(table, scales + kinks).T
        # each scale's weights are a (1, R) matrix of the stack, so one
        # product per beta gives every scale the bits of its own gemv
        W1, W3 = np.empty((2, K, 1, F.shape[0]))
        for k, (x, h) in enumerate(zip(scales, kinks)):
            t_half, t_s = math.log(h), math.log(x)
            W1[k] = rule.weights(t_half, t_s, 1.0)
            W3[k] = rule.weights(t_half, t_s, 3.0)
        M1, M3 = (W1 @ F)[:, 0].T, (W3 @ F)[:, 0].T
        return _ramp(np.array(scales), ball[:, :K], ball[:, K:], M1, M3), off
    D, Sigma = rule._disk_integral(table, scales).T[:2]
    # boundary values s F(s) of the ring profiles, by the cell quintic
    A, B, C, P = np.empty((4, K))
    for k, x in enumerate(scales):
        j0, wc = _cell_interpolant(f.grid, math.log(x))
        A[k], B[k], C[k], P[k] = x * (wc @ F[j0:j0 + 6])
    return {"D": D, "H": B, "E": C, "G": P, "Sigma": Sigma, "dD": A}, off


def dirichlet_energy(f: QFunction, r: float) -> float:
    """Total gradient energy int_{B_r} sum_i |Df_i|^2."""
    return float(f.rule()._disk_integral(_ring_data(f), r)[0])


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
    #: the grid of the records, which frequency_limit reads its rings off
    grid: PolarGrid | None = field(default=None, compare=False, repr=False)

    def valid_records(self) -> list:
        return [rec for rec in self.records if rec.valid]

    def to_csv(self) -> str:
        return _csv("r,D,H,I,E,G,Sigma,res_outer,res_inner,valid", [
            (rec.r, rec.D, rec.H, rec.I, rec.E, rec.G, rec.Sigma,
             rec.res_outer, rec.res_inner, rec.valid)
            for rec in self.records])


def _record(s: float, q: dict) -> FrequencyRecord:
    """The record at scale s from its quantities q, floats.  Where H
    vanishes against Sigma (the floor is at least 1e-314, so H <= 0 does)
    the annulus is trivial and I undefined: the record is invalid,
    'degenerate-height'.  Else I = s D / H, and the relative residuals of
    the outer and inner variation identities, |D - E| / D and
    |dD/dr - (m-2) D / s - 2 G| s / D, are NaN with reason 'degenerate'
    where D vanishes."""
    D, H, Sigma = q["D"], q["H"], q["Sigma"]
    rec = FrequencyRecord(r=s, D=D, H=H, E=q["E"], G=q["G"], Sigma=Sigma)
    if H <= DEGENERATE_HEIGHT * max(Sigma, 1e-300):
        rec.reason = "degenerate-height"
        return rec
    rec.I = s * D / H
    rec.valid = True
    if D <= 1e-13 * max(Sigma / s ** 2, 1e-300):
        rec.reason = "degenerate"
        return rec
    rec.res_outer = abs(D - q["E"]) / D
    rec.res_inner = abs(q["dD"] - (M_DIM - 2) * D / s - 2.0 * q["G"]) * s / D
    return rec


def _records(f: QFunction, radii: list, cutoff: Cutoff) -> list:
    """The records at radii, a list of floats, in their order: a radius
    off the grid, or whose kink is, gives an invalid record carrying the
    reason; the others come from the same _quantities call."""
    q, reasons = _quantities(f, radii, cutoff)
    rows = zip(*(v.tolist() for v in q.values()))
    return [FrequencyRecord(r=s, reason=why) if why
            else _record(s, dict(zip(q, next(rows))))
            for s, why in zip(radii, reasons)]


def frequency_profile(f: QFunction, radii=None,
                      cutoff: Cutoff = RAMP) -> FrequencyProfile:
    """Evaluate all per-radius quantities on an increasing list of radii:
    one _records call, whose ring table and quadrature windows are cached
    on f and in the process.  Each record is the one that radius gets
    alone, bit for bit, on a ring or between rings.  ConfigError when the
    list is empty or not strictly increasing."""
    if radii is None:
        radii = default_profile_radii(f.grid)
    radii = [float(r) for r in radii]
    if not radii:
        raise ConfigError("radii list is empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be sorted strictly increasing")
    return FrequencyProfile(center=tuple(f.grid.center), radii=radii,
                            records=_records(f, radii, cutoff), cutoff=cutoff,
                            notes={"label": f.metadata.get("label", "")},
                            grid=f.grid)


def default_profile_radii(grid: PolarGrid, octaves: float = 2.0,
                          top: float | None = None) -> list:
    """Grid radii spanning the requested number of octaves below `top`."""
    top = grid.r_max if top is None else top
    return _radii_in(grid, top * 2.0 ** (-octaves), top)


def _radii_in(grid: PolarGrid, lo: float, hi: float) -> list:
    """The grid radii in [lo, hi], each end widened by 1e-12 relative."""
    r = grid.radii
    return r[(r >= lo * (1 - 1e-12)) & (r <= hi * (1 + 1e-12))].tolist()


def frequency_limit(profile: FrequencyProfile) -> dict:
    """The limit of I(r) as r -> 0, read off the heights of the profile.

    On a map harmonic on its cover, H and s D are sums of the same powers
    of s, so I = s D / H tends to the ratio of their leading amplitudes:
    the estimate is r0 d_1 / h_1, with H = sum_k h_k (s / r0)^lambda_k and
    D (s / r0) = sum_k d_k (s / r0)^lambda_k fitted on the exponents of
    H's pencil, and beta, the rate of I's approach, is lambda_2 - lambda_1
    (0 on a one-term spectrum).  The records read are the valid ones at
    least _ABOVE rings below the grid's top ring, whose windows do not
    clamp.  When they are fewer than 8, not on consecutive rings, or their
    spectrum is no sum of real powers, the estimate is the mean of I over
    the smallest octave, beta is 0 and the key "limit_note" names the
    reason.  The spread is max - min of I over the smallest octave, an
    empirical stand-in for the diameter of the set of frequency values.
    DataError on fewer than 4 valid records or less than an octave."""
    recs = sorted(profile.valid_records(), key=lambda rec: rec.r)
    if len(recs) < 4 or recs[-1].r / recs[0].r < 2.0 * (1 - 1e-9):
        raise DataError("need at least 4 valid radii spanning at least one "
                        "octave")
    I = _smallest_octave(recs)
    try:
        estimate, beta, note = *_amplitude_ratio(profile.grid, recs), {}
    except DataError as exc:
        estimate, beta, note = float(I.mean()), 0.0, {"limit_note": str(exc)}
    return {"estimate": estimate, "spread": float(I.max() - I.min()),
            "beta": beta, **note}


def _smallest_octave(recs: list) -> np.ndarray:
    """I of the records recs, sorted by radius, within an octave of the
    first."""
    return np.array([rec.I for rec in recs
                     if rec.r <= recs[0].r * 2.0 * (1 + 1e-9)])


def _amplitude_ratio(grid: PolarGrid | None, recs: list) -> tuple:
    """(r0 d_1 / h_1, lambda_2 - lambda_1) of frequency_limit from the
    records recs, sorted by radius, on grid (none on no grid); DataError
    saying why there is none."""
    top = grid.radii[-1 - _ABOVE] if grid else 0.0
    r, H, D = np.array([(rec.r, rec.H, rec.D) for rec in recs
                        if rec.r <= top]).reshape(-1, 3).T
    if r.size < 8 or not np.array_equal(r, _radii_in(grid, r[0], r[-1])):
        raise DataError(f"{r.size} valid records {_ABOVE} or more rings below"
                        " the top: the spectrum needs 8 on consecutive rings")
    spec = pencil(H, grid.dt, r[0])
    if why := spec.defect():
        raise DataError(f"H's spectrum: {why}")
    lam, x = spec.exponents.real, r / r[0]
    # unlevelled rows: levelled as the pencil levels its own, the lowest
    # sharp window of 2.(5,6) u (4,5) read 3.8e-6 off its limit, not 4.1e-7
    h, d = np.linalg.lstsq(x[:, None] ** lam, np.column_stack([H, D * x]),
                           rcond=None)[0][0]
    return float(r[0] * d / h), float(lam[1] - lam[0]) if lam.size > 1 else 0.0


# ----------------------------------------------------------------------------
# off-center evaluation (resampled, second class)


def recenter(f: QFunction, x) -> QFunction:
    """Resample f onto a polar grid centered at x (inside the disk).

    Bilinear in (log r, theta) per sheet, then re-tracked: the angle-0
    spoke outward across the rings first, then each ring around the circle
    from its spoke-labelled first sample, so the result is a valid
    selection around the new center.  Accuracy is a full order below the
    native grid; intended for exploratory off-center frequency runs only."""
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
    new = default_grid(r_min=r_out * 2.0 ** (-RECENTER_OCTAVES), r_max=r_out,
                       rings_per_octave=RECENTER_RINGS_PER_OCTAVE,
                       n_theta=grid.n_theta, center=(float(x[0]), float(x[1])))
    xs, ys = new.nodes_xy()
    px, py = xs + x[0], ys + x[1]
    rr = np.hypot(px, py)
    th = np.mod(np.arctan2(py, px), TWO_PI)
    if rr.min() < grid.r_min:
        raise RangeError("recentered grid dips below the sampled core")
    # (Q, R', T', n) unordered per node, a block of rings at a time
    raw = np.empty((f.q, *rr.shape, f.n))
    for a, b in _ring_blocks(raw):
        raw[:, a:b] = _bilinear_sheets(f, rr[a:b], th[a:b])
    # a curve f claims holds about the origin: like eta_map, the result
    # writes its own kind, so it claims none
    return _track_node_sets(new, raw, metadata={
        **f.metadata, "kind": "recentered", "recentered_at": x.tolist()})


def _bilinear_sheets(f: QFunction, rr, th):
    grid = f.grid
    t = np.log(rr)
    it = np.clip(((t - grid.t[0]) / grid.dt).astype(int), 0,
                 grid.n_rings - 2)
    ft = (t - grid.t[0]) / grid.dt - it
    jt = (th / grid.d_theta).astype(int) % grid.n_theta
    fj = th / grid.d_theta - (th / grid.d_theta).astype(int)
    vals = f.values
    # the column past 2 pi is column 0 of the sheet the monodromy sends to
    jn = (jt + 1) % grid.n_theta
    sheet = np.where(jn == 0, f.monodromy[:, None, None],
                     np.arange(f.q)[:, None, None])
    v00 = vals[:, it, jt]
    v01 = vals[sheet, it, jn]
    v10 = vals[:, it + 1, jt]
    v11 = vals[sheet, it + 1, jn]
    ftb = ft[None, :, :, None]
    fjb = fj[None, :, :, None]
    return ((1 - ftb) * ((1 - fjb) * v00 + fjb * v01)
            + ftb * ((1 - fjb) * v10 + fjb * v11))


def _track_node_sets(grid: PolarGrid, raw: np.ndarray, metadata: dict) -> QFunction:
    """Turn per-node unordered sheet sets into a consistent selection.

    The angle-0 spoke is tracked outward across the rings first, then each
    ring around the circle, as a closed chain, from its spoke-labelled
    first sample: labels are continuous both ways.  raw is relabelled in
    place, and the rings are matched a block at a time."""
    Q, R, T, n = raw.shape
    nodes = raw.transpose(1, 2, 0, 3)  # (R, T, Q, n)
    spoke = nodes[:, 0]
    labels = _chain_labels(_match_pairs(spoke[:-1], spoke[1:], range(1, R)))
    spoke[...] = np.take_along_axis(spoke, labels[:, :, None], axis=1)
    values = np.empty_like(raw)
    mono = np.empty((R, Q), dtype=int)
    for a, b in _ring_blocks(raw):
        rings = nodes[a:b]
        sigma = _match_pairs(rings.reshape(-1, Q, n),
                             np.roll(rings, -1, axis=1).reshape(-1, Q, n),
                             list(range(1, T + 1)) * (b - a))
        labels = _chain_labels(sigma.reshape(b - a, T, Q))  # (B, T + 1, Q)
        mono[a:b] = labels[:, T]
        values[:, a:b] = np.take_along_axis(
            rings, labels[:, :T, :, None], axis=2).transpose(2, 0, 1, 3)
    if np.any(np.sort(mono, axis=1) != np.arange(Q)):
        raise RangeError("inconsistent ring monodromy after resampling")
    if np.any(mono != mono[0]):
        raise RangeError("monodromy changed between rings; the new disk "
                         "must not cross the branch point")
    return QFunction(grid=grid, values=values, monodromy=mono[0],
                     metadata=metadata)
