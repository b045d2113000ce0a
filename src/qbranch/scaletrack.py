"""Flattening intervals, the stitched frequency across them, and the BV
bookkeeping of its negative variation.

Scanning dyadic radii downward, an interval ]s_j, t_j] opens at the first
radius whose optimal-plane excess falls below the threshold eps3_sq and
carries the parameter

    m0_j = max(E(t_j), eps_bar^2 * t_j^(2 - 2 delta2)).

The interval ends at the first radius r below t_j where one of three things
happens: the excess climbs back above eps3_sq (a gap), the excess
concentrates faster than the within-interval decay budget,

    E(r) > c_e * m0_j * (r / t_j)^(2 - 2 delta2),

or the refit reference plane drifts by more than tilt_jump * sqrt(m0_j).
The concentration rule is the stand-in for the stopping of the full
construction this bookkeeping mimics: branch-point energy piling up faster
than the budget forces a restart at comparable scale, which is what makes
subquadratically decaying inputs produce infinitely many intervals with
s_j / t_j bounded below, while superquadratic decay yields one interval
running to the resolved floor.  Holomorphic perturbations leave the optimal
plane fixed at every scale (the mean of a derivative over a centered disk
is its value at the center), so the drift rule alone would never split
anything.

The stitched frequency records the smoothed frequency on ]s_j, t_j] of
the blow-up at t_j with the reference plane removed from every sheet as an
affine map (the small-tilt reparametrization) and the sheet average
subtracted.  The plane, removed from every sheet alike, drops out with the
average, and I is scale invariant, so every record is I of f's
average-free part at the global radius: one ring table serves all
intervals.  The plane only truncates intervals tilted beyond the regime
where that linearization is trusted.  Both sides of a seam read the table
at t_j, so seam jumps are zero in this linearized stand-in.  The negative
variation of log(I + 1) splits into a within-interval and a jump part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .curves import QFunction
from .blowup import _blowup_radii, average_free_part
from .excess import DEFINITIONS, Plane, optimal_plane
from .frequency import Cutoff, RAMP, _record_at

#: the linearized (affine-subtraction) reparametrization is trusted only
#: well inside the graphical tilt regime; beyond this an interval is
#: truncated with a diagnostic instead of silently degrading
REPARAM_TILT_MAX = 0.35


@dataclass(frozen=True)
class ScaleTrackConfig:
    eps3_sq: float = 1e-2
    eps_bar: float = 1e-2
    delta2: float = 1.0 / 32.0        # 1/(16 m) with m = 2
    c_e: float = 2.0                  # concentration budget constant
    tilt_jump: float = 0.1            # plane drift allowance, times sqrt(m0)
    r_top: float = 0.5
    r_floor: float = 2.0 ** -12
    definition: str = "cylindrical"

    def __post_init__(self):
        if not (0 < self.eps3_sq <= 1):
            raise ConfigError("eps3_sq must be in (0, 1]")
        if not (0 < self.delta2 < 0.5):
            raise ConfigError("delta2 must be in (0, 1/2)")
        if self.c_e < 1.0:
            raise ConfigError("c_e must be at least 1")
        if not (0 < self.r_floor < self.r_top):
            raise ConfigError("need 0 < r_floor < r_top")
        if self.definition not in DEFINITIONS:
            raise ConfigError(f"unknown excess definition {self.definition!r}")


@dataclass
class IntervalRecord:
    j: int
    s: float
    t: float
    m0: float
    plane: Plane | None
    end_reason: str            # 'excess', 'concentration', 'drift', 'floor'
    reaches_floor: bool = False


@dataclass
class ScaleIntervals:
    intervals: list
    gaps: list                 # dyadic radii excluded by the threshold
    radii: list                # all scanned dyadic radii, descending
    excess_by_r: dict
    config: ScaleTrackConfig
    empty: bool = False

    def coinciding(self, j: int) -> bool:
        """True when interval j starts exactly where interval j-1 stopped."""
        if j == 0:
            return False
        return abs(self.intervals[j].t - self.intervals[j - 1].s) \
            <= 1e-12 * self.intervals[j].t

    def min_ratio(self) -> float:
        return min(rec.s / rec.t for rec in self.intervals) \
            if self.intervals else float("nan")

    def to_csv(self) -> str:
        lines = ["j,s_j,t_j,m0_j,tilt_norm,end_reason,reaches_floor"]
        for rec in self.intervals:
            tn = rec.plane.tilt_norm if rec.plane is not None else float("nan")
            lines.append(
                f"{rec.j},{rec.s:.17g},{rec.t:.17g},{rec.m0:.17g},"
                f"{tn:.17g},{rec.end_reason},{int(rec.reaches_floor)}")
        return "\n".join(lines) + "\n"


def _dyadic_radii(cfg: ScaleTrackConfig):
    out = []
    r = cfg.r_top
    while r >= cfg.r_floor * (1 - 1e-12):
        out.append(r)
        r *= 0.5
    return out


def _excess_provider(source, cfg: ScaleTrackConfig):
    """Normalize the three accepted input kinds to r -> (excess, plane)."""
    if isinstance(source, QFunction):
        def provider(r):
            res = optimal_plane(source, r, cfg.definition)
            return res["excess"], res["plane"]
        return provider
    if callable(source):
        return lambda r: _as_pair(source(r))
    if isinstance(source, dict):
        return lambda r: _as_pair(source[r])
    raise ConfigError("source must be a QFunction, a callable, or a dict")


def _as_pair(value):
    if isinstance(value, tuple):
        return value
    return float(value), None


def intervals_of_flattening(source, eps3_sq: float | None = None,
                            cfg: ScaleTrackConfig | None = None) -> ScaleIntervals:
    """Segment the dyadic scales into flattening intervals and gaps.

    source is a QFunction (excess and reference plane are computed per
    radius) or a synthetic excess table (callable or dict; planes omitted,
    the drift rule is then inactive).  No radius below the threshold yields
    an empty, flagged result rather than an error."""
    if cfg is None:
        cfg = ScaleTrackConfig()
    overrides = {}
    if eps3_sq is not None:
        overrides["eps3_sq"] = eps3_sq
    if isinstance(source, QFunction):
        # the per-radius excess quadrature needs rings below the scan floor
        floor = max(cfg.r_floor, source.grid.r_min * 4)
        if floor != cfg.r_floor:
            overrides["r_floor"] = floor
    if overrides:
        cfg = ScaleTrackConfig(**{**cfg.__dict__, **overrides})
    provider = _excess_provider(source, cfg)
    radii = _dyadic_radii(cfg)
    excess_by_r = {}
    intervals: list[IntervalRecord] = []
    gaps = []
    current = None
    power = 2.0 - 2.0 * cfg.delta2

    for r in radii:
        E, plane = provider(r)
        excess_by_r[r] = E
        if current is None:
            if E <= cfg.eps3_sq:
                m0 = max(E, cfg.eps_bar ** 2 * r ** power)
                current = {"t": r, "m0": m0, "plane": plane}
            else:
                gaps.append(r)
            continue
        # interval continuation checks at r < t
        reason = None
        if E > cfg.eps3_sq:
            reason = "excess"
        elif E > cfg.c_e * current["m0"] * (r / current["t"]) ** power:
            reason = "concentration"
        elif current["plane"] is not None and plane is not None:
            drift = float(np.linalg.norm(plane.tilt - current["plane"].tilt))
            if drift > cfg.tilt_jump * math.sqrt(current["m0"]):
                reason = "drift"
        if reason is None:
            continue
        intervals.append(IntervalRecord(
            j=len(intervals), s=r, t=current["t"], m0=current["m0"],
            plane=current["plane"], end_reason=reason))
        if reason == "excess":
            current = None
            gaps.append(r)
        else:
            m0 = max(E, cfg.eps_bar ** 2 * r ** power)
            current = {"t": r, "m0": m0, "plane": plane}
    if current is not None:
        intervals.append(IntervalRecord(
            j=len(intervals), s=cfg.r_floor, t=current["t"],
            m0=current["m0"], plane=current["plane"], end_reason="floor",
            reaches_floor=True))
    return ScaleIntervals(intervals=intervals, gaps=gaps, radii=radii,
                          excess_by_r=excess_by_r, config=cfg,
                          empty=not intervals)


# ----------------------------------------------------------------------------
# stitched frequency


@dataclass
class ProfileRecord:
    r: float
    j: int
    I: float
    jump_flag: bool = False


@dataclass
class JumpRecord:
    t: float
    I_left: float      # limit from within the lower interval, at its top
    I_right: float     # limit from the interval above, coming down to t
    m0: float


@dataclass
class UniversalProfile:
    records: list
    jumps: list
    interval_m0: list
    notes: dict = field(default_factory=dict)

    def records_csv(self) -> str:
        lines = ["r,j,I,jump_flag"]
        for rec in sorted(self.records, key=lambda rec: rec.r):
            lines.append(f"{rec.r:.17g},{rec.j},{rec.I:.17g},"
                         f"{int(rec.jump_flag)}")
        return "\n".join(lines) + "\n"

    def jumps_csv(self) -> str:
        lines = ["t_j,I_left,I_right,m0_j"]
        for jp in sorted(self.jumps, key=lambda jp: jp.t):
            lines.append(f"{jp.t:.17g},{jp.I_left:.17g},"
                         f"{jp.I_right:.17g},{jp.m0:.17g}")
        return "\n".join(lines) + "\n"


def universal_frequency(f: QFunction, intervals: ScaleIntervals,
                        points_per_octave: int = 1,
                        cutoff: Cutoff = RAMP) -> UniversalProfile:
    """Stitch per-interval frequency profiles across the flattening scales.

    Interval j is recorded on ]s_j, t_j] at the rings of its blow-up at t_j,
    each record being I of the average-free part v of f at that radius (the
    blow-up is a view of v, and its plane drops out with the average; the
    plane only truncates).  Jumps are recorded at interior seams; both
    sides read v at t_j, so they are zero in this linearized stand-in."""
    if intervals.empty:
        raise DataError("no flattening intervals below the threshold")
    v = average_free_part(f)
    rpo = int(round(math.log(2.0) / f.grid.dt))
    stride = max(rpo // max(points_per_octave, 1), 1)
    records = []
    jumps = []
    truncated = []
    for rec in intervals.intervals:
        # refuses tops above r_max and blow-ups left with too few rings
        _, radii = _blowup_radii(f.grid, rec.t)
        if rec.plane is not None and rec.plane.tilt_norm > REPARAM_TILT_MAX:
            truncated.append(rec.j)
            continue
        # every stride-th blow-up ring x down from the top, at r = rho t_j
        # in ]s_j, t_j], while the cutoff kink x / 2 stays on the blow-up
        x = radii[::-stride]
        rho = x / radii[-1]
        keep = (rho > rec.s / rec.t * (1 + 1e-12)) \
            & (x / 2 >= radii[0] * (1 - 1e-12))
        for r in (rho[keep] * rec.t)[::-1].tolist():
            fr = _record_at(v, r, cutoff)
            if fr.valid:
                records.append(ProfileRecord(r=r, j=rec.j, I=fr.I))
    # seams: interval j meets interval j-1 at t_j; both sides read v there
    for j in range(1, len(intervals.intervals)):
        if not intervals.coinciding(j):
            continue
        if j in truncated or (j - 1) in truncated:
            continue
        rec = intervals.intervals[j]
        seam = _record_at(v, rec.t, cutoff)
        if not seam.valid:
            continue
        jumps.append(JumpRecord(t=rec.t, I_left=seam.I, I_right=seam.I,
                                m0=rec.m0))
        for pr in records:
            if pr.j == rec.j and abs(pr.r - rec.t) <= 1e-12 * rec.t:
                pr.jump_flag = True
    return UniversalProfile(
        records=records, jumps=jumps,
        interval_m0=[rec.m0 for rec in intervals.intervals],
        notes={"truncated_intervals": truncated,
               "label": f.metadata.get("label", "")})


# ----------------------------------------------------------------------------
# BV accounting


def _neg(x: float) -> float:
    return -x if x < 0 else 0.0


def bv_negative_variation(profile: UniversalProfile) -> dict:
    """Total negative variation of log(I + 1) along increasing radius,
    split into the within-interval part and the seam-jump part."""
    records = sorted(profile.records, key=lambda rec: (rec.r, rec.j))
    if len(records) < 2:
        raise DataError("profile needs at least 2 records")
    by_interval: dict = {}
    for rec in records:
        by_interval.setdefault(rec.j, []).append(rec)
    entry = {}  # interval j -> I value entering from below at its bottom
    jump_part = 0.0
    for jp in profile.jumps:
        jump_part += _neg(math.log(jp.I_right + 1) - math.log(jp.I_left + 1))
    for jp in profile.jumps:
        above = [j for j, recs in by_interval.items()
                 if recs[0].r > jp.t * (1 + 1e-12)]
        if above:
            # interval indices grow downward, so the adjacent interval
            # above the seam is the largest index among those above it
            entry[max(above)] = (jp.t, jp.I_right)
    ac_part = 0.0
    for j, recs in by_interval.items():
        seq = [rec.I for rec in recs]
        if j in entry:
            seq = [entry[j][1]] + seq
        for a, b in zip(seq, seq[1:]):
            ac_part += _neg(math.log(b + 1) - math.log(a + 1))
    return {"total": ac_part + jump_part, "ac_part": ac_part,
            "jump_part": jump_part}


def bv_budget(profile: UniversalProfile, gamma4: float = 0.25) -> dict:
    """Measured constant of the negative-variation budget: the total against
    the sum of interval parameters m0_j^gamma4."""
    bv = bv_negative_variation(profile)
    budget = float(sum(m0 ** gamma4 for m0 in profile.interval_m0))
    c_meas = bv["total"] / budget if budget > 0 else 0.0
    return {**bv, "budget": budget, "gamma4": gamma4, "C_meas": c_meas}
