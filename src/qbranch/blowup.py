"""Rescaling machinery and the singularity-degree estimator.

rescale realizes the graph dilation f_r(x) = f(r x) / r.  It is
known exactly at x_i = r_i / r for f's own rings r_i, so every blow-up lives
on f's rings relabelled, for any ratio r, with no interpolation.  Blow-ups
are normalized either by the square root of the optimal-plane excess at the
scale, or by the L2 norm on a reference ball (giving a unit-norm rescaling).
A blow-up is a view (curves._View) that holds f and its divisor: its own
samples, f's first rings over the divisor, are formed when first read, and
a degree step never reads them, nor, through them, the samples of the
average-free part it dilates.

The degree is a limit of v's frequency, v the average-free part, and the
paper proves that it does not depend on the sequence of scales, so the
estimate reads none: it is frequency_limit, whose rate beta is measured,
over v's rings in [8 r_min, 64 r_min].  The disjoint three-octave windows
above it, [64 r_min, 512 r_min] and so on while their top stays within
r_max, test it: the spread is max - min of the windows' limits, and the
estimate is converged when at least two windows fit and the spread is
within the convergence tolerance.  When only one window fits, as on a grid
with room for one, the estimate is unconverged and
notes["convergence_note"] says why; when none fits, DataError.  The
normalized blow-ups at r_k = scale^k remain as the report: each step's
frequency limit over its top octave is listed, and a step whose normalizer
is refused is listed as failed.  Degree, stitched frequency and Hardt-Simon
check all measure _branched_part, one object per map.  For the perturbed
curves whose sheet average dominates the branching at small scale, the
estimator reports the degree of the average-free (branched) part and flags
the discrepancy with the full-graph contact order instead of silently
choosing one of the two numbers.  The curve a map claims is read through
CurveSpec.from_metadata, before any sweep, so a malformed claim is refused
with ConfigError; this module names no key of it.

I is scale and amplitude invariant, so every step's records are records of
the measured object v: the blow-up u_k = c v(r_k .) has I_{u_k}(s) =
I_v(r_k s), and its top octave is v's octave below r_m, the ring of v that
is u_k's top ring.  One frequency profile of v over the union of the steps'
windows and the limit windows gives every record, and each window's
frequency limit reads its own records.  So a degree estimate differentiates
v once, and a step's blow-up gives only its normalizer, with the
normalizer's refusals, and its top ring: its samples are never formed and
no ring table is built for it.  The l2_norm normalizer is read off v's ring
table, and the degeneracy guard's amplitude of v is taken once per map.
The estimator lists every step that failed, with the reason, in step order
under notes["step_failures"], a reference ball leaving the grid included.
The Hardt-Simon check reads the map's ring table as well, so it
differentiates nothing that is cached.  The tables, and the average-free
part, a view of its parent's samples whose tables come from one sweep of
them whichever caller built them first, are built in curves; so a degree
estimate never forms v's samples.  A value below 1 - convergence_tol is
flagged in notes["below_one_note"]: the paper proves the degree is at
least 1 at a flat singular point of a minimizer.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (ConfigError, DataError, DegenerateBlowupError,
                     DimensionError, RangeError)
from .grids import M_DIM, PolarGrid
from .curves import (QFunction, average_free_part, CurveSpec, _View, _json,
                     _ring_amplitudes, _ring_data)
from .excess import least_excess
from .frequency import (frequency_profile, frequency_limit,
                        default_profile_radii)

#: normalizers below this relative size abort the blow-up as trivial
DEGENERACY_FLOOR = 1e-14


@dataclass(frozen=True)
class BlowupConfig:
    scale_factor: float = 0.5
    max_steps: int = 14
    normalization: str = "l2_norm"   # or "excess_sqrt"
    convergence_tol: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.scale_factor < 1.0):
            raise ConfigError("scale_factor must be in (0, 1)")
        if not self.max_steps >= 1:
            raise ConfigError("max_steps must be at least 1")
        if self.normalization not in ("l2_norm", "excess_sqrt"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if not self.convergence_tol > 0:
            raise ConfigError("convergence_tol must be positive")


@dataclass
class DegreeEstimate:
    value: float
    spread: float
    per_step_I: list
    converged: bool
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _json({"value": self.value, "spread": self.spread,
                      "converged": self.converged,
                      "per_step": [{"k": k, "r": r, "I": I}
                                   for (k, r, I) in self.per_step_I],
                      **self.notes})


# ----------------------------------------------------------------------------
# dilation


def rescale(f: QFunction, r: float = 1.0) -> QFunction:
    """Graph dilation f_r(x) = f(r x) / r at the grid center, sampled
    exactly.

    The blow-up lives on f's rings relabelled, x_i = r_i / r, where it is
    f's samples divided by r; it keeps the rings with x_i inside f's disk.
    A dilation at another point is rescale(recenter(f, q), r)."""
    return _dilate(f, r, r)


def _dilate(f: QFunction, r: float, divisor: float) -> QFunction:
    """The dilation of f by r with its samples divided by divisor (r for
    the graph dilation): a view (curves._View) of f's first m rings, which
    holds f, so that dilating an average-free part forms neither its
    samples nor the dilation's.  The samples of f are finite, the divisor
    positive and the largest quotient finite, so every quotient is."""
    m, radii = _blowup_radii(f.grid, r)
    # x -> |x| / divisor is monotone: the largest quotient is finite iff
    # every quotient is
    with np.errstate(over="ignore"):
        if not math.isfinite(_ring_amplitudes(f)[:m].max() / divisor):
            raise DimensionError("samples must be finite")
    grid = PolarGrid(radii=radii, n_theta=f.grid.n_theta,
                     center=f.grid.center)
    return _View(lambda: f.values[:, :m] / divisor,
                 (f.q, m, grid.n_theta, f.n), grid, f.monodromy.copy(),
                 {**f.metadata, "rescaled_by": float(r)})


def _blowup_radii(grid: PolarGrid, r: float):
    """The grid of a dilation by r, as (m, radii): f's first m rings
    relabelled, radii r_i / r, where m counts the rings with r_i <= r r_max.
    Refuses ratios outside ]0, r_max] and blow-ups left with fewer than 12
    rings (keeping every ring is never refused)."""
    if r <= 0:
        raise RangeError("dilation ratio must be positive")
    if r > grid.r_max * (1 + 1e-12):
        raise RangeError("dilation ratio exceeds the sampled disk")
    m = int(np.count_nonzero(grid.radii <= r * grid.r_max * (1 + 1e-12)))
    if m < min(12, grid.n_rings):
        raise RangeError("dilation leaves too few rings")
    return m, grid.radii[:m] / r


# ----------------------------------------------------------------------------
# the measured object


def _branched_part(f: QFunction) -> QFunction:
    """The measured object: f's average-free part, or f when single-valued."""
    return average_free_part(f) if f.q > 1 else f


# ----------------------------------------------------------------------------
# normalized blow-ups


def l2_norm_on_ball(f: QFunction, radius: float) -> float:
    """sqrt of int_{B_radius} |f|^2, read off column B of f's ring table
    as frequency.dirichlet_energy reads column A."""
    return float(np.sqrt(f.rule()._disk_integral(_ring_data(f), radius)[1]))


def coarse_blowup_normalize(f: QFunction, r: float, mode: str = "l2_norm",
                            reference: float = 1.5) -> QFunction:
    """Blow up at scale r and divide by the chosen normalizer.

    l2_norm divides by the L2 norm of the blow-up on the reference ball
    B_reference (measured on the original grid over B_{reference * r}), so
    the result has unit norm there.  excess_sqrt divides by the square root
    of the least excess at scale r over all planes, graph planes or not."""
    grid = f.grid
    grid.require_radius(r)
    amplitude = float(_ring_amplitudes(f).max())
    if mode == "l2_norm":
        r_ref = reference * r
        if r_ref > grid.r_max * (1 + 1e-12):
            raise RangeError(
                f"reference ball {reference} * {r} exceeds the grid")
        # the norm of the blow-up on B_reference scales from f's on B_r_ref
        normalizer = l2_norm_on_ball(f, r_ref) * r ** (-(M_DIM + 2) / 2.0)
    elif mode == "excess_sqrt":
        ex = least_excess(f, r)
        normalizer = math.sqrt(max(ex, 0.0))
    else:
        raise ConfigError(f"unknown normalization {mode!r}")
    if not np.isfinite(normalizer) or normalizer <= DEGENERACY_FLOOR * max(1.0, amplitude):
        raise DegenerateBlowupError(
            f"normalizer {normalizer!r} at scale {r} is degenerate, "
            "the blow-up would be trivial")
    # one pass: at power-of-two r this is (f / r) / normalizer bit for bit
    out = _dilate(f, r, r * normalizer)
    out.metadata["blowup"] = {"r": float(r), "mode": mode,
                              "normalizer": float(normalizer)}
    return out


# ----------------------------------------------------------------------------
# degree estimation


def singularity_degree(f: QFunction, cfg: BlowupConfig | None = None) -> DegreeEstimate:
    """Estimate the singularity degree of the graph at the grid center.

    The value is the frequency limit of v, the average-free part, over its
    rings in [8 r_min, 64 r_min]; the spread is max - min over the limits
    of the disjoint three-octave windows [8^j 8 r_min, 8^j 64 r_min] within
    r_max, and converged means that two of them fit and agree within
    convergence_tol.  The normalized blow-ups along r_k = scale_factor^k
    are the per-step report: each step's frequency limit over its top
    octave.  Every record is read off one frequency profile of v (see the
    module docstring).  A value below 1 - convergence_tol, which the paper
    rules out at a flat singular point of a minimizer, is flagged in
    notes["below_one_note"].  DataError when fewer than three steps are
    usable, or no window fits.  It measures _branched_part(f): the shared
    average-free part, or a single-valued map itself.  The curve f
    claims (CurveSpec.from_metadata) is read first, so a malformed claim is
    refused with ConfigError before any sweep."""
    if cfg is None:
        cfg = BlowupConfig()
    claim = CurveSpec.from_metadata(f.metadata)
    v = _branched_part(f)
    grid = v.grid
    windows, failures = {}, {}
    for k in range(1, cfg.max_steps + 1):
        r_k = cfg.scale_factor ** k
        # the blow-up keeps log2(r_k / r_min) octaves; the top-octave window
        # needs three octaves of room below it
        if r_k < grid.r_min * 8 * (1 - 1e-12):
            break
        try:
            u_k = coarse_blowup_normalize(v, r_k, cfg.normalization)
        except (DegenerateBlowupError, DataError, RangeError) as exc:
            failures[k] = str(exc)
            continue
        # I_{u_k}(s) = I_v(r_k s): u_k's top octave is v's octave below
        # r_m, the ring of v that is u_k's top ring
        windows[k] = default_profile_radii(
            grid, octaves=1.0, top=grid.radii[u_k.grid.n_rings - 1])
    # disjoint three-octave windows of v's rings from 8 r_min up: the
    # lowest one's limit is the estimate, the others test it
    limits, top = [], 64 * grid.r_min
    while top <= grid.r_max * (1 + 1e-12):
        limits.append(default_profile_radii(grid, octaves=3.0, top=top))
        top *= 8
    union = sorted({r for w in [*windows.values(), *limits] for r in w})
    # no window at all: the DataError below, not frequency_profile's refusal
    prof = frequency_profile(v, radii=union) if union else None

    def limit(w):
        # every window is a run of consecutive rings, so its records are a
        # run of prof.records
        i = union.index(w[0])
        return frequency_limit(replace(
            prof, radii=w, records=prof.records[i:i + len(w)]))["estimate"]
    steps, values = [], []
    for k, window in windows.items():
        try:
            steps.append((k, cfg.scale_factor ** k, limit(window)))
        except DataError as exc:
            failures[k] = str(exc)
    for window in limits:
        with suppress(DataError):
            values.append(limit(window))
    failures = sorted(failures.items())
    if len(steps) < 3 or not values:
        raise DataError(
            f"{len(steps)} usable blow-up steps (need 3) and "
            f"{len(values)} fitting limit windows (need 1); "
            f"failures: {failures}")
    spread = max(values) - min(values)
    converged = len(values) > 1 and spread <= cfg.convergence_tol
    est = DegreeEstimate(values[0], spread, steps, converged)
    if len(values) < 2:
        est.notes["convergence_note"] = ("only one three-octave limit window "
                                         "fits; convergence needs two")
    if est.value < 1 - cfg.convergence_tol:
        est.notes["below_one_note"] = (
            "degree below 1: at a flat singular point of an area-minimizing "
            "current the degree is at least 1, so this map is none")
    if failures:
        est.notes["step_failures"] = [[k, reason] for k, reason in failures]
    _flag_average_discrepancy(claim, est)
    return est


def _flag_average_discrepancy(claim: CurveSpec | None, est: DegreeEstimate):
    """When the input claims a test curve, compare the measured
    average-free degree with the curve's full-graph contact order and flag
    a mismatch, which only a perturbation can make."""
    if claim is None:
        return
    ref = claim.contact_order()
    est.notes["reference_degree"] = ref
    est.notes["measured_object"] = "average_free"
    if claim.has_perturbation and \
            abs(est.value - ref) > max(0.05, 3 * est.spread):
        est.notes["discrepancy"] = True
        est.notes["discrepancy_note"] = (
            "average-free degree differs from the full-graph contact order; "
            "the sheet average dominates the branching at small scale")


# ----------------------------------------------------------------------------
# homogeneity and the Hardt-Simon functional


def homogeneity_check(f: QFunction, alpha: float) -> float:
    """Sup over grid-aligned (r, x) of |f(r x) - r^alpha f(x)| relative to
    r^alpha times the L2 norm of f; zero exactly on alpha-homogeneous data."""
    grid = f.grid
    v = f.values
    R = grid.n_rings
    l2 = l2_norm_on_ball(f, grid.r_max)
    if l2 <= 0:
        return 0.0
    worst = 0.0
    for shift in range(1, R - 1):
        ratio = float(grid.radii[0] / grid.radii[shift])  # = rho^shift < 1
        diff = v[:, :R - shift] - ratio ** alpha * v[:, shift:]
        dist = np.sqrt(np.einsum("krtn,krtn->rt", diff, diff))
        worst = max(worst, float(dist.max()) / (ratio ** alpha * l2))
    return worst


@dataclass
class HardtSimonResult:
    integral: float
    polar_identity_residual: float
    alpha_used: float
    growth_exponent: float
    divergent: bool
    boundary_l2: float

    def to_json(self) -> str:
        return _json(asdict(self))


def hardt_simon_check(f: QFunction, rho_inner: float,
                      alpha: float | None = None) -> HardtSimonResult:
    """Quadrature of int_{B_1/2 \\ B_rho} sum_i |d/dr (f_i/|x|)|^2 dx and its
    comparison with the homogeneous closed form
    (alpha-1)^2 * int_{dB_1} |f|^2 * int_rho^{1/2} s^{2 alpha - 3} ds.

    The integral stays bounded as rho decreases exactly when alpha >= 1;
    for alpha < 1 it grows like rho^{2 alpha - 2}.  The growth exponent is
    the log-log slope of the annulus integrals int_{B_2s \\ B_s} over
    s in {rho, 2 rho, 4 rho} with 2s <= 1/2, exact powers s^{2 alpha - 2} on
    an alpha-homogeneous map, and doubles as a divergence detector.
    RangeError when rho_inner is below two grid floors, or above 1/8, where
    fewer than two annuli fit below 1/2.  All is read off f's ring table:
    with B = |f|^2, C = f . f_r and P = |f_r|^2 the integrand is
    (P - 2 C / r + B / r^2) / r^2, and B gives the boundary data."""
    grid = f.grid
    if not rho_inner >= grid.r_min * 2 * (1 - 1e-12):
        raise RangeError("rho_inner must be at least two grid floors")
    if not rho_inner <= 0.125:
        raise RangeError("rho_inner must be at most 1/8, so that two "
                         "annuli [s, 2s] fit below 1/2 for the growth fit")
    if grid.r_max < 0.5:
        raise RangeError("grid must reach radius 1/2")
    rule = f.rule()
    _, B, C, P = _ring_data(f)[0].T
    r = grid.radii
    W = (P - 2.0 * C / r + B / r ** 2) / r ** 2

    def integral_over(a, b, F=W):
        return float(rule.weights(math.log(a), math.log(b), 2.0) @ F)

    integral = integral_over(rho_inner, 0.5)

    # boundary data and homogeneity estimate
    i_top = grid.n_rings - 1
    i_mid = max(i_top - 16, 0)
    if alpha is None:
        ell_top, ell_mid = B[i_top], B[i_mid]
        if ell_top <= 0 or ell_mid <= 0:
            alpha = 1.0
        else:
            alpha = float(np.log(ell_top / ell_mid)
                          / (2.0 * (grid.t[i_top] - grid.t[i_mid])))
    boundary_l2 = float(B[i_top] / grid.radii[i_top] ** (2 * alpha))

    if abs(alpha - 1.0) < 1e-12:
        closed = 0.0
    else:
        ex = 2.0 * alpha - 2.0
        closed = (alpha - 1.0) ** 2 * boundary_l2 \
            * (0.5 ** ex - rho_inner ** ex) / ex
    residual = abs(integral - closed)
    if closed > 1e-12 * max(1.0, boundary_l2):
        residual /= closed

    scales = [s for s in (rho_inner, 2 * rho_inner, 4 * rho_inner)
              if 2 * s <= 0.5]
    vals = [integral_over(s, 2 * s) for s in scales]
    # W's terms cancel on a 1-homogeneous map: below 1e-12 of theirs is noise
    size = [integral_over(s, 2 * s, (P + B / r ** 2) / r ** 2)
            for s in scales]
    slope = float(np.polyfit(np.log(scales), np.log(vals), 1)[0]) \
        if all(v > 1e-12 * z for v, z in zip(vals, size)) else 0.0
    return HardtSimonResult(integral=integral,
                            polar_identity_residual=residual,
                            alpha_used=float(alpha),
                            growth_exponent=slope,
                            divergent=slope < -0.05,
                            boundary_l2=boundary_l2)
