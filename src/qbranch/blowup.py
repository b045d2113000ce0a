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
estimate reads none.  On a map harmonic on its monodromy cover, column B
of v's ring table, the angular integral of |v|^2, is a sum of powers
sum_k P_k r^{2 alpha_k}, and the limit is the least alpha_k.  So the value
is half the leading exponent of column B over v's rings in
[8 r_min, 64 r_min], read by RadialRule.spectrum from one SVD, with no
derivative, quadrature or rate model.  frequency_limit over the same rings,
whose rate beta is measured, reads the paper's definition on its own and
checks it: the value stands when the exponents are real, the residual is
within SPECTRUM_RESIDUAL, or within the spectrum's floor on noisy samples,
and the value is within the convergence tolerance of the limit (the
harmonicity gate).  Else the value is the limit, the estimate is
unconverged and notes["spectrum_note"] names the failed check.  The
disjoint three-octave windows above, [64 r_min, 512 r_min] and so on while
their top stays within r_max, test the limit: the spread is max - min of
the windows' limits, and the estimate is converged when at least two
windows fit, the spread is within the convergence tolerance and the
spectrum passes.  When only one window fits, as on a grid with room for
one, the estimate is unconverged and notes["convergence_note"] says why;
when none fits, DataError.  The
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
differentiates nothing that is cached, and shares the degree's exponent
reader: its alpha, growth exponent and closed form come from one
RadialRule.spectrum of column B over [rho, 1/2].  The tables, and the
average-free part, a view of its parent's samples whose tables come from
one sweep of them whichever caller built them first, are built in curves;
so a degree estimate never forms v's samples.  A value below
1 - convergence_tol is flagged in notes["below_one_note"]: the paper
proves the degree is at least 1 at a flat singular point of a minimizer.
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
#: a degree's spectrum fits column B of v's ring table to this relative
#: l2 misfit, or to its order floor where that is more (noisy samples)
SPECTRUM_RESIDUAL = 1e-10


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

    The value is half the leading exponent of column B of v's ring table,
    v the average-free part, over its rings in [8 r_min, 64 r_min]
    (_spectral_degree), or the frequency limit over those rings when one
    of the spectrum's checks fails, with notes["spectrum_note"] naming it.
    The spread is max - min over the limits of the disjoint three-octave
    windows [8^j 8 r_min, 8^j 64 r_min] within r_max, and converged means
    that two of them fit and agree within convergence_tol and that the
    spectrum passed.  The normalized blow-ups along r_k = scale_factor^k
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
    steps, values, fitting = [], [], []
    for k, window in windows.items():
        try:
            steps.append((k, cfg.scale_factor ** k, limit(window)))
        except DataError as exc:
            failures[k] = str(exc)
    for window in limits:
        with suppress(DataError):
            values.append(limit(window))
            fitting.append(window)
    failures = sorted(failures.items())
    if len(steps) < 3 or not values:
        raise DataError(
            f"{len(steps)} usable blow-up steps (need 3) and "
            f"{len(values)} fitting limit windows (need 1); "
            f"failures: {failures}")
    spread = max(values) - min(values)
    value, notes = _spectral_degree(v, fitting[0], values[0], cfg)
    converged = not notes and len(values) > 1 and spread <= cfg.convergence_tol
    est = DegreeEstimate(value, spread, steps, converged, notes)
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


def _spectral_degree(v: QFunction, window: list, limit: float,
                     cfg: BlowupConfig) -> tuple[float, dict]:
    """(value, notes): half the leading exponent of column B of v's ring
    table over window, RadialRule.spectrum's, and no notes when its three
    checks hold: every exponent real, a residual within SPECTRUM_RESIDUAL
    or the spectrum's floor, whichever is more, and a value within
    cfg.convergence_tol of limit, the window's frequency limit.  The
    spectrum's floor keeps its order below half the Hankel matrix's rank.
    Column B is a sum of powers only on a map harmonic on its cover, and
    there its leading exponent is twice the frequency limit, so the last
    check is the harmonicity gate.  When a check fails, or the window has no
    spectrum, the value is limit and notes["spectrum_note"] names the
    check."""
    try:
        spec = v.rule().spectrum(_ring_data(v)[0][:, 1], window[0], window[-1])
    except DataError as exc:
        return limit, {"spectrum_note": f"column B's spectrum: {exc}"}
    lam, deg, res = spec.exponents, spec.leading().real / 2, spec.residual
    for failed, why in [
            (np.any(lam.imag), f"non-real exponents {lam.round(6).tolist()}"),
            (res > max(SPECTRUM_RESIDUAL, spec.floor), f"residual {res:.3g}"),
            (abs(deg - limit) > cfg.convergence_tol, f"degree {deg!r} is off"
             f" the frequency limit {limit!r}: not harmonic on its cover")]:
        if failed:
            return limit, {"spectrum_note": f"column B's spectrum: {why}"}
    return deg, {}


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


def hardt_simon_check(f: QFunction, rho_inner: float) -> HardtSimonResult:
    """Quadrature of int_{B_1/2 \\ B_rho} sum_i |d/dr (f_i/|x|)|^2 dx and its
    comparison with the closed form read off one RadialRule.spectrum of
    column B of f's ring table, B = |f|^2, over the rings in [rho, 1/2]:
    with B = Re sum_k a_k (r / r0)^lambda_k, the integral of
    (lambda_k / 2 - 1)^2 a_k (s / r0)^lambda_k s^-3 over [rho, 1/2] summed,
    Re sum_k (lambda_k - 2) / 4 a_k r0^-lambda_k
    (2^{2 - lambda_k} - rho^{lambda_k - 2}).  It is exact on every map whose
    column B is a sum of powers, homogeneous maps and their unions.

    alpha_used is half the leading exponent, the least degree among the
    powers.  The integral stays bounded as rho decreases exactly when it is
    at least 1, and grows like rho^{2 alpha - 2} when it is less: the
    leading exponent less 2 is growth_exponent, which flags divergence.
    RangeError when rho_inner is below two grid floors, or above 1/8, where
    the spectrum's window [rho, 1/2] spans less than two octaves; DataError
    from the spectrum, as when B vanishes at rho.  The integrand
    (P - 2 C / r + B / r^2) / r^2, with C = f . f_r and P = |f_r|^2, is
    read off the ring table too."""
    grid = f.grid
    if not rho_inner >= grid.r_min * 2 * (1 - 1e-12):
        raise RangeError("rho_inner must be at least two grid floors")
    if not rho_inner <= 0.125:
        raise RangeError("rho_inner must be at most 1/8, so that the "
                         "spectrum's window [rho, 1/2] spans two octaves")
    if grid.r_max < 0.5:
        raise RangeError("grid must reach radius 1/2")
    rule = f.rule()
    _, B, C, P = _ring_data(f)[0].T
    r = grid.radii
    integral = float(rule.weights(math.log(rho_inner), math.log(0.5), 2.0)
                     @ ((P - 2.0 * C / r + B / r ** 2) / r ** 2))
    spec = rule.spectrum(B, rho_inner, 0.5)
    lam, lead = spec.exponents, spec.leading().real
    closed = float(np.sum((lam - 2) / 4 * spec.amplitudes * spec.r0 ** -lam
                          * (0.5 ** (lam - 2) - rho_inner ** (lam - 2))).real)
    boundary_l2 = float(B[-1] / r[-1] ** lead)
    residual = abs(integral - closed)
    if closed > 1e-12 * max(1.0, boundary_l2):
        residual /= closed
    return HardtSimonResult(integral=integral,
                            polar_identity_residual=residual,
                            alpha_used=lead / 2,
                            growth_exponent=lead - 2,
                            divergent=lead - 2 < -0.05,
                            boundary_l2=boundary_l2)
