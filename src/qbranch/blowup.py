"""Rescaling machinery and the singularity-degree estimator.

rescale realizes the graph dilation f_{q,r}(x) = f(q + r x) / r.  When r is
a grid radius ratio the operation is an exact ring shift on the geometric
grid; otherwise sheets are interpolated cubically in log r.  Blow-ups are
normalized either by the square root of the optimal-plane excess at the
scale, or by the L2 norm on a reference ball (giving a unit-norm rescaling).

The degree estimator runs the pipeline

    average-free part -> normalized blow-up at r_k = scale^k
                      -> frequency limit over the top octave of each step,

and aggregates the per-step values by the median over the trailing steps
whose values agree within the convergence tolerance.  For the perturbed
curves whose sheet average dominates the branching at small scale, the
estimator reports the degree of the average-free (branched) part and flags
the discrepancy with the full-graph contact order instead of silently
choosing one of the two numbers.

Blow-up steps at different scales are independent once the average-free
input is built; the estimator aggregates them in step order, so results do
not depend on evaluation order, and it lists the steps that failed, with
the reason, under notes["step_failures"].  An exact ring-shift blow-up
u = c f(r .) reads its ring table off f's (scale invariance of the ring
profiles): every row but the top three is f's row rescaled, and only those
three, where u's radial stencil turns one-sided, are differentiated anew.
So a degree estimate differentiates the average-free part once, not once
per step; off-lattice ratios build their own table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DataError, DegenerateBlowupError, RangeError)
from .grids import (M_DIM, PolarGrid, _cubic_window, _ring_profile,
                    d_dr_geometric)
from .curves import QFunction, analytic_degree, CurveSpec
from .frequency import (_seed_blowup_ring_data, frequency_profile,
                        frequency_limit, recenter, default_profile_radii)

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
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if self.normalization not in ("l2_norm", "excess_sqrt"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.convergence_tol <= 0:
            raise ConfigError("convergence_tol must be positive")


@dataclass
class DegreeEstimate:
    value: float
    spread: float
    per_step_I: list
    converged: bool
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "value": self.value,
            "spread": self.spread,
            "converged": self.converged,
            "per_step": [{"k": k, "r": r, "I": I}
                         for (k, r, I) in self.per_step_I],
        }
        payload.update(self.notes)
        return json.dumps(payload, sort_keys=True, indent=1)


# ----------------------------------------------------------------------------
# dilation


def rescale(f: QFunction, q=None, r: float = 1.0) -> QFunction:
    """Graph dilation f_{q,r}(x) = f(q + r x) / r on the standard grid.

    q defaults to the grid center.  Requires q + r B_1 inside the sampled
    disk.  Grid-aligned ratios r shift rings exactly; other ratios use cubic
    interpolation in log r, sheetwise (labels are already consistent)."""
    if q is not None and not np.allclose(q, f.grid.center, atol=1e-15):
        f = recenter(f, q)
    grid = f.grid
    shift, radii_out = _blowup_radii(grid, r)
    if shift == 0:
        return f.replace_values(f.values.copy(), note="rescale r=1")
    meta = dict(f.metadata)
    meta["rescaled_by"] = float(r)
    if shift is not None:
        values = f.values[:, :grid.n_rings - shift] / r
    else:
        # off-lattice ratio: sample f at r * x for output radii x
        values = _sample_rings(f.values, grid, np.log(radii_out * r)) / r
    new_grid = PolarGrid(radii=radii_out, n_theta=grid.n_theta,
                         center=grid.center)
    return QFunction(grid=new_grid, values=values,
                     monodromy=f.monodromy.copy(), metadata=meta)


def _blowup_radii(grid: PolarGrid, r: float):
    """The rings x of grid that a dilation by r keeps, those with r x still
    sampled, as (shift, radii).  shift is 0 for the identity, the number of
    rings an exact ring-shift blow-up moves the grid down, or None for an
    off-lattice ratio.  Refuses ratios outside ]0, r_max] and blow-ups left
    with fewer than 12 rings."""
    if r <= 0:
        raise RangeError("dilation ratio must be positive")
    if r > grid.r_max * (1 + 1e-12):
        raise RangeError("dilation ratio exceeds the sampled disk")
    if abs(r - 1.0) < 1e-15:
        return 0, grid.radii
    shift = _ring_shift(grid, r)
    if shift is not None:
        radii = grid.radii[shift:]
    else:
        radii = grid.radii[grid.radii * r >= grid.r_min * (1 - 1e-12)]
    if radii.size < 12:
        raise RangeError("dilation leaves too few rings")
    return shift, radii


def _ring_shift(grid: PolarGrid, r: float) -> int | None:
    """The number of rings a dilation by r shifts the grid down when r is
    a positive whole power of the ring ratio, else None."""
    shift_f = -math.log(r) / grid.dt
    shift = int(round(shift_f))
    return shift if abs(shift_f - shift) < 1e-9 and shift >= 1 else None


def _sample_rings(values: np.ndarray, grid: PolarGrid,
                  t_targets: np.ndarray) -> np.ndarray:
    """Cubic interpolation of sheet samples at new log-radii."""
    t = grid.t
    out = np.empty(values.shape[:1] + (t_targets.size,) + values.shape[2:])
    for m, ts in enumerate(t_targets):
        j0, w = _cubic_window(t, ts)
        out[:, m] = np.einsum("c,kctn->ktn", w, values[:, j0:j0 + 4])
    return out


# ----------------------------------------------------------------------------
# averages


def eta_map(f: QFunction) -> QFunction:
    """The sheet average as a single-valued map on the same grid."""
    mean = np.mean(f.values, axis=0, keepdims=True)
    return QFunction(grid=f.grid, values=mean, monodromy=np.array([0]),
                     metadata={**f.metadata, "kind": "sheet-average"})


def average_free_part(f: QFunction) -> QFunction:
    """Subtract the sheet average from every sheet, node by node."""
    mean = np.mean(f.values, axis=0, keepdims=True)
    out = f.replace_values(f.values - mean, note="average-free")
    out.metadata["average_free"] = True
    return out


# ----------------------------------------------------------------------------
# normalized blow-ups


def l2_norm_on_ball(f: QFunction, radius: float) -> float:
    """sqrt of int_{B_radius} |f|^2, read off f's cached ring table when
    it has one (without differentiating f when it has none)."""
    table = f._cache.get("ring_data")
    B = table[1] if table is not None else _ring_profile(f.values)
    return float(np.sqrt(f.rule()._disk_integral(B, radius)))


def coarse_blowup_normalize(f: QFunction, r: float, mode: str = "l2_norm",
                            reference: float = 1.5) -> QFunction:
    """Blow up at scale r and divide by the chosen normalizer.

    l2_norm divides by the L2 norm of the blow-up on the reference ball
    B_reference (measured on the original grid over B_{reference * r}), so
    the result has unit norm there.  excess_sqrt divides by the square root
    of the optimal-plane excess at scale r."""
    grid = f.grid
    grid.require_radius(r)
    amplitude = float(np.abs(f.values).max())
    if mode == "l2_norm":
        r_ref = reference * r
        if r_ref > grid.r_max * (1 + 1e-12):
            raise RangeError(
                f"reference ball {reference} * {r} exceeds the grid")
        raw = l2_norm_on_ball(f, r_ref)
        # norm of the blow-up on B_reference, by scaling the original integral
        normalizer = raw * r ** (-(M_DIM + 2) / 2.0)
    elif mode == "excess_sqrt":
        from .excess import optimal_plane
        ex = optimal_plane(f, r)["excess"]
        normalizer = math.sqrt(max(ex, 0.0))
    else:
        raise ConfigError(f"unknown normalization {mode!r}")
    if not np.isfinite(normalizer) or normalizer <= DEGENERACY_FLOOR * max(1.0, amplitude):
        raise DegenerateBlowupError(
            f"normalizer {normalizer!r} at scale {r} is degenerate, "
            "the blow-up would be trivial")
    # rescale returns fresh samples on every path, so divide them in place
    out = rescale(f, None, r)
    out.values /= normalizer
    if _ring_shift(grid, r) is not None:
        _seed_blowup_ring_data(out, f, r, 1.0 / (r * normalizer))
    out.metadata["blowup"] = {"r": float(r), "mode": mode,
                              "normalizer": float(normalizer)}
    return out


# ----------------------------------------------------------------------------
# degree estimation


def singularity_degree(f: QFunction, cfg: BlowupConfig | None = None) -> DegreeEstimate:
    """Estimate the singularity degree of the graph at the grid center.

    Pipeline: average-free part, then normalized blow-ups along
    r_k = scale_factor^k, then the frequency limit of each step over its top
    octave.  The estimate is the median over the trailing steps that agree
    within convergence_tol.  Single-valued maps are measured directly (their
    average-free part is identically zero, there is no branched part to
    separate)."""
    if cfg is None:
        cfg = BlowupConfig()
    v = average_free_part(f) if f.q > 1 else f
    grid = f.grid
    steps = []
    failures = []
    for k in range(1, cfg.max_steps + 1):
        r_k = cfg.scale_factor ** k
        # the blow-up keeps log2(r_k / r_min) octaves; the top-octave window
        # needs three octaves of room below it
        if r_k < grid.r_min * 8 * (1 - 1e-12):
            break
        if 1.5 * r_k > grid.r_max * (1 + 1e-12):
            continue
        try:
            u_k = coarse_blowup_normalize(v, r_k, cfg.normalization)
            radii = default_profile_radii(u_k.grid, octaves=1.0,
                                          top=u_k.grid.r_max)
            prof = frequency_profile(u_k, radii=radii)
            lim = frequency_limit(prof)
        except (DegenerateBlowupError, DataError) as exc:
            failures.append((k, str(exc)))
            continue
        steps.append((k, r_k, float(lim["estimate"])))
    if len(steps) < 3:
        raise DataError(
            f"only {len(steps)} usable blow-up steps (need 3); "
            f"failures: {failures}")
    values = np.array([I for (_, _, I) in steps])
    best_len = 0
    for L in range(len(values), 2, -1):
        tail = values[-L:]
        if tail.max() - tail.min() <= cfg.convergence_tol:
            best_len = L
            break
    if best_len >= 3:
        tail = values[-best_len:]
        converged = True
    else:
        tail = values[-3:]
        converged = False
    est = DegreeEstimate(value=float(np.median(tail)),
                         spread=float(tail.max() - tail.min()),
                         per_step_I=steps, converged=converged)
    if failures:
        est.notes["step_failures"] = [[k, reason] for k, reason in failures]
    _flag_average_discrepancy(f, est)
    return est


def _flag_average_discrepancy(f: QFunction, est: DegreeEstimate):
    """When the input is a perturbed curve, compare the measured average-free
    degree with the full-graph reference order and flag a mismatch."""
    meta = f.metadata
    if meta.get("kind") != "curve":
        return
    coeffs = [complex(re, im) for re, im in meta.get("h_coeffs", [])]
    spec = CurveSpec(q=int(meta["q"]), p=int(meta["p"]), h_coeffs=coeffs)
    ref = analytic_degree(spec)
    est.notes["reference_degree"] = ref["value"]
    est.notes["measured_object"] = "average_free"
    if ref["kind"] == "reference" and \
            abs(est.value - ref["value"]) > max(0.05, 3 * est.spread):
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
        return json.dumps({
            "integral": self.integral,
            "polar_identity_residual": self.polar_identity_residual,
            "alpha_used": self.alpha_used,
            "growth_exponent": self.growth_exponent,
            "divergent": self.divergent,
            "boundary_l2": self.boundary_l2,
        }, sort_keys=True, indent=1)


def _radial_derivative_profile(f: QFunction) -> np.ndarray:
    """Ring profile of sum_i |d/dr (f_i / |x|)|^2, with the 2 pi weight."""
    w = f.values / f.grid.radii[None, :, None, None]
    return _ring_profile(d_dr_geometric(w, f.grid.radii, axis=1))


def hardt_simon_check(f: QFunction, rho_inner: float,
                      alpha: float | None = None) -> HardtSimonResult:
    """Quadrature of int_{B_1/2 \\ B_rho} sum_i |d/dr (f_i/|x|)|^2 dx and its
    comparison with the homogeneous closed form
    (alpha-1)^2 * int_{dB_1} |f|^2 * int_rho^{1/2} s^{2 alpha - 3} ds.

    The integral stays bounded as rho decreases exactly when alpha >= 1;
    for alpha < 1 it grows like rho^{2 alpha - 2}, and the fitted growth
    exponent doubles as a divergence detector."""
    grid = f.grid
    if rho_inner < grid.r_min * 2 * (1 - 1e-12):
        raise RangeError("rho_inner must be at least two grid floors")
    if grid.r_max < 0.5:
        raise RangeError("grid must reach radius 1/2")
    rule = f.rule()
    W = _radial_derivative_profile(f)

    def integral_from(rho):
        return float(rule.weights(math.log(rho), math.log(0.5), 2.0) @ W)

    integral = integral_from(rho_inner)

    # boundary data and homogeneity estimate
    B = _ring_profile(f.values)
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
    if closed > 1e-12 * max(1.0, boundary_l2):
        residual = abs(integral - closed) / closed
    else:
        residual = abs(integral - closed)

    rhos = [rho_inner, 2 * rho_inner, 4 * rho_inner]
    vals = [integral_from(rho) for rho in rhos if rho < 0.25]
    floor = 1e-18 * max(boundary_l2, 1.0)
    if len(vals) >= 2 and min(vals) > floor:
        lr = np.log(rhos[:len(vals)])
        lv = np.log(vals)
        slope = float(np.polyfit(lr, lv, 1)[0])
    else:
        slope = 0.0
    return HardtSimonResult(integral=integral,
                            polar_identity_residual=residual,
                            alpha_used=float(alpha),
                            growth_exponent=slope,
                            divergent=slope < -0.05,
                            boundary_l2=boundary_l2)
