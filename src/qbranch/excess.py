"""Mass and excess of Q-valued graphs, optimal reference planes, and
excess-decay exponent fits.

A sheet with Jacobian Df (codomain R^2 over the plane) spans the tangent
2-vector with Pluecker coordinates

    p = (1, b1, b2, -a1, -a2, a1 b2 - a2 b1),   a = Df e1,  b = Df e2,

whose norm |p| = sqrt(det(I + Df^T Df)) is the area element of the Q-valued
area formula.  Writing P = p/|p| and P_A for the unit 2-vector of the graph
plane {(x, A x)}, the cylindrical excess of the graph over that plane at
radius r is

    E(r, A) = (1/(2 pi r^2)) int_{B_r} sum_i |P_i - P_A|^2 |p_i| dx,

which for A = 0 coincides exactly (same quadrature, pointwise algebra) with
the mass-ratio form (mass(C_r) - Q pi r^2) / (pi r^2).  Because |P_i| = 1,
the dependence on A collapses to first moments,

    E(r, A) = (S0 - <P_A, S1>) / (pi r^2),
    S0 = int |p| dx,   S1 = int P |p| dx,

so the optimal plane is the point of the plane manifold closest to S1/|S1|;
a small Gauss-Newton iteration on the four tilt entries finds it.  The ball
variant replaces the cylinder B_r x R^2 by the ambient ball, masking nodes
sheetwise, and is kept as the documented secondary definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, OptimizationError, TiltError
from .grids import TWO_PI
from .curves import QFunction

OMEGA_M = math.pi        # volume of the unit ball in the base dimension m = 2
TILT_MAX = 0.5


@dataclass(frozen=True)
class Plane:
    """Graph plane {(x, A x)} with tilt matrix A (codomain x base)."""

    tilt: np.ndarray  # (2, 2)
    note: str = ""

    def __post_init__(self):
        A = np.asarray(self.tilt, dtype=float).reshape(2, 2)
        if np.linalg.norm(A) > TILT_MAX:
            raise TiltError(
                f"tilt norm {np.linalg.norm(A):.3g} exceeds {TILT_MAX}")
        object.__setattr__(self, "tilt", A)

    @property
    def tilt_norm(self) -> float:
        return float(np.linalg.norm(self.tilt))


HORIZONTAL = Plane(np.zeros((2, 2)), note="horizontal")


@dataclass
class ExcessRecord:
    r: float
    mass: float
    excess: float
    plane: Plane
    definition: str = "cylindrical"


def _plucker_of_tilt(A: np.ndarray):
    """Unit 2-vector of the plane {(x, A x)} and its derivative in A."""
    a = A[:, 0]
    b = A[:, 1]
    p = np.array([1.0, b[0], b[1], -a[0], -a[1],
                  a[0] * b[1] - a[1] * b[0]])
    # columns: d/d a0, d/d a1, d/d b0, d/d b1
    dp = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [b[1], -b[0], -a[1], a[0]],
    ])
    norm = float(np.linalg.norm(p))
    P = p / norm
    dP = (dp - np.outer(P, P @ dp)) / norm
    return P, dP


def _sheet_plucker(f: QFunction):
    """Unit tangent 2-vectors and area elements of every sheet node.

    Returns (P, area): P has shape (Q, R, T, 6), area (Q, R, T)."""
    cached = f._cache.get("plucker")
    if cached is not None:
        return cached
    Jc = f.cartesian_gradients()           # (Q, R, T, n, 2)
    a = Jc[..., 0]
    b = Jc[..., 1]
    Q, R, T, _ = a.shape
    p = np.empty((Q, R, T, 6))
    p[..., 0] = 1.0
    p[..., 1] = b[..., 0]
    p[..., 2] = b[..., 1]
    p[..., 3] = -a[..., 0]
    p[..., 4] = -a[..., 1]
    p[..., 5] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    area = np.sqrt(np.einsum("krtc,krtc->krt", p, p))
    P = p / area[..., None]
    cached = (P, area)
    f._cache["plucker"] = cached
    return cached


def _moment_profiles(f: QFunction):
    """Per-sheet ring profiles (with the 2 pi weight) of |p| and P |p|."""
    P, area = _sheet_plucker(f)
    s0 = TWO_PI * np.mean(area, axis=-1)                      # (Q, R)
    s1 = TWO_PI * np.mean(P * area[..., None], axis=2)        # (Q, R, 6)
    return s0, s1


def _ball_caps(f: QFunction, r: float) -> np.ndarray:
    """Per-sheet radius where the graph leaves the ambient ball of radius r:
    the root of s^2 + mean_theta |f_k(s, .)|^2 = r^2 along the ring table.
    The angular mean stands in for the exact theta-dependent rim, which is
    what makes the ball definition second class here."""
    s = f.grid.radii
    height = np.mean(np.einsum("krtn,krtn->krt", f.values, f.values), axis=-1)
    rho_sq = s[None, :] ** 2 + height                          # (Q, R)
    caps = np.empty(f.q)
    for k in range(f.q):
        prof = rho_sq[k]
        idx = np.searchsorted(prof, r * r)
        if idx >= s.size:
            caps[k] = min(r, f.grid.r_max)
        elif idx == 0:
            caps[k] = s[0]
        else:
            # log-linear root between the bracketing rings
            a, b = prof[idx - 1], prof[idx]
            lam = (r * r - a) / (b - a)
            caps[k] = s[idx - 1] ** (1 - lam) * s[idx] ** lam
    return caps


def _moments_up_to(f: QFunction, r: float, definition: str):
    """Area moments S0 = int |p|, S1 = int P |p| over the region up to r,
    with the puncture core r < r_min restored componentwise so that the
    mass-ratio identity and the flat-plane cancellations survive it.

    cylindrical integrates every sheet up to r; spherical_ball caps each
    sheet at its exit radius from the ambient ball."""
    grid = f.grid
    grid.require_radius(r)
    rule = f.rule()
    s0, s1 = _moment_profiles(f)
    if definition == "spherical_ball":
        caps = _ball_caps(f, r)
    else:
        caps = np.full(f.q, r)
    S0 = 0.0
    S1 = np.zeros(6)
    for k in range(f.q):
        w = rule.weights(grid.t[0], math.log(caps[k]), 2.0)
        S0 += float(w @ s0[k]) + rule.inner_core(s0[k], 2.0)
        S1 += w @ s1[k]
        for c in range(6):
            S1[c] += rule.inner_core(s1[k, :, c], 2.0)
    return S0, S1


def graph_mass(f: QFunction, r: float) -> float:
    """Mass of the graph over B_r by the Q-valued area formula."""
    s0, _ = _moment_profiles(f)
    return f.rule()._disk_integral(s0.sum(axis=0), r)


def excess_value(f: QFunction, r: float, plane: Plane,
                 definition: str = "cylindrical") -> float:
    S0, S1 = _moments_up_to(f, r, definition)
    P_A, _ = _plucker_of_tilt(plane.tilt)
    return float((S0 - P_A @ S1) / (OMEGA_M * r ** 2))


def spherical_excess(f: QFunction, r: float, plane: Plane | None = None,
                     definition: str = "cylindrical") -> ExcessRecord:
    """Excess of the graph over a candidate plane at radius r.

    cylindrical integrates over the cylinder above B_r (the primary
    definition); spherical_ball masks each sheet to the ambient ball."""
    if definition not in ("cylindrical", "spherical_ball"):
        raise ConfigError(f"unknown excess definition {definition!r}")
    plane = HORIZONTAL if plane is None else plane
    value = excess_value(f, r, plane, definition)
    return ExcessRecord(r=float(r), mass=graph_mass(f, r), excess=value,
                        plane=plane, definition=definition)


def mean_tilt(f: QFunction, r: float) -> np.ndarray:
    """Area-averaged Jacobian of the sheet average over B_r."""
    grid = f.grid
    rule = f.rule()
    Jc = f.cartesian_gradients()
    prof = TWO_PI * np.mean(np.mean(Jc, axis=0), axis=1)  # (R, n, 2)
    w = rule.weights(grid.t[0], math.log(r), 2.0)
    area = OMEGA_M * r ** 2
    return np.einsum("r,rnc->nc", w, prof) / area


def optimal_plane(f: QFunction, r: float, definition: str = "cylindrical",
                  max_iter: int = 50, tol: float = 1e-13) -> dict:
    """Minimize the excess at radius r over graph planes.

    Gauss-Newton on the tilt entries, started from the mean sheet tilt;
    returns {"plane", "excess", "iterations"}."""
    S0, S1 = _moments_up_to(f, r, definition)
    norm_S1 = float(np.linalg.norm(S1))
    if norm_S1 <= 0:
        raise DataError("degenerate tangent moments")
    target = S1 / norm_S1
    A = mean_tilt(f, r)
    if np.linalg.norm(A) > TILT_MAX:
        raise TiltError("mean tilt exceeds the graphical regime")
    theta = np.array([A[0, 0], A[1, 0], A[0, 1], A[1, 1]])
    for it in range(max_iter):
        P_A, dP = _plucker_of_tilt(_theta_to_tilt(theta))
        resid = target - P_A
        delta, *_ = np.linalg.lstsq(dP, resid, rcond=None)
        theta = theta + delta
        if float(np.linalg.norm(delta)) < tol:
            break
    else:
        raise OptimizationError(
            f"plane optimization did not converge in {max_iter} iterations")
    plane = Plane(_theta_to_tilt(theta), note=f"optimal at r={r:.6g}")
    P_A, _ = _plucker_of_tilt(plane.tilt)
    value = float((S0 - P_A @ S1) / (OMEGA_M * r ** 2))
    return {"plane": plane, "excess": value, "iterations": it + 1}


def _theta_to_tilt(theta: np.ndarray) -> np.ndarray:
    A = np.empty((2, 2))
    A[0, 0], A[1, 0], A[0, 1], A[1, 1] = theta
    return A


def excess_decay_fit(f: QFunction, radii, definition: str = "cylindrical") -> dict:
    """Least-squares fit of log E(r) against log r over optimal planes.

    Requires at least 5 radii spanning two octaves and positive excesses."""
    radii = sorted(float(r) for r in radii)
    if len(radii) < 5:
        raise DataError("need at least 5 radii")
    if radii[-1] / radii[0] < 4.0 * (1 - 1e-12):
        raise DataError("radii must span at least two octaves")
    records = []
    for r in radii:
        res = optimal_plane(f, r, definition)
        records.append(ExcessRecord(r=r, mass=graph_mass(f, r),
                                    excess=res["excess"],
                                    plane=res["plane"],
                                    definition=definition))
    if any(rec.excess <= 0 for rec in records):
        raise DataError("nonpositive excess in the fit window "
                        "(flat input or below quadrature floor)")
    lr = np.log([rec.r for rec in records])
    le = np.log([rec.excess for rec in records])
    coef = np.polyfit(lr, le, 1)
    fit = np.polyval(coef, lr)
    ss_res = float(np.sum((le - fit) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"exponent": float(coef[0]), "constant": float(np.exp(coef[1])),
            "r2": r2, "records": records}


def excess_table_csv(records) -> str:
    """CSV export: r, excess, local exponent, mass, tilt norm, definition."""
    lines = ["r,excess,exponent_window,mass,tilt_norm,definition"]
    lr = np.log([rec.r for rec in records])
    le = np.log([max(rec.excess, 1e-300) for rec in records])
    for i, rec in enumerate(records):
        if len(records) >= 2:
            j0 = max(i - 1, 0)
            j1 = min(i + 1, len(records) - 1)
            slope = (le[j1] - le[j0]) / (lr[j1] - lr[j0])
        else:
            slope = float("nan")
        lines.append(",".join([
            f"{rec.r:.17g}", f"{rec.excess:.17g}", f"{slope:.17g}",
            f"{rec.mass:.17g}", f"{rec.plane.tilt_norm:.17g}",
            rec.definition]))
    return "\n".join(lines) + "\n"


def mass_expansion_residual(f: QFunction, r: float) -> dict:
    """Taylor control of the area formula on B_r.

    lhs = |mass - Q pi r^2 - (1/2) int sum |Df|^2|, quartic = int sum |Df|^4;
    their ratio is the measured constant of the expansion bound."""
    from .frequency import dirichlet_energy
    mass = graph_mass(f, r)
    dir2 = dirichlet_energy(f, r)
    Jc = f.cartesian_gradients()
    g2 = np.einsum("krtnc,krtnc->krt", Jc, Jc)
    prof4 = TWO_PI * np.mean(np.sum(g2 ** 2, axis=0), axis=-1)
    quartic = f.rule()._disk_integral(prof4, r)
    area = f.q * OMEGA_M * r ** 2
    lhs = abs(mass - area - 0.5 * dir2)
    return {"lhs": lhs, "quartic": quartic,
            "ratio": lhs / quartic if quartic > 0 else 0.0}
