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
    S0 = int |p| dx,   S1 = int P |p| dx = int p dx,

so the optimal plane maximizes <P_A, S1>, in closed form: the unit simple
2-vectors of R^4 are the sums of a self-dual and an anti-self-dual half of
length 1/sqrt 2 each (Harvey-Lawson, Calibrated geometries, Acta Math. 148
(1982)), so the maximum (|S1+| + |S1-|)/sqrt 2 is attained at the unit
tau = (S1+/|S1+| + S1-/|S1-|)/sqrt 2, and the tilt is read off tau/tau_12.

Every quantity here reads one table per map, which curves builds in the
map's one sweep (curves._area_rows), a block of rings at a time, from
rotation invariants of the polar gradients u_r = du/dr and
w = du/dtheta / r (p is never stacked, nor are a and b formed, nor are
the gradients kept): the rotation taking (u_r, w) to (a, b) has
determinant 1, so a1 b2 - a2 b1 = u_r x w and |p|^2 = 1 + q^2 with
q^2 = |u_r|^2 + |w|^2 + (u_r x w)^2, while the entries b = u_r sin + w cos
and -a = w sin - u_r cos are linear, so their angular means are the
sheet-summed gradients contracted against cos and sin.  The table holds
the sheet sums of the ring profiles s0 = 2 pi <|p|>_theta and
s1 = 2 pi <p>_theta with their cumulative table, so an integral over B_r
(core included) is an O(1) read.  The graph mass is S0, the excess reads
S0 and S1, and the mean tilt is S1's entries 1..4, all off the same row,
which is what makes the mass-ratio identity above exact, with Q pi r^2
read as the quadrature's S1_12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, TiltError
from .curves import QFunction, _area_moments, _csv, _quartic_data
from .frequency import dirichlet_energy

OMEGA_M = math.pi        # volume of the unit ball in the base dimension m = 2
TILT_MAX = 0.5
HALF_FLOOR = 1e-12  # a half S1+- this small against the other: no unique tau


@dataclass(frozen=True)
class Plane:
    """Graph plane {(x, A x)} with tilt matrix A (codomain x base)."""

    tilt: np.ndarray  # (2, 2)

    def __post_init__(self):
        A = np.asarray(self.tilt, dtype=float).reshape(2, 2)
        if np.linalg.norm(A) > TILT_MAX:
            raise TiltError(
                f"tilt norm {np.linalg.norm(A):.3g} exceeds {TILT_MAX}")
        object.__setattr__(self, "tilt", A)

    @property
    def tilt_norm(self) -> float:
        return float(np.linalg.norm(self.tilt))


HORIZONTAL = Plane(np.zeros((2, 2)))


@dataclass
class ExcessRecord:
    r: float
    mass: float
    excess: float
    plane: Plane


def _plucker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pluecker coordinates (1, b1, b2, -a1, -a2, a1 b2 - a2 b1) of the graph
    2-vector of a Jacobian with columns a = Df e1 and b = Df e2, stacked on
    a new last axis; a and b carry the codomain on their last axis."""
    return np.stack([np.ones_like(a[..., 0]), b[..., 0], b[..., 1],
                     -a[..., 0], -a[..., 1],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _plucker_of_tilt(A: np.ndarray) -> np.ndarray:
    """Unit 2-vector of the plane {(x, A x)}."""
    p = _plucker(A[:, 0], A[:, 1])
    return p / np.linalg.norm(p)


def _moments_up_to(f: QFunction, r: float):
    """Area moments S0 = int |p|, S1 = int p over the cylinder above B_r,
    every sheet summed, with the puncture core r < r_min restored
    componentwise so that the mass-ratio identity and the flat-plane
    cancellations survive it.  DimensionError unless the codomain is R^2,
    the only one the table's rotation invariants describe."""
    if f.n != 2:
        raise DimensionError(f"area moments need a planar codomain: R^{f.n}")
    S = f.rule()._disk_integral(_area_moments(f), r)
    return float(S[0]), S[1:]


def graph_mass(f: QFunction, r: float) -> float:
    """Mass of the graph over B_r by the Q-valued area formula."""
    return _moments_up_to(f, r)[0]


def _excess(S0: float, pairing: float, r: float) -> float:
    return float((S0 - pairing) / (OMEGA_M * r ** 2))


def spherical_excess(f: QFunction, r: float,
                     plane: Plane | None = None) -> ExcessRecord:
    """Excess of the graph over a candidate plane at radius r, integrated
    over the cylinder above B_r: the cylindrical excess, the one excess of
    this library (the name is kept for its callers)."""
    plane = HORIZONTAL if plane is None else plane
    S0, S1 = _moments_up_to(f, r)
    value = _excess(S0, _plucker_of_tilt(plane.tilt) @ S1, r)
    return ExcessRecord(r=float(r), mass=S0, excess=value, plane=plane)


def mean_tilt(f: QFunction, r: float) -> np.ndarray:
    """Area-averaged Jacobian of the sheet average over B_r, the core below
    r_min included, read off the sheet sum of S1, whose entries 1..4 are
    (b1, b2, -a1, -a2)."""
    m = _moments_up_to(f, r)[1][1:5] / (f.q * OMEGA_M * r ** 2)
    return np.array([[-m[2], m[0]], [-m[3], m[1]]])


def _halves(S1: np.ndarray):
    """S1 +- *S1 (twice the halves S1+-) and their norms, for the Hodge star
    (x12, x13, x14, x23, x24, x34) -> (x34, -x24, x23, x14, -x13, x12)."""
    star = S1[::-1] * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    halves = (S1 + star, S1 - star)
    return halves, [float(np.linalg.norm(h)) for h in halves]


def least_excess(f: QFunction, r: float) -> float:
    """Excess at radius r over the best oriented plane, graph or not; equal
    to optimal_plane's to rounding wherever that one answers."""
    S0, S1 = _moments_up_to(f, r)
    return _excess(S0, sum(_halves(S1)[1]) / (2.0 * math.sqrt(2.0)), r)


def optimal_plane(f: QFunction, r: float) -> dict:
    """Minimize the excess at radius r over graph planes, in closed form:
    the tilt is read off tau/tau_12 = (1, b1, b2, -a1, -a2, .).  TiltError
    when tau is no graph or its tilt exceeds TILT_MAX; DataError when S1+ or
    S1- vanishes.  Returns {"plane", "excess", "iterations": 1}."""
    S0, S1 = _moments_up_to(f, r)
    halves, norms = _halves(S1)
    if min(norms) <= HALF_FLOOR * max(norms):
        raise DataError("degenerate tangent moments: S1+ or S1- vanishes, "
                        "so the optimal plane is not unique")
    tau = (halves[0] / norms[0] + halves[1] / norms[1]) / math.sqrt(2.0)
    # tau is a unit vector, so a tau_12 at rounding level is a vertical
    # plane; its sign is noise
    if tau[0] <= 1e-12:
        raise TiltError("the optimal plane is not a graph over the base")
    t = tau / tau[0]
    plane = Plane(np.array([[-t[3], t[1]], [-t[4], t[2]]]))
    return {"plane": plane, "iterations": 1,
            "excess": _excess(S0, _plucker_of_tilt(plane.tilt) @ S1, r)}


def excess_decay_fit(f: QFunction, radii) -> dict:
    """Least-squares fit of log E(r) against log r over optimal planes.

    A radius whose optimal plane is no graph (a steep scale, where
    optimal_plane raises TiltError) is dropped and listed with the reason
    under "dropped", a key present only when some radius was dropped.
    Requires at least 5 radii left, spanning two octaves, and positive
    excesses."""
    records, dropped = [], []
    for r in sorted(float(r) for r in radii):
        try:
            res = optimal_plane(f, r)
        except TiltError as exc:
            dropped.append([r, str(exc)])
            continue
        records.append(ExcessRecord(r=r, mass=graph_mass(f, r),
                                    excess=res["excess"],
                                    plane=res["plane"]))
    kept = [rec.r for rec in records]
    why = f" once steep radii are dropped ({dropped})" if dropped else ""
    if len(kept) < 5:
        raise DataError("need at least 5 radii" + why)
    if kept[-1] / kept[0] < 4.0 * (1 - 1e-12):
        raise DataError("radii must span at least two octaves" + why)
    if any(rec.excess <= 0 for rec in records):
        raise DataError("nonpositive excess in the fit window "
                        "(flat input or below quadrature floor)")
    lr = np.log(kept)
    le = np.log([rec.excess for rec in records])
    coef = np.polyfit(lr, le, 1)
    fit = np.polyval(coef, lr)
    ss_res = float(np.sum((le - fit) ** 2))
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    out = {"exponent": float(coef[0]), "constant": float(np.exp(coef[1])),
           "r2": r2, "records": records}
    if dropped:
        out["dropped"] = dropped
    return out


def excess_table_csv(records) -> str:
    """CSV export: r, excess, local exponent, mass, tilt norm, and the
    definition column, always cylindrical."""
    lr = np.log([rec.r for rec in records])
    le = np.log([max(rec.excess, 1e-300) for rec in records])
    rows = []
    for i, rec in enumerate(records):
        if len(records) >= 2:
            j0 = max(i - 1, 0)
            j1 = min(i + 1, len(records) - 1)
            slope = (le[j1] - le[j0]) / (lr[j1] - lr[j0])
        else:
            slope = float("nan")
        rows.append((rec.r, rec.excess, slope, rec.mass,
                     rec.plane.tilt_norm, "cylindrical"))
    return _csv("r,excess,exponent_window,mass,tilt_norm,definition", rows)


def mass_expansion_residual(f: QFunction, r: float) -> dict:
    """Taylor control of the area formula on B_r.

    lhs = |mass - Q pi r^2 - (1/2) int sum |Df|^2|, quartic = int sum |Df|^4;
    their ratio is the measured constant of the expansion bound.  The
    sum |Df|^4 profile is one more table of f's one sweep, asked for
    first together with the area table, so a fresh map, an average-free
    part too, is differentiated once and every later call reads tables
    only."""
    quartic = f.rule()._disk_integral(_quartic_data(f), r)
    mass = graph_mass(f, r)
    dir2 = dirichlet_energy(f, r)
    area = f.q * OMEGA_M * r ** 2
    lhs = abs(mass - area - 0.5 * dir2)
    return {"lhs": lhs, "quartic": quartic,
            "ratio": lhs / quartic if quartic > 0 else 0.0}
