"""Ground-truth test objects: branched holomorphic multigraphs and synthetic
homogeneous Q-valued maps on polar grids.

The primary object is the graph of the plane curve (w - h(z))^Q = z^p over
the punctured z-disk, with p > Q >= 2 coprime and h a holomorphic
perturbation vanishing to second order.  Its Q sheets

    w_j(z) = h(z) + |z|^{p/Q} exp(i p arg(z) / Q) zeta^j,   zeta = e^{2 pi i/Q},

are sampled on a geometric polar grid with a globally consistent labelling:
continuing past arg(z) = 2 pi, sheet j runs into sheet (j + p) mod Q, a
Q-cycle exactly when gcd(p, Q) = 1.

Grid generation is vectorized over all rings at once and the resulting
samples are treated as immutable; derived quantities (gradients, tangent
frames) are cached on first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RefinementError, SpecError
from .grids import (PolarGrid, RadialRule, d_dr_geometric,
                    d_dtheta_periodic, default_grid)
from .qvalue import QPoint, track_selection


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of the test curve (w - h(z))^Q = z^p.

    h_coeffs are Taylor coefficients of h starting at z^0; the constant and
    linear coefficients must vanish."""

    q: int
    p: int
    h_coeffs: tuple = ()

    def __post_init__(self):
        if self.q < 2:
            raise SpecError("sheet count Q must be at least 2")
        if self.p <= self.q:
            raise SpecError("need p > Q")
        if math.gcd(self.p, self.q) != 1:
            raise SpecError(f"p = {self.p} and Q = {self.q} must be coprime")
        coeffs = tuple(complex(c) for c in self.h_coeffs)
        if len(coeffs) >= 1 and coeffs[0] != 0:
            raise SpecError("h(0) must vanish")
        if len(coeffs) >= 2 and coeffs[1] != 0:
            raise SpecError("h'(0) must vanish")
        object.__setattr__(self, "h_coeffs", coeffs)

    @property
    def has_perturbation(self) -> bool:
        return any(c != 0 for c in self.h_coeffs)

    def h(self, z):
        """Evaluate the perturbation polynomial at z (vectorized)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in reversed(self.h_coeffs):
            out = out * z + c
        return out

    def h_order(self):
        """Order of vanishing of h at 0, or None when h is identically 0."""
        for k, c in enumerate(self.h_coeffs):
            if c != 0:
                return k
        return None

    def label(self) -> str:
        s = f"curve Q={self.q} p={self.p}"
        if self.has_perturbation:
            s += " h=" + ",".join(repr(c) for c in self.h_coeffs)
        return s


def analytic_degree(spec: CurveSpec) -> dict:
    """Reference frequency of the curve at the origin.

    For h = 0 this is the branching degree p/Q.  For h != 0 the full graph
    seen at small scale has contact order min(p/Q, ord h) with its tangent
    plane, while the average-free part still carries p/Q; the returned dict
    says which number is being quoted."""
    ratio = spec.p / spec.q
    order = spec.h_order()
    if order is None:
        return {"value": ratio, "kind": "degree",
                "branch_degree": ratio, "average_order": None}
    value = min(ratio, float(order))
    return {"value": value, "kind": "reference",
            "branch_degree": ratio, "average_order": float(order)}


def evaluate_sheets(spec: CurveSpec, z: complex) -> QPoint:
    """The Q solutions w of (w - h(z))^Q = z^p at one point, as a QPoint.

    At z = 0 the sheets extend continuously by h(0) = 0."""
    z = complex(z)
    if z == 0:
        return QPoint(np.zeros((spec.q, 2)))
    root = abs(z) ** (spec.p / spec.q) * np.exp(
        1j * spec.p * np.angle(z) / spec.q)
    zeta = np.exp(2j * np.pi * np.arange(spec.q) / spec.q)
    return QPoint.from_complex(spec.h(z) + root * zeta)


@dataclass
class QFunction:
    """Q-valued map on a polar grid, stored as a consistent sheet selection.

    values[k, i, j] is sheet k at ring i, angle j, a vector in R^n.
    Continuing past theta = 2 pi, sheet k runs into sheet monodromy[k]."""

    grid: PolarGrid
    values: np.ndarray           # (Q, R, T, n)
    monodromy: np.ndarray        # (Q,)
    metadata: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4:
            raise DimensionError("values must have shape (Q, R, T, n)")
        if v.shape[1] != self.grid.n_rings or v.shape[2] != self.grid.n_theta:
            raise DimensionError("values do not match the grid")
        if not np.all(np.isfinite(v)):
            raise DimensionError("samples must be finite")
        self.values = v
        self.monodromy = np.asarray(self.monodromy, dtype=int)
        if sorted(self.monodromy.tolist()) != list(range(v.shape[0])):
            raise DimensionError("monodromy must be a permutation of sheets")

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[3]

    def qpoint(self, ring: int, angle: int) -> QPoint:
        return QPoint(self.values[:, ring, angle, :])

    def replace_values(self, values, note=None) -> "QFunction":
        meta = dict(self.metadata)
        if note:
            meta.setdefault("notes", []).append(note)
        return QFunction(grid=self.grid, values=values,
                         monodromy=self.monodromy.copy(), metadata=meta)

    # ---- cached differential data ------------------------------------

    def rule(self) -> RadialRule:
        rule = self._cache.get("rule")
        if rule is None:
            rule = RadialRule(self.grid)
            self._cache["rule"] = rule
        return rule

    def gradients(self):
        """(du_dr, du_dtheta_over_r), each of shape (Q, R, T, n).

        The radial stencil is polynomial-exact in r (constant offsets and
        tilted planes are differentiated without error) and the angular
        derivative is spectral on the monodromy covering circle."""
        g = self._cache.get("grad")
        if g is None:
            g = _polar_gradients(self.values, self.grid.radii,
                                 self.monodromy)
            self._cache["grad"] = g
        return g

    def grad_sq(self) -> np.ndarray:
        """|Du|^2 summed over sheets, shape (R, T)."""
        gs = self._cache.get("grad_sq")
        if gs is None:
            gs = _grad_sq(*self.gradients())
            self._cache["grad_sq"] = gs
        return gs

    def cartesian_gradients(self) -> np.ndarray:
        """Per-sheet Jacobians in the fixed frame, shape (Q, R, T, n, 2)."""
        J = self._cache.get("cart_grad")
        if J is None:
            du_dr, du_dth = self.gradients()
            th = self.grid.angles
            c, s = np.cos(th), np.sin(th)
            J = np.empty(self.values.shape + (2,))
            J[..., 0] = du_dr * c[None, None, :, None] \
                - du_dth * s[None, None, :, None]
            J[..., 1] = du_dr * s[None, None, :, None] \
                + du_dth * c[None, None, :, None]
            self._cache["cart_grad"] = J
        return J

    # ---- consistency --------------------------------------------------

    def check_selection(self) -> float:
        """Largest relative sheet displacement between adjacent samples, in
        units of half the local sheet separation (must stay below 1 for the
        labels to be a faithful selection).  The displacement is measured on
        the average-free configuration: moving all sheets by a common vector
        never changes which matching is optimal."""
        if self.q == 1:
            return 0.0
        v, sep, ratio_th = _angular_step_ratio(self)
        step_r = np.linalg.norm(v[:, 1:] - v[:, :-1], axis=3).max(axis=0)
        sep_r = np.minimum(sep[1:], sep[:-1])
        return max(float(ratio_th.max()),
                   float((step_r / (0.5 * sep_r)).max()))


def _polar_gradients(values: np.ndarray, radii: np.ndarray,
                     monodromy: np.ndarray):
    """(du_dr, du_dtheta_over_r) of sheet samples (Q, R, T, n) on rings of
    the given radii: QFunction.gradients for any run of consecutive rings."""
    du_dr = d_dr_geometric(values, radii, axis=1)
    inv_r = 1.0 / radii[None, :, None, None]
    du_dth = d_dtheta_periodic(values, monodromy) * inv_r
    return du_dr, du_dth


def _grad_sq(du_dr: np.ndarray, du_dth: np.ndarray) -> np.ndarray:
    """|Du|^2 summed over sheets, shape (R, T)."""
    return np.einsum("krtn,krtn->rt", du_dr, du_dr) \
        + np.einsum("krtn,krtn->rt", du_dth, du_dth)


def _angular_step_ratio(f: QFunction):
    """(v, sep, ratio): average-free samples, their minimal sheet separation
    and, per node, the largest move to the next angle in units of sep / 2.
    Common sheet drift never changes the optimal matching."""
    v = f.values - np.mean(f.values, axis=0, keepdims=True)
    nxt = np.empty_like(v)
    nxt[:, :, :-1] = v[:, :, 1:]
    nxt[:, :, -1] = v[f.monodromy][:, :, 0]
    step = np.linalg.norm(nxt - v, axis=3).max(axis=0)
    sep = _min_separation_field(v)
    return v, sep, step / (0.5 * sep)


def _min_separation_field(v: np.ndarray) -> np.ndarray:
    """Minimal pairwise sheet distance at every node, shape (R, T)."""
    Q = v.shape[0]
    if Q == 1:
        return np.full(v.shape[1:3], np.inf)
    sep = np.full(v.shape[1:3], np.inf)
    for a in range(Q):
        for b in range(a + 1, Q):
            d = np.linalg.norm(v[a] - v[b], axis=-1)
            sep = np.minimum(sep, d)
    return sep


def make_multigraph(spec: CurveSpec, grid: PolarGrid | None = None) -> QFunction:
    """Sample the curve's Q-valued graph on a polar grid.

    The closed-form sheets are laid down directly and then verified to be a
    legitimate tracked selection: every angular step must move each sheet by
    less than half the local sheet separation, otherwise the angular
    resolution cannot distinguish the branches and a RefinementError asks
    for a larger n_theta."""
    if grid is None:
        grid = default_grid()
    r = grid.radii[:, None]
    th = grid.angles[None, :]
    z = r * np.exp(1j * th)
    root = r ** (spec.p / spec.q) * np.exp(1j * spec.p * th / spec.q)
    zeta = np.exp(2j * np.pi * np.arange(spec.q) / spec.q)
    w = spec.h(z)[None, :, :] + root[None, :, :] * zeta[:, None, None]
    values = np.stack([w.real, w.imag], axis=-1)
    monodromy = (np.arange(spec.q) + spec.p) % spec.q
    f = QFunction(grid=grid, values=values, monodromy=monodromy,
                  metadata={"kind": "curve", "q": spec.q, "p": spec.p,
                            "h_coeffs": [[c.real, c.imag]
                                         for c in spec.h_coeffs],
                            "label": spec.label()})
    _verify_angular_tracking(f)
    return f


def _verify_angular_tracking(f: QFunction):
    if f.q == 1:
        return
    worst = float(_angular_step_ratio(f)[2].max())
    if worst >= 1.0:
        raise RefinementError(
            "angular step exceeds half the sheet separation "
            f"(worst ratio {worst:.3g}); increase n_theta")


def spiral_profile(alpha: float, max_sheets: int = 12):
    """Angular profile of the alpha-homogeneous map z -> z^alpha.

    Returns (boundary, q): boundary(theta) is the QPoint of the q sheets
    |z|=1, exp(i alpha theta) zeta^j, which is a consistent q-valued map on
    the circle when alpha * q is an integer.  These profiles satisfy
    |g'| = alpha |g|, the angular balance of a harmonic branch, so their
    homogeneous extensions have frequency exactly alpha."""
    q = None
    for cand in range(1, max_sheets + 1):
        if abs(alpha * cand - round(alpha * cand)) < 1e-12:
            q = cand
            break
    if q is None:
        raise ConfigError(
            f"alpha = {alpha} is not rational with denominator <= {max_sheets}")

    def boundary(theta: float) -> QPoint:
        zeta = np.exp(2j * np.pi * np.arange(q) / q)
        return QPoint.from_complex(np.exp(1j * alpha * theta) * zeta)

    return boundary, q


def constant_profile(vectors):
    """Angular profile with fixed sheets, e.g. the antipodal pair +-e."""
    arr = np.atleast_2d(np.asarray(vectors, dtype=float))

    def boundary(theta: float) -> QPoint:
        return QPoint(arr)

    return boundary


def homogeneous_map(alpha: float, boundary=None,
                    grid: PolarGrid | None = None) -> QFunction:
    """Radially homogeneous Q-valued map f(r, theta) = r^alpha g(theta).

    boundary is a callable theta -> QPoint sampled on the grid angles and
    tracked around the circle (a closed chain), which fixes the sheet labels
    and the monodromy; None selects the spiral profile for alpha.  The
    extension is homogeneous by construction at every node."""
    if alpha <= 0:
        raise ConfigError("homogeneity degree must be positive")
    if grid is None:
        grid = default_grid()
    if boundary is None:
        boundary, _ = spiral_profile(alpha)
    samples = [boundary(t) for t in grid.angles]
    sel = track_selection(samples, closed=True)
    g = sel.sheets  # (Q, T, n)
    radial = grid.radii ** alpha
    values = radial[None, :, None, None] * g[:, None, :, :]
    return QFunction(grid=grid, values=values, monodromy=sel.monodromy,
                     metadata={"kind": "homogeneous", "alpha": float(alpha),
                               "label": f"homogeneous alpha={alpha}"})


# ----------------------------------------------------------------------------
# file format: JSON header line, then CSV rows ring,angle,sheet,re,im


def save_qfunction(f: QFunction, path):
    if f.n != 2:
        raise DimensionError("file format stores planar codomains only")
    header = {
        "format": "qbranch-qfunction-1",
        "q": f.q,
        "n_rings": f.grid.n_rings,
        "n_theta": f.grid.n_theta,
        "r_min": f.grid.r_min,
        "r_max": f.grid.r_max,
        "radii": f.grid.radii.tolist(),
        "center": list(f.grid.center),
        "monodromy": f.monodromy.tolist(),
        "metadata": _json_safe(f.metadata),
    }
    # rows in (ring, angle, sheet) order, formatted a ring at a time: one
    # operation for the whole file would hold every sample as a Python float
    Q, R, T, _ = f.values.shape
    angle_sheet = np.indices((T, Q)).reshape(2, -1).T
    ring_rows = "%d,%d,%d,%.17g,%.17g\n" * (T * Q)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("ring,angle,sheet,re,im\n")
        for i in range(R):
            samples = f.values[:, i].transpose(1, 0, 2).reshape(-1, 2)
            ring = np.hstack([np.full((T * Q, 1), i), angle_sheet, samples])
            fh.write(ring_rows % tuple(ring.ravel().tolist()))


def load_qfunction(path) -> QFunction:
    """Read a file written by save_qfunction.

    Raises ConfigError unless the file is readable, its header describes a
    grid, and its rows hold exactly one finite sample for every (sheet,
    ring, angle) of that grid."""
    try:
        with open(path) as fh:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or \
                    header.get("format") != "qbranch-qfunction-1":
                raise ConfigError(f"{path}: not a qbranch QFunction file")
            fh.readline()  # column header
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        q, R, T = (int(header[k]) for k in ("q", "n_rings", "n_theta"))
        r_min, r_max = float(header["r_min"]), float(header["r_max"])
        center = tuple(float(c) for c in header.get("center", (0.0, 0.0)))
        monodromy = np.asarray(header["monodromy"], dtype=int)
        radii = header.get("radii")
        if radii is not None:
            radii = np.asarray(radii, dtype=float)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read QFunction file {path}: {exc!r}") \
            from None
    if q < 1 or not 0 < r_min < r_max:
        raise ConfigError(f"{path}: header describes no grid")
    grid = _header_grid(path, radii, R, T, r_min, r_max, center)
    if data.shape != (q * R * T, 5):
        raise ConfigError(
            f"{path}: expected {q * R * T} rows of 5 columns, found "
            f"{data.shape[0]} rows of {data.shape[1]}")
    idx = data[:, :3].astype(int)
    if not np.array_equal(idx, data[:, :3]) or np.any(idx < 0) \
            or np.any(idx >= (R, T, q)):
        raise ConfigError(f"{path}: sample index out of range")
    ring, angle, sheet = idx.T
    if np.unique((sheet * R + ring) * T + angle).size != idx.shape[0]:
        raise ConfigError(f"{path}: duplicated sample index")
    if not np.all(np.isfinite(data[:, 3:])):
        raise ConfigError(f"{path}: samples must be finite")
    values = np.empty((q, R, T, 2))
    values[sheet, ring, angle] = data[:, 3:]
    try:
        return QFunction(grid=grid, values=values, monodromy=monodromy,
                         metadata=header.get("metadata", {}))
    except DimensionError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _header_grid(path, radii, R, T, r_min, r_max, center) -> PolarGrid:
    """The grid a file header describes: its radii when it lists them,
    else the default grid from r_min to r_max with R rings."""
    if radii is None:
        rpo = (R - 1) / np.log2(r_max / r_min)
        return default_grid(r_min=r_min, r_max=r_max,
                            rings_per_octave=int(round(rpo)), n_theta=T,
                            center=center)
    if radii.shape != (R,) or R == 0 or \
            not np.allclose(radii[[0, -1]], (r_min, r_max), rtol=1e-12,
                            atol=0.0):
        raise ConfigError(
            f"{path}: radii disagree with n_rings, r_min or r_max")
    try:
        return PolarGrid(radii=radii, n_theta=T, center=center)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return repr(obj)
    return obj
