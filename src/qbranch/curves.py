"""Ground-truth test objects: branched holomorphic multigraphs and synthetic
homogeneous Q-valued maps on polar grids.

The primary object is the graph of the plane curve (w - h(z))^Q = z^p over
the punctured z-disk, with any p > Q >= 2 and h a holomorphic perturbation
vanishing to second order.  Its Q sheets

    w_j(z) = h(z) + |z|^{p/Q} exp(i p arg(z) / Q) zeta^j,   zeta = e^{2 pi i/Q},

are sampled on a geometric polar grid with a globally consistent labelling:
continuing past arg(z) = 2 pi, sheet j runs into sheet (j + p) mod Q.  With
d = gcd(p, Q) that makes d cycles of length Q/d: for d > 1 the curve is
reducible, d branches of degree p/Q through the origin, each the
(Q/d, p/d) curve rotated by zeta^k, k < d.

CurveSpec owns the curve: its closed form with these labels
(CurveSpec.sheets, which make_multigraph and evaluate_sheets both read),
its monodromy, and the curve a map claims in its metadata, written by
CurveSpec.claim and read back by CurveSpec.from_metadata; no other module
evaluates the sheets or reads the claim's fields.  A map resampled about
another point (recenter), the sheet average (eta_map) and the average-free
part (average_free_part) write their own "kind", so they claim no curve.

Both test objects are sampled about the origin; a grid centred elsewhere
is refused.  Every map's samples are read-only, so no cached table below
goes stale.

This module owns a map's tables, every one of them a disk_table of ring
profiles reduced from the map's one differentiation, QFunction.gradients,
which exists only a block of rings at a time: the ring table of the
frequency, the area table of the excess and the sum |Df|^4 table of the
mass expansion.  One sweep (_sweep) fills the requested tables and the
ring table (the sum |Df|^4 table is requested with the area table, which
the mass expansion reads beside it); when the map is no average-free
part, which is known by the parent samples its sweep reads (_free_of),
also its area table if its codomain is planar, the only one the excess
reads; and when in addition Q > 1 and the map has no average-free part
yet, that part's ring table, reduced by the part's own reduction
(_centred(_profiles)), which average_free_part then takes over.  A table
already cached is skipped, and the cache keys are named here alone.  The
sheet average (eta_map) and the average-free part live here too: how the
part comes by its ring table is part of that policy.

Derived maps are views, not copies (_View): a dilation (blowup._dilate)
holds its parent map and the average-free part holds its parent's
samples, and each forms its own samples only when a caller reads them.
An average-free part's blocks are its parent's blocks minus their sheet
mean (both stencils are linear), and that is stated in one place: _centred
wraps every reduction of the part's own sweep, which runs over its
parent's samples, and the reduction by which its parent's sweep seeds it.
So the part's ring table comes from one function whichever sweep built
it, its ring amplitudes are read off the same blocks (_ring_amplitudes),
and a degree estimate never forms the part's samples.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, RefinementError, SpecError
from .grids import (TWO_PI, PolarGrid, RadialRule, _ring_blocks,
                    _ring_profile, d_dr_geometric, d_dtheta_periodic,
                    default_grid)
from .qvalue import QPoint, _separation, _sq_norm, track_selection


@dataclass(frozen=True)
class CurveSpec:
    """Parameters of the test curve (w - h(z))^Q = z^p, any integers
    p > Q >= 2: with d = gcd(Q, p) > 1, the union of d copies of the
    (Q/d, p/d) curve, rotated by zeta_Q^k about h.

    h_coeffs are Taylor coefficients of h starting at z^0; the constant and
    linear coefficients must vanish."""

    q: int
    p: int
    h_coeffs: tuple = ()

    def __post_init__(self):
        # TypeError on floats and strings; numpy integers stored as ints
        q, p = operator.index(self.q), operator.index(self.p)
        if q < 2:
            raise SpecError("sheet count Q must be at least 2")
        if p <= q:
            raise SpecError("need p > Q")
        coeffs = tuple(complex(c) for c in self.h_coeffs)
        if not all(map(cmath.isfinite, coeffs)):
            raise SpecError("perturbation coefficients must be finite")
        if len(coeffs) >= 1 and coeffs[0] != 0:
            raise SpecError("h(0) must vanish")
        if len(coeffs) >= 2 and coeffs[1] != 0:
            raise SpecError("h'(0) must vanish")
        for name, value in (("q", q), ("p", p), ("h_coeffs", coeffs)):
            object.__setattr__(self, name, value)

    @property
    def has_perturbation(self) -> bool:
        return any(c != 0 for c in self.h_coeffs)

    @property
    def monodromy(self) -> np.ndarray:
        """Continuing past theta = 2 pi, sheet j runs into sheet
        (j + p) mod Q."""
        return (np.arange(self.q) + self.p) % self.q

    def h(self, z):
        """Evaluate the perturbation polynomial at z (vectorized)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in reversed(self.h_coeffs):
            out = out * z + c
        return out

    def contact_order(self) -> float:
        """The full graph's contact order with its tangent plane at the
        origin: p/Q, or the order of vanishing of h where that is lower.
        The average-free part carries p/Q whatever h is."""
        order = next((k for k, c in enumerate(self.h_coeffs) if c != 0),
                     math.inf)
        return min(self.p / self.q, float(order))

    def sheets(self, r, theta, out=None) -> np.ndarray:
        """The labelled sheets h(z) + r^(p/Q) exp(i p theta / Q) zeta^j at
        z = r e^(i theta), theta in [0, 2 pi), on a leading sheet axis j,
        written into out (shape (Q,) + the broadcast shape of r and theta)
        when it is given."""
        zeta = np.exp(2j * np.pi * np.arange(self.q) / self.q)
        zeta = zeta.reshape((-1,) + (1,) * np.broadcast(r, theta).ndim)
        root = r ** (self.p / self.q) * np.exp(1j * self.p * theta / self.q)
        out = np.multiply(root, zeta, out=out)
        return np.add(self.h(r * np.exp(1j * theta)), out, out=out)

    def claim(self) -> dict:
        """The metadata by which a map claims this curve, as from_metadata
        reads it back."""
        label = f"curve Q={self.q} p={self.p}"
        if self.has_perturbation:
            label += " h=" + ",".join(repr(c) for c in self.h_coeffs)
        return {"kind": "curve", "q": self.q, "p": self.p,
                "h_coeffs": [[c.real, c.imag] for c in self.h_coeffs],
                "label": label}

    @classmethod
    def from_metadata(cls, meta: dict) -> "CurveSpec | None":
        """The curve a map's metadata claims, as claim writes it, or None
        when the map claims none.  ConfigError, naming the claimed fields,
        when the claim is no valid CurveSpec."""
        if meta.get("kind") != "curve":
            return None
        q, p, hs = meta.get("q"), meta.get("p"), meta.get("h_coeffs", [])
        try:
            return cls(q, p, [complex(re, im) for re, im in hs])
        except (TypeError, ValueError, SpecError) as exc:
            raise ConfigError(f"the claimed curve q={q!r}, p={p!r}, "
                              f"h_coeffs={hs!r} is malformed: {exc}") from None


def evaluate_sheets(spec: CurveSpec, z: complex) -> QPoint:
    """The Q solutions w of (w - h(z))^Q = z^p at one point, as a QPoint:
    spec.sheets at |z| and arg z in [0, 2 pi), 0 at z = 0."""
    z = complex(z)
    return QPoint.from_complex(spec.sheets(abs(z), cmath.phase(z) % TWO_PI))


@dataclass
class QFunction:
    """Q-valued map on a polar grid, stored as a consistent sheet selection.

    values[k, i, j] is sheet k at ring i, angle j, a vector in R^n.
    Continuing past theta = 2 pi, sheet k runs into sheet monodromy[k].
    The samples are stored read-only, so no cached table goes stale: an
    array of floats passed in is stored as it is, and turns read-only too."""

    grid: PolarGrid
    values: np.ndarray           # (Q, R, T, n)
    monodromy: np.ndarray        # (Q,)
    metadata: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)
    #: the parent samples an average-free part sweeps (_View), by which
    #: the part is known; None when the map differentiates its own
    _free_of = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4:
            raise DimensionError("values must have shape (Q, R, T, n)")
        if v.shape[1] != self.grid.n_rings or v.shape[2] != self.grid.n_theta:
            raise DimensionError("values do not match the grid")
        if not np.all(np.isfinite(v)):
            raise DimensionError("samples must be finite")
        v.flags.writeable = False
        self.values, self._shape = v, v.shape
        self.monodromy = np.asarray(self.monodromy, dtype=int)
        if sorted(self.monodromy.tolist()) != list(range(v.shape[0])):
            raise DimensionError("monodromy must be a permutation of sheets")

    @property
    def q(self) -> int:
        return self._shape[0]

    @property
    def n(self) -> int:
        return self._shape[3]

    def replace_values(self, values, note=None) -> "QFunction":
        meta = dict(self.metadata)
        if note:
            meta["notes"] = meta.get("notes", []) + [note]
        return QFunction(grid=self.grid, values=values,
                         monodromy=self.monodromy.copy(), metadata=meta)

    # ---- cached differential data ------------------------------------

    def cached(self, key: str, build):
        """The value cached under key, built by build() on first use.  A
        cached array, and every array of a cached tuple, is read-only: every
        caller shares it."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return value

    def rule(self) -> RadialRule:
        return self.cached("rule", lambda: RadialRule(self.grid))

    def gradients(self, reduce):
        """The map's one differentiation, du_dr and du_dtheta / r (radial
        stencil exact for polynomials in r, angular derivative spectral on
        the monodromy covering circle), swept over grids._ring_blocks: the
        list of reduce(x, du_dr, du_dth) over the blocks, x the block's
        samples, so no derivative outlives its block and no map's whole
        derivative is ever formed.  An average-free part sweeps the parent
        samples it holds (_free_of), so it never forms its own: reduce gets
        the parent's blocks, and _sweep centres them (_centred)."""
        x = self.values if self._free_of is None else self._free_of
        radii, out = self.grid.radii, []
        for (a, b), du_dr, du_dth in zip(
                _ring_blocks(x), d_dr_geometric(x, radii),
                d_dtheta_periodic(x, self.monodromy)):
            du_dth *= 1.0 / radii[None, a:b, None, None]
            out.append(reduce(x[:, a:b], du_dr, du_dth))
        return out

    # ---- consistency --------------------------------------------------

    def check_selection(self) -> float:
        """Largest relative sheet displacement between adjacent samples, in
        units of half the local sheet separation (must stay below 1 for the
        labels to be a faithful selection; inf where two sheets coincide and
        move).  The displacement is measured on the average-free
        configuration: moving all sheets by a common vector never changes
        which matching is optimal."""
        sep, ratio_th = _angular_step_ratio(self.values, self.monodromy)
        ratio_r = _move_ratio(np.diff(self.values, axis=1),
                              np.minimum(sep[1:], sep[:-1]))
        return max(float(ratio_th.max()), float(ratio_r.max()))


class _View(QFunction):
    """A map derived from another one, whose samples are formed in one pass
    when first read, then kept read-only: a dilation (blowup._dilate),
    which holds its parent map, or an average-free part
    (average_free_part), which holds its parent's samples, never the
    parent, which caches it.  Its builder checks that the derived samples
    are finite; QFunction's other checks hold by construction and are not
    run again.  form() forms the samples and shape is their shape, which
    the view stores as every map does; free_of, the parent samples an
    average-free part sweeps, is what marks a view as that part."""

    def __init__(self, form, shape, grid, monodromy, metadata,
                 free_of=None):
        self._form, self._shape, self._values = form, shape, None
        self.grid, self.monodromy, self.metadata = grid, monodromy, metadata
        self._free_of, self._cache = free_of, {}

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._form()
            self._values.flags.writeable = False
        return self._values


def _minus_sheet_mean(a: np.ndarray, out=None) -> np.ndarray:
    """a (Q, ...) minus its mean over the sheets, into out when given.  The
    mean is np.mean's own arithmetic, the sheet sum divided in place by Q,
    without its dispatch."""
    mean = np.add.reduce(a, axis=0, keepdims=True)
    mean /= a.shape[0]
    return np.subtract(a, mean, out=out)


def _ring_amplitudes(f: QFunction) -> np.ndarray:
    """The largest sample magnitude on each ring of f, once per map, a
    block of rings at a time: no full-size temporary is formed.  An
    average-free part reads its blocks as its parent's blocks minus their
    sheet mean, so it never forms its own samples."""
    def build():
        x = f.values if f._free_of is None else f._free_of
        blocks = (x[:, a:b] for a, b in _ring_blocks(x))
        if f._free_of is not None:
            blocks = (_minus_sheet_mean(b) for b in blocks)
        return np.concatenate([np.abs(b).max(axis=(0, 2, 3)) for b in blocks])
    return f.cached("ring_amplitudes", build)


def _angular_step_ratio(x: np.ndarray, monodromy: np.ndarray):
    """(sep, ratio) over the rings of samples x (Q, R, T, n): the minimal
    sheet separation per node and the largest average-free move to the
    next angle in units of sep / 2.  Every node reads only its own ring, so
    a block of rings gives the rows of the whole.  Common sheet drift never
    changes the optimal matching, and pairwise differences do not see it,
    so sep is taken on the samples themselves."""
    step = np.empty_like(x)
    np.subtract(x[:, :, 1:], x[:, :, :-1], out=step[:, :, :-1])
    np.subtract(x[monodromy, :, 0], x[:, :, -1], out=step[:, :, -1])
    sep = _separation(x)
    return sep, _move_ratio(step, sep)


def _move_ratio(step: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """Per node, the largest sheet move of the steps (Q, ..., n), their
    sheet mean taken out in place, in units of sep / 2: inf where sheets
    coincide and move, 0 where nothing moves."""
    _minus_sheet_mean(step, step)
    # sheet by sheet: no (Q, ...) array of squared norms is formed
    sq = _sq_norm(step[0])
    for s in step[1:]:
        np.maximum(sq, _sq_norm(s), out=sq)
    move = np.sqrt(sq)
    with np.errstate(divide="ignore"):
        return np.divide(move, 0.5 * sep, out=np.zeros_like(move),
                         where=move > 0)


# ----------------------------------------------------------------------------
# ring tables


def _ring_data(f: QFunction):
    """f's ring table (F, cum, core), cached: the angularly integrated ring
    profiles |Du|^2, |u|^2, u . du/dr, |du/dr|^2 (each carrying the 2 pi
    angular weight) as the columns of F, shape (R, 4), with their
    cumulative table and inner core at beta = 2.  F is the transpose of
    the stacked profiles, so each profile is a contiguous row of F.T."""
    return _sweep(f, "ring_data")


def _area_moments(f: QFunction):
    """f's area table (F, cum, core), cached: F the (R, 7) sheet sums of
    the ring profiles s0 = 2 pi <|p|>_theta and s1 = 2 pi <p>_theta (see
    excess), with their cumulative table and inner core at beta = 2."""
    return _sweep(f, "area_moments")


def _quartic_data(f: QFunction):
    """f's table of the ring profile 2 pi <sum_k |Df_k|^4>_theta, cached.
    The mass expansion reads it next to the area table, so the sweep that
    builds it fills that table too, on an average-free part as well."""
    return _sweep(f, "quartic_data", "area_moments")


def _sweep(f: QFunction, *keys: str):
    """f's table under keys[0], cached: when it is missing, from one pass
    of f's one differentiation (QFunction.gradients), whose blocks of rings
    fill the requested tables and the others of the policy in the module
    docstring that are not cached yet.  An average-free part's run reduces
    its parent's blocks through _centred."""
    c = f._cache
    if keys[0] not in c:
        keys += ("ring_data",)
        if f._free_of is None:
            keys += ("area_moments",) if f.n == 2 else ()
            if f.q > 1 and "average_free" not in c:
                # last: its reduction centres the derivative blocks in
                # place, so no reduction may read them after it
                keys += ("free_ring_data",)
        todo = [k for k in dict.fromkeys(keys) if k not in c]
        reduce = [_REDUCTIONS[k](f) for k in todo]

        def sweep(*block):
            return [r(*block) for r in reduce]
        blocks = f.gradients(sweep if f._free_of is None else _centred(sweep))
        for k, rows in zip(todo, zip(*blocks)):
            table = f.rule().disk_table(np.concatenate(rows))
            f.cached(k, lambda: table)
    return c[keys[0]]


def _profiles(x, du_dr, du_dth) -> np.ndarray:
    """The rows of F for a block of rings: samples x and gradients."""
    P = _ring_profile(du_dr)
    return np.stack([P + _ring_profile(du_dth), _ring_profile(x),
                     _ring_profile(x, du_dr), P]).T


def _centred(reduce):
    """reduce, handed a block of a map's rings as its average-free part's
    block: the samples minus their sheet mean, and the derivative blocks,
    which the sweep formed fresh, centred in place (both stencils are
    linear).  The one path of the part's tables: its own sweep and the
    seed from its parent's sweep both reduce through it."""
    def centred(x, du_dr, du_dth):
        return reduce(_minus_sheet_mean(x), _minus_sheet_mean(du_dr, du_dr),
                      _minus_sheet_mean(du_dth, du_dth))
    return centred


def _quartic_rows(x, du_dr, du_dth) -> np.ndarray:
    """The sum |Df|^4 profile of a block: |Df_k|^2 is rotation invariant,
    so the polar gradients give it."""
    g2 = _sq_norm(du_dr) + _sq_norm(du_dth)
    return TWO_PI * np.mean(np.sum(g2 ** 2, axis=0), axis=-1)


def _area_rows(f: QFunction):
    """The reduction of a block of f's rings, (x, u, w) with the polar
    gradients u = du/dr and w = du/dtheta / r, to its rows of the area
    table: s0 is the mean of sqrt(1 + q^2); s1 is Q, then the means of
    (b1, b2, -a1, -a2) from the sheet-summed gradients' cos and sin
    moments, then the mean of u_r x w.  The angular means of all the
    block's sheets are taken as one array, then summed in sheet order from
    0.0, so every row has the bits of a sheet-by-sheet loop."""
    cs = np.stack([np.cos(f.grid.angles), np.sin(f.grid.angles)])
    cs /= f.grid.n_theta

    def rows(x, u, w):
        U, W = cs @ u.sum(axis=0), cs @ w.sum(axis=0)  # (R, cos|sin, n)
        cross = u[..., 0] * w[..., 1]  # (Q, R, T)
        cross -= u[..., 1] * w[..., 0]
        wedge = np.mean(cross, axis=-1)
        q2 = np.square(cross, out=cross)
        q2 += _sq_norm(u)
        q2 += _sq_norm(w)
        q2 += 1.0
        # sum, not np.add.reduce: a one-ring block of 8 or more sheets
        # would be summed pairwise, out of sheet order
        area = sum(np.mean(np.sqrt(q2, out=q2), axis=-1), 0.0)
        wedge = sum(wedge, 0.0)
        return TWO_PI * np.column_stack([area, np.full_like(area, f.q),
                                         U[:, 1] + W[:, 0], W[:, 1] - U[:, 0],
                                         wedge])
    return rows


#: per table key, the reduction of a block of f's rings to the table's rows
_REDUCTIONS = {"ring_data": lambda f: _profiles,
               "free_ring_data": lambda f: _centred(_profiles),
               "area_moments": _area_rows,
               "quartic_data": lambda f: _quartic_rows}


# ----------------------------------------------------------------------------
# averages


def eta_map(f: QFunction) -> QFunction:
    """The sheet average as a single-valued map on the same grid."""
    mean = np.mean(f.values, axis=0, keepdims=True)
    return QFunction(grid=f.grid, values=mean, monodromy=np.array([0]),
                     metadata={**f.metadata, "kind": "sheet-average"})


def average_free_part(f: QFunction) -> QFunction:
    """f minus its sheet average, once per map: cached on f and shared by
    every caller, and f itself when f is an average-free part, whose sheet
    mean is zero by construction and which is known by the parent samples
    it holds (_free_of).  The part is a view (_View) of f's samples: its
    own are formed only when a caller reads values, and its tables come
    from one sweep of f's samples whose blocks, derivatives included, are
    taken minus their sheet mean (_centred).  When f was swept first, that
    sweep gave the part's ring table through the same reduction.  Its ring
    amplitudes (_ring_amplitudes) are read when it is built, which refuses
    with DimensionError samples whose sheet mean overflows."""
    if f._free_of is not None:
        return f

    def build():
        x = f.values
        # it claims no curve
        meta = {**f.metadata, "kind": "average-free",
                "notes": f.metadata.get("notes", []) + ["average-free"]}
        v = _View(lambda: _minus_sheet_mean(x), x.shape, f.grid,
                  f.monodromy.copy(), meta, free_of=x)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(_ring_amplitudes(v))):
                raise DimensionError("samples must be finite")
        if "free_ring_data" in f._cache:
            v.cached("ring_data", lambda: f._cache.pop("free_ring_data"))
        return v
    return f.cached("average_free", build)


def _origin_grid(grid: PolarGrid | None) -> PolarGrid:
    """grid, default_grid() for None; ConfigError unless it is centred at
    the origin, about which the closed forms are sampled."""
    grid = default_grid() if grid is None else grid
    if any(grid.center):
        raise ConfigError("closed forms are sampled about the origin, "
                          f"not about the grid centre {grid.center}")
    return grid


def make_multigraph(spec: CurveSpec, grid: PolarGrid | None = None) -> QFunction:
    """Sample the curve's Q-valued graph on a polar grid centred at the
    origin (ConfigError on any other centre).

    The closed-form sheets are laid down directly and then verified to be a
    legitimate tracked selection: every angular step must move each sheet by
    less than half the local sheet separation, otherwise the angular
    resolution cannot distinguish the branches and a RefinementError asks
    for a larger n_theta.  The samples are formed a block of rings at a
    time (grids._ring_blocks), each block checked while it is in cache;
    every node is formed and checked by the same operations as in one
    pass."""
    grid = _origin_grid(grid)
    monodromy = spec.monodromy
    w = np.empty((spec.q, grid.n_rings, grid.n_theta), dtype=complex)
    values = w[..., None].view(np.float64)  # (re, im) pairs, no copy
    worst = 0.0
    for a, b in _ring_blocks(values):
        spec.sheets(grid.radii[a:b, None], grid.angles[None, :],
                    out=w[:, a:b])
        ratio = _angular_step_ratio(values[:, a:b], monodromy)[1]
        worst = max(worst, float(ratio.max()))
    f = QFunction(grid=grid, values=values, monodromy=monodromy,
                  metadata=spec.claim())
    if worst >= 1.0:
        raise RefinementError(
            "angular step exceeds half the sheet separation "
            f"(worst ratio {worst:.3g}); increase n_theta")
    return f


SPIRAL_MAX_SHEETS = 12  #: the largest sheet count of a spiral profile


def spiral_profile(alpha: float):
    """Angular profile of the alpha-homogeneous map z -> z^alpha.

    Returns (boundary, q): boundary(theta) is the QPoint of the q sheets
    |z|=1, exp(i alpha theta) zeta^j, which is a consistent q-valued map on
    the circle when alpha * q is an integer.  These profiles satisfy
    |g'| = alpha |g|, the angular balance of a harmonic branch, so their
    homogeneous extensions have frequency exactly alpha.  alpha * 2 pi must
    be finite: it is the phase the profile turns through."""
    if not math.isfinite(alpha * TWO_PI):
        raise ConfigError(f"alpha * 2 pi must be finite, got alpha = {alpha}")
    q = next((k for k in range(1, SPIRAL_MAX_SHEETS + 1)
              if abs(alpha * k - round(alpha * k)) < 1e-12), None)
    if q is None:
        raise ConfigError(f"alpha = {alpha} is not rational with "
                          f"denominator <= {SPIRAL_MAX_SHEETS}")

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
    extension is homogeneous by construction at every node.  alpha must be
    positive, with alpha * 2 pi finite, and the grid centred at the origin."""
    if not 0 < alpha * TWO_PI < math.inf:
        raise ConfigError("homogeneity degree must be positive, with "
                          f"alpha * 2 pi finite, got {alpha}")
    grid = _origin_grid(grid)
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
# output formats


def _csv(header: str, rows) -> str:
    """CSV text of every table the library writes: the header line, then
    one line per row.  Strings are written as they are and every other
    value with 17 significant digits, so floats read back bit for bit and
    ints and bools print as integers."""
    lines = [header] + [",".join(v if isinstance(v, str) else f"{v:.17g}"
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    """JSON text of every report the library writes: sorted keys, one-space
    indent, no trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=1)


# ----------------------------------------------------------------------------
# file format: one JSON header line, then the samples as raw little-endian
# float64 in C order (Q, R, T, 2); the format name fixes that encoding.  The
# text format before it (CSV rows ring,angle,sheet,re,im) is still read


#: the format save_qfunction writes
_FORMAT = "qbranch-qfunction-2"
#: the text format load_qfunction still reads
_TEXT_FORMAT = "qbranch-qfunction-1"


def save_qfunction(f: QFunction, path):
    """Write f to path as a file that load_qfunction reads back: one line of
    JSON header (format "qbranch-qfunction-2", q, n_rings, n_theta, r_min,
    r_max, radii, center, monodromy and metadata), then the samples as raw
    little-endian float64 in C order (sheet, ring, angle, component), so
    every float reads back bit for bit.  DimensionError unless the codomain
    is planar."""
    if f.n != 2:
        raise DimensionError("file format stores planar codomains only")
    header = {
        "format": _FORMAT,
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
    samples = np.ascontiguousarray(f.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(samples.data)


def load_qfunction(path) -> QFunction:
    """Read a file written by save_qfunction, or a text file of the format
    before it ("qbranch-qfunction-1": a column line ring,angle,sheet,re,im
    after the header, then one CSV row per sample).

    Raises ConfigError unless the file is readable, its header names one of
    these formats, every header field has its JSON type (_HEADER_FIELDS;
    nothing is coerced), the header describes a grid, and the file holds
    exactly one finite sample for every (sheet, ring, angle) of that grid:
    exactly q n_rings n_theta 16 bytes after the header, or that many rows
    with their indices."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            fmt = header.get("format") if isinstance(header, dict) else None
            if fmt not in (_FORMAT, _TEXT_FORMAT):
                raise ConfigError(f"{path}: not a qbranch QFunction file")
            _check_header(path, header)
            if fmt == _FORMAT:
                body = fh.read()
            else:
                fh.readline()  # column header
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
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
    if min(q, R, T) < 1 or not 0 < r_min < r_max < math.inf:
        raise ConfigError(f"{path}: header describes no grid")
    # before the grid: a header's ring count allocates nothing the samples
    # do not back
    read = _raw_samples if fmt == _FORMAT else _text_samples
    values = read(path, body, q, R, T)
    grid = _header_grid(path, radii, R, T, r_min, r_max, center)
    try:  # QFunction refuses non-finite samples
        return QFunction(grid=grid, values=values, monodromy=monodromy,
                         metadata=header.get("metadata", {}))
    except DimensionError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _raw_samples(path, payload: bytes, q, R, T) -> np.ndarray:
    """The (q, R, T, 2) samples a "qbranch-qfunction-2" payload holds, read
    in place; ConfigError unless it is exactly that many float64."""
    if len(payload) != q * R * T * 16:
        raise ConfigError(
            f"{path}: expected {q * R * T * 16} bytes of samples, found "
            f"{len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(q, R, T, 2)


def _text_samples(path, data: np.ndarray, q, R, T) -> np.ndarray:
    """The (q, R, T, 2) samples the rows of a "qbranch-qfunction-1" file
    hold; ConfigError unless they are q R T rows of 5 columns whose indices
    cover every (ring, angle, sheet) once."""
    if data.shape != (q * R * T, 5):
        raise ConfigError(
            f"{path}: expected {q * R * T} rows of 5 columns, found "
            f"{data.shape[0]} rows of {data.shape[1]}")
    idx = data[:, :3].astype(int)
    if not np.array_equal(idx, data[:, :3]) or np.any(idx < 0) \
            or np.any(idx >= (R, T, q)):
        raise ConfigError(f"{path}: sample index out of range")
    ring, angle, sheet = idx.T
    hit = np.zeros(q * R * T, dtype=bool)
    hit[(sheet * R + ring) * T + angle] = True
    if not hit.all():  # q R T indices in range: distinct iff they cover
        raise ConfigError(f"{path}: duplicated sample index")
    values = np.empty((q, R, T, 2))
    values[sheet, ring, angle] = data[:, 3:]
    return values


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


#: what each header field must be, as JSON: a field that is present and no
#: such value is refused, never coerced
_HEADER_FIELDS = {
    "q": ("an integer", _is_int),
    "n_rings": ("an integer", _is_int),
    "n_theta": ("an integer", _is_int),
    "r_min": ("a number", _is_number),
    "r_max": ("a number", _is_number),
    "radii": ("null or a list of numbers", lambda r: r is None or (
        isinstance(r, list) and all(map(_is_number, r)))),
    "center": ("two finite numbers", lambda c: isinstance(c, list)
               and len(c) == 2 and all(_is_number(x) and math.isfinite(x)
                                       for x in c)),
    "monodromy": ("a list of integers", lambda m: isinstance(m, list)
                  and all(map(_is_int, m))),
    "metadata": ("a JSON object", lambda m: isinstance(m, dict)),
}


def _check_header(path, header: dict):
    """ConfigError, naming the field, unless every field of the header
    that _HEADER_FIELDS lists holds a value of its type."""
    for key, (what, ok) in _HEADER_FIELDS.items():
        if key in header and not ok(header[key]):
            raise ConfigError(f"{path}: header field {key!r} must be {what}, "
                              f"not {header[key]!r}")


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
