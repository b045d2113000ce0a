"""Points of the unordered Q-tuple space and sheet tracking.

A QPoint is an unordered multiset of Q vectors in R^n.  The stored order is
an implementation artifact: equality, distance and serialization are all
order-free.  The distance is the optimal-matching one,

    g(a, b) = min over permutations sigma of sqrt(sum_i |a_i - b_sigma(i)|^2),

computed through an exact assignment solve on the squared-distance matrix.
The solver, linear_sum_assignment, is written here in plain Python: for Q
of a dozen or fewer a solve costs tens of microseconds, while importing a
compiled one (scipy.optimize) costs most of a second and 50 MB.
Exhaustive enumeration over all Q! pairings, brute_force_metric, is kept
here as the independent oracle that the tests and `qbranch selfcheck`
compare the assignment route against.

Everything here is a pure function of immutable inputs, safe to call from
any number of threads; values transfer freely between them.

Tracking turns a chain of QPoints into labelled sheets.  One batched
routine matches stacks of consecutive sample pairs: where every sheet moves
less than a quarter of the sheet separation, the nearest-neighbour matching
is the provably unique optimum, and only the other pairs get an exact
assignment solve.  Labels compose the matchings, and for closed chains the
relabelling around the loop is the monodromy permutation.  Near a sheet
collision the optimal matching stops being well separated from the
runner-up; tracking then refuses with the sample index instead of guessing.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, TrackingError

#: relative margin (in units of the local sheet separation) below which two
#: near-optimal matchings are declared ambiguous
TAU_TRACK = 1e-6


@dataclass(frozen=True)
class QPoint:
    """Unordered Q-tuple of vectors in R^n."""

    vectors: np.ndarray  # (Q, n)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionError("QPoint needs a (Q, n) array of vectors")
        if not np.all(np.isfinite(v)):
            raise DimensionError("QPoint vectors must be finite")
        object.__setattr__(self, "vectors", v)

    @property
    def q(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def from_complex(values) -> "QPoint":
        """Build a point of A_Q(R^2) from complex sheet values."""
        z = np.atleast_1d(np.asarray(values, dtype=complex))
        return QPoint(np.column_stack([z.real, z.imag]))

    def as_complex(self) -> np.ndarray:
        if self.n != 2:
            raise DimensionError("complex view needs n = 2")
        return self.vectors[:, 0] + 1j * self.vectors[:, 1]

    def canonical(self) -> np.ndarray:
        """Vectors sorted lexicographically, the serialization order."""
        v = self.vectors
        order = np.lexsort(v.T[::-1])
        return v[order]

    def to_json(self) -> str:
        return json.dumps(self.canonical().tolist())

    @staticmethod
    def from_json(text: str) -> "QPoint":
        return QPoint(np.asarray(json.loads(text), dtype=float))


def _check_compatible(a: QPoint, b: QPoint):
    if a.q != b.q:
        raise DimensionError(f"multiplicity mismatch: {a.q} vs {b.q}")
    if a.n != b.n:
        raise DimensionError(f"ambient dimension mismatch: {a.n} vs {b.n}")


def linear_sum_assignment(cost: np.ndarray):
    """Exact minimum-cost assignment of a square (Q, Q) cost matrix.

    Returns (rows, cols) with rows = arange(Q): row i is assigned column
    cols[i].  Entries of inf are forbidden edges.  Raises ValueError on a
    non-square matrix, on NaN or -inf entries, and when every assignment
    uses a forbidden edge.

    This is the shortest-augmenting-path method with dual potentials of
    Crouse, "On implementing 2D rectangular assignment algorithms" (IEEE
    TAES 52(4), 2016), in scipy's scan order and tie rule: columns are
    scanned from the last, and of equal reduced costs an unassigned column
    is preferred.  So among several optimal assignments it picks the one
    scipy.optimize.linear_sum_assignment picks.  It runs in O(Q^3) Python
    operations, which for the few sheets of a Q-point costs far less than
    importing a compiled solver."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost matrix contains NaN or -inf entries")
    c = cost.tolist()
    nq = len(c)
    u, v = [0.0] * nq, [0.0] * nq
    path = [-1] * nq
    col4row, row4col = [-1] * nq, [-1] * nq
    for cur in range(nq):
        # Dijkstra over reduced costs from row cur to an unassigned column
        shortest = [math.inf] * nq
        remaining = list(range(nq - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            seen_rows.append(i)
            ci, ui = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(nq), np.asarray(col4row, dtype=np.intp)


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 for (..., Q, n) stacks, shape (..., Q, Q)."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.einsum("...ijk,...ijk->...ij", diff, diff)


def optimal_matching(a: QPoint, b: QPoint) -> np.ndarray:
    """Permutation sigma minimizing sum_i |a_i - b_sigma(i)|^2."""
    _check_compatible(a, b)
    return linear_sum_assignment(_cost_matrix(a.vectors, b.vectors))[1]


def metric_g(a: QPoint, b: QPoint) -> float:
    """Optimal-matching distance on A_Q(R^n).

    The value is the square root of the matched squared distances summed in
    index order, so where the optimal matching is unique it agrees bit for
    bit with an exhaustive minimum that uses the same summation.  Where
    several tie (repeated sheets), they agree to the rounding of the sum:
    the exhaustive minimum keeps whichever order rounds lowest."""
    sigma = optimal_matching(a, b)
    diff = a.vectors - b.vectors[sigma]
    return float(np.sqrt(np.sum(np.einsum("ij,ij->i", diff, diff))))


def eta(a: QPoint) -> np.ndarray:
    """Average of the sheets, a single vector in R^n."""
    return np.mean(a.vectors, axis=0)


def average_free(a: QPoint) -> QPoint:
    """Subtract the sheet average from every sheet."""
    return QPoint(a.vectors - eta(a)[None, :])


def brute_force_metric(a: QPoint, b: QPoint) -> float:
    """Exhaustive Q!-permutation minimum of the matching distance.

    Exponential in Q; this is the reference implementation that the tests
    and `qbranch selfcheck` use to certify the assignment route."""
    _check_compatible(a, b)
    av, bv = a.vectors, b.vectors
    best = np.inf
    for perm in itertools.permutations(range(a.q)):
        diff = av - bv[list(perm)]
        val = float(np.sqrt(np.sum(np.einsum("ij,ij->i", diff, diff))))
        if val < best:
            best = val
    return best


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, per node: the component products summed in
    order, which for n = 2 is the einsum's sum bit for bit."""
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


def _separation(v: np.ndarray) -> np.ndarray:
    """Smallest distance between two distinct sheets of a (Q, ..., n) stack,
    shape (...); inf where Q = 1."""
    sq = np.full(v.shape[1:-1], np.inf)
    for a, b in itertools.combinations(range(len(v)), 2):
        sq = np.minimum(sq, _sq_norm(v[a] - v[b]))
    return np.sqrt(sq)


def min_separation(a: QPoint) -> float:
    """Smallest distance between two distinct sheets (inf for Q = 1)."""
    return float(_separation(a.vectors))


def _second_best_cost(cost: np.ndarray, sigma: np.ndarray) -> float:
    """Cost of the best matching that differs from sigma, found by forbidding
    one matched edge at a time."""
    best = np.inf
    for i in range(len(cost)):
        c = cost.copy()
        c[i, sigma[i]] = np.inf
        try:
            rows, cols = linear_sum_assignment(c)
        except ValueError:
            continue
        val = c[rows, cols].sum()
        if np.isfinite(val):
            best = min(best, float(val))
    return best


def _match_pairs(a: np.ndarray, b: np.ndarray, index) -> np.ndarray:
    """Optimal matchings sigma[i] from a[i] to b[i], (N, Q, n) stacks.

    Where every sheet moves less than sep / 4, sep the smaller separation of
    the two samples, the nearest-neighbour matching is the provably unique
    optimum.  The other pairs get an exact assignment solve and refuse with
    TrackingError(sample_index=index[i]) on an exact collision, or when the
    runner-up is within TAU_TRACK * max(sep, step) of the optimum: margins
    shrink with the separation near a branch point, so measuring them
    against the separation alone would never fire there."""
    cost = _cost_matrix(a, b)
    sigma = np.argmin(cost, axis=2)
    step = np.sqrt(cost.min(axis=2).max(axis=1))
    sep = np.minimum(_separation(a.transpose(1, 0, 2)),
                     _separation(b.transpose(1, 0, 2)))
    for i in np.flatnonzero(~(step < 0.25 * sep)):
        if sep[i] == 0.0:
            raise TrackingError(
                "sheets collide exactly, no selection convention is defined",
                sample_index=index[i])
        rows, sigma[i] = linear_sum_assignment(cost[i])
        moved = cost[i, rows, sigma[i]]
        s = np.sqrt(moved.max())
        scale = max(sep[i], s) if np.isfinite(sep[i]) else max(1.0, s)
        if np.sqrt(_second_best_cost(cost[i], sigma[i])) \
                - np.sqrt(moved.sum()) < TAU_TRACK * scale:
            raise TrackingError(
                f"ambiguous sheet matching (margin below tau_track) "
                f"at sample {index[i]}", sample_index=index[i])
    return sigma


def match_step(a: QPoint, b: QPoint, sample_index=None) -> np.ndarray:
    """Optimal matching from a to b, guarded as in _match_pairs."""
    _check_compatible(a, b)
    return _match_pairs(a.vectors[None], b.vectors[None], [sample_index])[0]


@dataclass
class SheetSelection:
    """Labelled sheets along a chain of QPoints.

    sheets[k, i] is the vector of sheet k at sample i; consecutive samples
    are matched by the identity in these labels.  For closed chains,
    monodromy[k] is the label a sheet continues into after one loop:
    sheet k just past the end coincides with sheet monodromy[k] at the start.
    """

    sheets: np.ndarray            # (Q, N, n)
    monodromy: np.ndarray         # (Q,) permutation, identity if open chain
    closed: bool = False

    @property
    def q(self) -> int:
        return self.sheets.shape[0]

    def monodromy_cycle_lengths(self) -> list[int]:
        return sorted(len(cycle) for cycle in _cycles(self.monodromy))


def _cycles(perm) -> list:
    """The cycles of a sheet permutation, each a list of sheets in the order
    perm visits them from its smallest sheet, ordered by that sheet."""
    seen = np.zeros(len(perm), dtype=bool)
    out = []
    for start in range(len(perm)):
        cycle, k = [], start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = int(perm[k])
        if cycle:
            out.append(cycle)
    return out


def _chain_labels(sigma: np.ndarray) -> np.ndarray:
    """Labels along chains of matchings: sigma[..., i, :] maps the rows of
    sample i to those of sample i + 1, and labels[..., i, k] is the row of
    sample i that carries label k, starting from the identity."""
    labels = [np.broadcast_to(np.arange(sigma.shape[-1]),
                              sigma.shape[:-2] + sigma.shape[-1:])]
    for i in range(sigma.shape[-2]):
        labels.append(np.take_along_axis(sigma[..., i, :], labels[-1], -1))
    return np.stack(labels, axis=-2)


def track_selection(samples, closed: bool = False) -> SheetSelection:
    """Track sheet labels along a chain of QPoints.

    The first sample fixes the labels.  All consecutive samples are matched
    in one batch, and each sample is relabelled by the composed matchings,
    so the returned sheet arrays are continuous in the sample index.  With
    closed=True the chain is implicitly closed from the last sample back to
    the first and the accumulated relabelling is returned as the
    monodromy."""
    pts = [p if isinstance(p, QPoint) else QPoint(p) for p in samples]
    if not pts:
        raise TrackingError("empty sample chain", sample_index=0)
    for p in pts[1:]:
        _check_compatible(pts[0], p)
    raw = np.stack([p.vectors for p in pts])  # (N, Q, n)
    nxt = np.concatenate([raw[1:], raw[:1]]) if closed else raw[1:]
    labels = _chain_labels(_match_pairs(
        raw[:len(nxt)], nxt, range(1, len(nxt) + 1)))
    sheets = np.take_along_axis(raw, labels[:len(raw), :, None], axis=1)
    # label k continues into the start label whose raw row is labels[-1][k]
    return SheetSelection(
        sheets=np.ascontiguousarray(sheets.transpose(1, 0, 2)),
        monodromy=labels[-1] if closed else labels[0], closed=closed)
