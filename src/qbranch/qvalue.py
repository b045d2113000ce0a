"""Points of the unordered Q-tuple space and sheet tracking.

A QPoint is an unordered multiset of Q vectors in R^n.  The stored order is
an implementation artifact: equality, distance and serialization are all
order-free.  The distance is the optimal-matching one,

    g(a, b) = min over permutations sigma of sqrt(sum_i |a_i - b_sigma(i)|^2),

computed through an exact assignment solve on the squared-distance matrix.
Exhaustive enumeration over all Q! pairings, brute_force_metric, is kept
here as the independent oracle that the tests and `qbranch selfcheck`
compare the assignment route against.

Everything here is a pure function of immutable inputs, safe to call from
any number of threads; values transfer freely between them.

Tracking turns a chain of QPoints into labelled sheets: consecutive samples
are matched optimally, labels are propagated, and for closed chains the
composite relabelling around the loop is the monodromy permutation.  Near a
sheet collision the optimal matching stops being well separated from the
runner-up; tracking then refuses with the sample index instead of guessing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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


def _cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def optimal_matching(a: QPoint, b: QPoint) -> np.ndarray:
    """Permutation sigma minimizing sum_i |a_i - b_sigma(i)|^2."""
    _check_compatible(a, b)
    cost = _cost_matrix(a.vectors, b.vectors)
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(a.q, dtype=int)
    sigma[rows] = cols
    return sigma


def metric_g(a: QPoint, b: QPoint) -> float:
    """Optimal-matching distance on A_Q(R^n).

    The value is the square root of the matched squared distances summed in
    index order, so it agrees bit for bit with an exhaustive minimum that
    uses the same summation."""
    sigma = optimal_matching(a, b)
    diff = a.vectors - b.vectors[sigma]
    return float(np.sqrt(np.sum(np.einsum("ij,ij->i", diff, diff))))


def eta(a: QPoint) -> np.ndarray:
    """Average of the sheets, a single vector in R^n."""
    return np.mean(a.vectors, axis=0)


def average_free(a: QPoint) -> QPoint:
    """Subtract the sheet average from every sheet."""
    return QPoint(a.vectors - eta(a)[None, :])


def brute_force_metric(a: QPoint, b: QPoint, return_perm: bool = False):
    """Exhaustive Q!-permutation minimum of the matching distance.

    Exponential in Q; this is the reference implementation that the tests
    and `qbranch selfcheck` use to certify the assignment route."""
    _check_compatible(a, b)
    av, bv = a.vectors, b.vectors
    best = np.inf
    best_perm = None
    for perm in itertools.permutations(range(a.q)):
        diff = av - bv[list(perm)]
        val = float(np.sqrt(np.sum(np.einsum("ij,ij->i", diff, diff))))
        if val < best:
            best = val
            best_perm = perm
    if return_perm:
        return best, np.asarray(best_perm)
    return best


def min_separation(a: QPoint) -> float:
    """Smallest distance between two distinct sheets (inf for Q = 1)."""
    if a.q == 1:
        return np.inf
    cost = _cost_matrix(a.vectors, a.vectors)
    cost[np.diag_indices(a.q)] = np.inf
    return float(np.sqrt(cost.min()))


def _second_best_cost(cost: np.ndarray, sigma: np.ndarray) -> float:
    """Cost of the best matching that differs from sigma, found by forbidding
    one matched edge at a time."""
    q = cost.shape[0]
    best = np.inf
    for i in range(q):
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


def match_step(a: QPoint, b: QPoint, tau_factor: float = TAU_TRACK,
               sample_index=None) -> np.ndarray:
    """Optimal matching from a to b with an ambiguity guard.

    Raises TrackingError when the runner-up matching is within
    tau_factor * (local scale) of the optimum, where the local scale is the
    larger of the sheet separation and the step length: margins shrink with
    the separation near a branch point, so measuring them against the
    separation alone would never fire there."""
    _check_compatible(a, b)
    sep = min(min_separation(a), min_separation(b))
    if sep == 0.0:
        raise TrackingError(
            "sheets collide exactly, no selection convention is defined",
            sample_index=sample_index)
    cost = _cost_matrix(a.vectors, b.vectors)
    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(a.q, dtype=int)
    sigma[rows] = cols
    if a.q == 1:
        return sigma
    best = float(cost[rows, cols].sum())
    # fast accept: every sheet moved much less than half the separation,
    # which makes the nearest-neighbour matching provably unique
    step = float(np.sqrt(np.max(cost[rows, cols])))
    if np.isfinite(sep) and step < 0.25 * sep:
        return sigma
    second = _second_best_cost(cost, sigma)
    scale = max(sep, step) if np.isfinite(sep) else max(1.0, step)
    tau = tau_factor * scale
    if np.sqrt(max(second, 0.0)) - np.sqrt(max(best, 0.0)) < tau:
        raise TrackingError(
            f"ambiguous sheet matching (margin below tau_track) "
            f"at sample {sample_index}", sample_index=sample_index)
    return sigma


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

    @property
    def n_samples(self) -> int:
        return self.sheets.shape[1]

    def qpoint(self, i: int) -> QPoint:
        return QPoint(self.sheets[:, i, :])

    def monodromy_cycle_lengths(self) -> list[int]:
        seen = np.zeros(self.q, dtype=bool)
        out = []
        for start in range(self.q):
            if seen[start]:
                continue
            length, k = 0, start
            while not seen[k]:
                seen[k] = True
                k = int(self.monodromy[k])
                length += 1
            out.append(length)
        return sorted(out)


def track_selection(samples, closed: bool = False,
                    tau_factor: float = TAU_TRACK) -> SheetSelection:
    """Track sheet labels along a chain of QPoints.

    The first sample fixes the labels.  Each subsequent sample is relabelled
    by the optimal matching with its predecessor, so the returned sheet
    arrays are continuous in the sample index.  With closed=True the chain
    is implicitly closed from the last sample back to the first and the
    accumulated relabelling is returned as the monodromy."""
    pts = [p if isinstance(p, QPoint) else QPoint(p) for p in samples]
    if not pts:
        raise TrackingError("empty sample chain", sample_index=0)
    q, n = pts[0].q, pts[0].n
    N = len(pts)
    sheets = np.empty((q, N, n))
    sheets[:, 0, :] = pts[0].vectors
    for i in range(1, N):
        _check_compatible(pts[i - 1], pts[i])
        prev = QPoint(sheets[:, i - 1, :])
        sigma = match_step(prev, pts[i], tau_factor, sample_index=i)
        sheets[:, i, :] = pts[i].vectors[sigma]
    monodromy = np.arange(q)
    if closed:
        last = QPoint(sheets[:, N - 1, :])
        sigma = match_step(last, pts[0], tau_factor, sample_index=N)
        # label k continues into the start label whose raw row is sigma[k]
        monodromy = sigma
    return SheetSelection(sheets=sheets, monodromy=monodromy, closed=closed)
