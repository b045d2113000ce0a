"""Span recorder for the traced benchmark runs.

The recorder wraps the public functions of each qbranch layer from outside
the library: every function a layer module defines under a public name is
replaced by a timing wrapper in every qbranch module namespace that holds
it (so `blowup`'s `from .frequency import frequency_profile` is traced as
well), and `RadialRule.weights` and `QFunction.gradients` are wrapped on
their classes.  `numpy.linalg.solve` and `qvalue.linear_sum_assignment`
get counting wrappers without spans.  `uninstall` puts every original
object back.

Spans are kept in memory (name, start, end, parent, job id, exception
name) and turned into per-layer metrics when the run ends.  Spans opened
in a worker thread whose own stack is empty take the innermost open span
of the installing thread as their parent, which is where the CLI's
per-radius thread pool was started from.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
import weakref
from collections import Counter

LAYERS = ("qvalue", "curves", "grids", "frequency", "blowup", "excess",
          "scaletrack", "cli")

#: per-layer metrics of a traced run, in output order, with their units;
#: counts, times and bytes are averages per traced job, and a ratio whose
#: denominator never occurred (no calls, no records) reads 0
PER_LAYER = [
    ("grids.weights.calls", "count/job"),
    ("grids.weights.builds", "count/job"),
    ("grids.weights.hit_frac", "ratio"),
    ("grids.weights.self_s", "s/job"),
    ("grids.solves", "count/job"),
    ("grids.d_dr_geometric.self_s", "s/job"),
    ("grids.d_dtheta_periodic.self_s", "s/job"),
    ("blowup.singularity_degree.self_s", "s/job"),
    ("blowup.coarse_blowup_normalize.calls", "count/job"),
    ("blowup.coarse_blowup_normalize.self_s", "s/job"),
    ("blowup.rescale.calls", "count/job"),
    ("blowup.rescale.self_s", "s/job"),
    ("blowup.rescale.bytes_out", "B/job"),
    ("blowup.step_fail_frac", "ratio"),
    ("blowup.hardt_simon_check.self_s", "s/job"),
    ("curves.make_multigraph.self_s", "s/job"),
    ("curves.homogeneous_map.self_s", "s/job"),
    ("curves.gradients.calls", "count/job"),
    ("curves.gradients.computes", "count/job"),
    ("curves.gradients.self_s", "s/job"),
    ("curves.save_qfunction.self_s", "s/job"),
    ("curves.save_qfunction.bytes", "B/job"),
    ("curves.load_qfunction.self_s", "s/job"),
    ("curves.load_qfunction.bytes", "B/job"),
    ("frequency.frequency_profile.calls", "count/job"),
    ("frequency.frequency_profile.self_s", "s/job"),
    ("frequency.records", "count/job"),
    ("frequency.invalid_frac", "ratio"),
    ("frequency.frequency_limit.self_s", "s/job"),
    ("frequency.recenter.self_s", "s/job"),
    ("excess.optimal_plane.calls", "count/job"),
    ("excess.optimal_plane.self_s", "s/job"),
    ("excess.gn_iterations", "count/job"),
    ("excess.graph_mass.self_s", "s/job"),
    ("excess.excess_decay_fit.self_s", "s/job"),
    ("scaletrack.intervals_of_flattening.self_s", "s/job"),
    ("scaletrack.universal_frequency.self_s", "s/job"),
    ("scaletrack.bv_budget.self_s", "s/job"),
    ("scaletrack.intervals", "count/job"),
    ("scaletrack.truncated_frac", "ratio"),
    ("qvalue.match_step.calls", "count/job"),
    ("qvalue.match_step.self_s", "s/job"),
    ("qvalue.track_selection.self_s", "s/job"),
    ("qvalue.assign_solves", "count/job"),
    ("qvalue.fast_accept_frac", "ratio"),
    ("qvalue.tracking_refusals", "count/job"),
    ("qvalue.metric_g.self_s", "s/job"),
    ("cli.import_s", "s/job"),
    ("cli.main.self_s", "s/job"),
    ("cli.output_bytes", "B/job"),
    ("cli.exit_nonzero", "count/job"),
] + [(f"{layer}.self_frac", "ratio") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio"),
]


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "error",
                 "linalg_solves", "assign_solves")

    def __init__(self, name, layer, parent, job):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.error = ""
        self.linalg_solves = self.assign_solves = 0


def _weights_key(args, kwargs):
    # the same rounding RadialRule.weights applies to its cache key
    vals = list(args[1:]) + [kwargs[k] for k in ("t_a", "t_b", "beta")
                             if k in kwargs]
    return tuple(round(float(v), 12) for v in vals)


def _path_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) \
        else 0


class Recorder:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._patches: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._weight_keys = weakref.WeakKeyDictionary()
        self._grad_seen = weakref.WeakValueDictionary()

    # ---- recording ------------------------------------------------------

    def add(self, name: str, value=1):
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _innermost(self):
        stack = self._stack()
        if stack:
            return self.spans[stack[-1]]
        if self._main_stack:
            return self.spans[self._main_stack[-1]]
        return None

    def _wrap(self, layer, name, fn, before=None, after=None):
        rec = self
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = rec._main_stack[-1] if rec._main_stack else -1
            span = Span(full, layer, parent, rec.job)
            if before is not None:
                before(args, kwargs)
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # ---- per-function hooks (counts taken at the span boundary) --------

    def _before_weights(self, args, kwargs):
        keys = self._weight_keys.setdefault(args[0], set())
        key = _weights_key(args, kwargs)
        if key not in keys:
            keys.add(key)
            self.add("grids.weights.builds")

    def _before_gradients(self, args, kwargs):
        obj = args[0]
        if self._grad_seen.get(id(obj)) is not obj:
            self._grad_seen[id(obj)] = obj
            self.add("curves.gradients.computes")

    def _after_rescale(self, args, kwargs, out):
        self.add("blowup.rescale.bytes_out",
                 out.values.nbytes + out.grid.radii.nbytes)

    def _after_save(self, args, kwargs, out):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        self.add("curves.save_qfunction.bytes", _path_size(path))

    def _after_load(self, args, kwargs, out):
        path = args[0] if args else kwargs.get("path")
        self.add("curves.load_qfunction.bytes", _path_size(path))

    def _after_profile(self, args, kwargs, out):
        self.add("frequency.records", len(out.records))
        self.add("frequency.invalid",
                 sum(1 for r in out.records if not r.valid))

    def _after_plane(self, args, kwargs, out):
        self.add("excess.gn_iterations", int(out["iterations"]))

    def _after_intervals(self, args, kwargs, out):
        self.add("scaletrack.intervals", len(out.intervals))

    def _after_universal(self, args, kwargs, out):
        intervals = args[1] if len(args) > 1 else kwargs["intervals"]
        self.add("scaletrack.truncated",
                 len(out.notes.get("truncated_intervals", [])))
        self.add("scaletrack.truncated_base", len(intervals.intervals))

    # ---- install / uninstall -------------------------------------------

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        """Wrap every loaded qbranch layer; import nothing new."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        import numpy as np
        self._local.stack = self._main_stack = []
        hooks = {
            "blowup.rescale": (None, self._after_rescale),
            "curves.save_qfunction": (None, self._after_save),
            "curves.load_qfunction": (None, self._after_load),
            "frequency.frequency_profile": (None, self._after_profile),
            "excess.optimal_plane": (None, self._after_plane),
            "scaletrack.intervals_of_flattening":
                (None, self._after_intervals),
            "scaletrack.universal_frequency": (None, self._after_universal),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"qbranch.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__ == mod.__name__ and \
                        not name.startswith("_"):
                    before, after = hooks.get(f"{layer}.{name}", (None, None))
                    wrappers[id(obj)] = self._wrap(layer, name, obj,
                                                   before, after)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "qbranch" or n.startswith("qbranch.")]
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._patch(mod, name, wrappers[id(obj)])

        from qbranch.curves import QFunction
        from qbranch.grids import RadialRule
        self._patch(RadialRule, "weights", self._wrap(
            "grids", "weights", RadialRule.weights, self._before_weights))
        self._patch(QFunction, "gradients", self._wrap(
            "curves", "gradients", QFunction.gradients,
            self._before_gradients))

        rec = self
        solve = np.linalg.solve

        # solve and linear_sum_assignment run in tight loops, so they only
        # bump a counter on the innermost span instead of opening spans
        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            span = rec._innermost()
            if span is not None:
                span.linalg_solves += 1
            return solve(*args, **kwargs)

        self._patch(np.linalg, "solve", counted_solve)

        qvalue = sys.modules["qbranch.qvalue"]
        lsa = qvalue.linear_sum_assignment

        @functools.wraps(lsa)
        def counted_lsa(*args, **kwargs):
            span = rec._innermost()
            if span is not None:
                span.assign_solves += 1
            return lsa(*args, **kwargs)

        self._patch(qvalue, "linear_sum_assignment", counted_lsa)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._main_stack = []
        self._local.stack = []

    # ---- exchange with the traced CLI launcher -------------------------

    FIELDS = ("name", "start", "end", "parent", "job", "error",
              "linalg_solves", "assign_solves")

    def dump(self) -> dict:
        return {"fields": self.FIELDS,
                "spans": [[getattr(s, f) for f in self.FIELDS]
                          for s in self.spans],
                "counts": dict(self.counts)}

    def merge(self, payload: dict, job: int):
        """Append spans and counts recorded in another process as job."""
        base = len(self.spans)
        for row in payload["spans"]:
            fields = dict(zip(self.FIELDS, row))
            parent = fields["parent"]
            span = Span(fields["name"], fields["name"].split(".", 1)[0],
                        parent + base if parent >= 0 else -1, job)
            for f in ("start", "end", "error", "linalg_solves",
                      "assign_solves"):
                setattr(span, f, fields[f])
            self.spans.append(span)
        for key, value in payload["counts"].items():
            self.counts[key] += value

    def write(self, path):
        """Write all spans and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)

    # ---- analysis -------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the union of its children's intervals."""
        children: dict = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            lo = hi = None
            for a, b in sorted(children.get(i, ())):
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out.append(max(span.end - span.start - covered, 0.0))
        return out

    def metrics(self, n_jobs: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics from the spans and counts of n_jobs traced jobs
        that took traced_s seconds, against untraced_s for the same jobs
        without wrappers."""
        n = max(n_jobs, 1)
        own = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_s: Counter = Counter()
        for span, t in zip(self.spans, own):
            calls[span.name] += 1
            self_s[span.name] += t
            layer_s[span.layer] += t
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        # a blow-up step is one coarse_blowup_normalize call made by
        # singularity_degree; it fails when that call or the step's
        # frequency_profile / frequency_limit raises
        step_names = {"blowup.coarse_blowup_normalize",
                      "frequency.frequency_profile",
                      "frequency.frequency_limit"}
        steps = fails = 0
        for span in self.spans:
            if span.name in step_names and span.parent >= 0 and \
                    self.spans[span.parent].name == \
                    "blowup.singularity_degree":
                steps += span.name == "blowup.coarse_blowup_normalize"
                fails += bool(span.error)
        match = [s for s in self.spans if s.name == "qvalue.match_step"]
        values = {
            "grids.weights.hit_frac": ratio(
                calls["grids.weights"] - c["grids.weights.builds"],
                calls["grids.weights"]),
            "blowup.step_fail_frac": ratio(fails, steps),
            "frequency.invalid_frac": ratio(c["frequency.invalid"],
                                            c["frequency.records"]),
            "scaletrack.truncated_frac": ratio(
                c["scaletrack.truncated"], c["scaletrack.truncated_base"]),
            "grids.solves": sum(s.linalg_solves for s in self.spans
                                if s.layer == "grids") / n,
            "qvalue.assign_solves": sum(s.assign_solves for s in self.spans
                                        if s.layer == "qvalue") / n,
            "qvalue.fast_accept_frac": ratio(
                sum(1 for s in match if s.assign_solves == 1), len(match)),
            "qvalue.tracking_refusals": sum(
                1 for s in match if s.error == "TrackingError") / n,
            "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
        }
        for layer in LAYERS:
            values[f"{layer}.self_frac"] = ratio(layer_s[layer], traced_s)
        for name, _ in PER_LAYER:
            if name in values:
                continue
            head, _, tail = name.rpartition(".")
            if tail == "calls":
                values[name] = calls[head] / n
            elif tail == "self_s":
                values[name] = self_s[head] / n
            else:
                values[name] = c[name] / n
        return values
