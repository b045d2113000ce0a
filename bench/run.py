"""qbranch benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload degree --seed 1 --seconds 25 --trace 0

One client in one process runs the workload's jobs in a closed loop: each
job starts after the previous one has finished and been checked.  Jobs come
in blocks that hold every stratum of the workload once (see workloads.py);
the loop stops at the first block boundary after --seconds, so every run
measures the same mix whatever its seed.  One untimed warm-up job, drawn
from a separate stream, runs before the clock starts.  Result checks run
outside the job timer.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 every job runs twice,
untraced and traced by the span recorder in alternating order, the two
results must be byte-identical, and the JSON carries the per-layer
metrics.  The spans of a traced run are written to
bench/out/spans-<workload>.json.

setup_s is the median over five fresh processes, each timed from its
start until it has imported the library, generated its inputs and written
any input files.  The library is imported from ./src; the run refuses to
start without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("degree", "flatten", "track_io")
SETUP_REPEATS = 5
#: jobs beyond the reported tail percentile
TAIL_BEYOND = 10

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_only(args):
    """Child side of the set-up measurement: import, generate, write, exit."""
    import workloads
    wl = workloads.make(args.workload, args.seed)
    wl.prepare(Path(args.setup_only))
    wl.inputs(next(wl.specs()))
    sys.stdout.flush()
    os._exit(0)


def measure_setup(args, work: Path, run_process) -> float:
    times = []
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir()
        argv = [sys.executable, str(HERE / "run.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds", "0",
                "--setup-only", str(d)]
        t0 = time.perf_counter()
        code, _ = run_process(argv, cwd=work, stderr_path=d / "stderr.txt")
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(
                f"set-up process failed: {(d / 'stderr.txt').read_text()}")
        shutil.rmtree(d)
    return statistics.median(times)


def timed(wl, spec, inputs, ctx, rec, job):
    """Run one job; returns (seconds, output).  A traced job runs with the
    recorder installed around it, outside its timer; the job hands the
    recorder on to any CLI child it starts."""
    gc.collect()
    if rec is None:
        t0 = time.perf_counter()
        out = wl.run(spec, inputs, ctx)
        return time.perf_counter() - t0, out
    rec.job = job
    rec.install()
    try:
        t0 = time.perf_counter()
        out = wl.run(spec, inputs, ctx, rec)
        dt = time.perf_counter() - t0
    finally:
        rec.uninstall()
    return dt, out


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.worst = (0.0, "")
        self.peak_child_kb = 0

    def judge(self, wl, spec, inputs, out, ctx) -> bytes:
        """Check one output; raises AssertionError on a missed closed form."""
        if isinstance(out, dict) and "cli" in out:
            self.peak_child_kb = max(self.peak_child_kb,
                                     out["cli"]["maxrss_kb"])
        bad, worst = wl.verdict(spec, inputs, out, ctx)
        self.worst = max(self.worst, worst)
        if bad:
            raise AssertionError(f"closed form missed: {bad}")
        return wl.digest(out, ctx)


def loop(args, wl, ctx, rec):
    """Closed loop over whole blocks until the deadline has passed; returns
    (tally, job seconds, pairs)."""
    tally = Tally()
    durations, pairs = [], []
    # warm-up: a fresh stream of the same seed, so the timed stream and its
    # blocks are untouched
    spec = next(type(wl)(args.seed).specs())
    wl.run(spec, wl.inputs(spec), ctx)
    stream = wl.specs()
    deadline = time.perf_counter() + args.seconds
    job = 0
    while True:
        spec = next(stream)
        inputs = wl.inputs(spec)
        tally.attempted += 1
        try:
            if rec is None:
                dt, out = timed(wl, spec, inputs, ctx, None, job)
                durations.append(dt)
                tally.judge(wl, spec, inputs, out, ctx)
            else:
                seconds, digests = {}, {}
                for traced in ((False, True) if job % 2 == 0 else
                               (True, False)):
                    dt, out = timed(wl, spec, inputs, ctx,
                                    rec if traced else None, job)
                    seconds[traced] = dt
                    digests[traced] = tally.judge(wl, spec, inputs, out, ctx)
                pairs.append((seconds[False], seconds[True]))
                if digests[True] != digests[False]:
                    raise AssertionError("traced result differs from untraced")
        except Exception:
            tally.failed += 1
            sys.stderr.write(f"job {job} failed: {json.dumps(spec)[:300]}\n")
            traceback.print_exc()
        job += 1
        if job % len(wl.strata) == 0 and time.perf_counter() >= deadline:
            return tally, durations, pairs


def worst_error(tally) -> str:
    share, label = tally.worst
    return (f"worst closed-form error {share:.3g} of its tolerance "
            f"({label or 'no check ran'})")


def end_to_end(wl, setup_s, tally, durations):
    d = sorted(durations)
    n = len(d)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        tail, pct = d[k], 100.0 * (k + 1) / n
    else:
        tail, pct = (d[-1] if d else 0.0), 100.0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  tally.peak_child_kb)
    values = {
        "setup_s": setup_s,
        "jobs_per_s": n / sum(d) if n else 0.0,
        "job_p50_s": statistics.median(d) if n else 0.0,
        "job_tail_s": tail,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-up processes",
        "jobs_per_s": f"{n} jobs completed / {sum(d):.3f} s of job time",
        "job_tail_s": f"p{pct:.0f} of {n} jobs, {TAIL_BEYOND} jobs beyond it"
                      if n > TAIL_BEYOND else
                      f"maximum: only {n} jobs, fewer than {TAIL_BEYOND + 1}",
        "peak_rss_mb": "peak of the benchmark process and its CLI children",
        "ok_frac": f"1 - fail_frac, fail_frac = {tally.failed}/"
                   f"{tally.attempted}; {worst_error(tally)}",
    }
    return values, notes


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "qbranch" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qbranch sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_only(args)
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        setup_s = measure_setup(args, work, workloads.run_process)
        wl = workloads.make(args.workload, args.seed)
        ctx = wl.prepare(work)
        rec = spans.Recorder() if args.trace else None
        tally, durations, pairs = loop(args, wl, ctx, rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one "
          f"client in one process, {tally.attempted} jobs attempted")
    if rec is None:
        values, notes = end_to_end(wl, setup_s, tally, durations)
        units = END_TO_END
    else:
        rec.write(OUT / f"spans-{args.workload}.json")
        values = rec.metrics(len(pairs), sum(t for _, t in pairs),
                             sum(u for u, _ in pairs))
        notes = {"trace.overhead_frac": f"{len(pairs)} traced/untraced "
                                        "job pairs"}
        units = spans.PER_LAYER
        print(worst_error(tally))
    for name, unit in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
