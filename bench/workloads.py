"""Seeded inputs, jobs and closed-form checks of the benchmark workloads.

Every workload draws its job specs from a seeded stream in blocks: each
block is a seeded permutation of the workload's strata (curves or object
kinds).  run.py stops only at block boundaries, so every run sees every
stratum in the same proportion whatever the seed.  A spec holds only
parameters; the job builds its input object itself, because users pay that
cost on every run, so per-object caches start cold in every job.

`check` returns (label, error, tolerance) triples; a job misses its closed
form when any error exceeds its tolerance.  The tolerances are the ones
pinned by the library's test suite (tests/test_acceptance.py,
tests/test_scaletrack.py and the selfcheck subcommand), except the
recentering check, whose bound is derived in TrackIO._recenter_error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

import qbranch as qb

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: the five acceptance curves (Q, p)
CURVES = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
#: share of curve jobs that carry a perturbation c z^k, k in {2, 3}
PERTURBED_SHARE = 0.4
#: excess threshold of the flattening scan (criterion 10 of the battery)
EPS3_SQ = 0.2
#: radii of the excess-decay fit, 2^-9 .. 2^-3 (criterion 9)
FIT_RADII = [2.0 ** -k for k in range(9, 2, -1)]
#: metric_g pairs per track_io job, and how many are checked exhaustively
METRIC_PAIRS = 120
METRIC_CHECKED = 6


def _curve_spec(spec) -> qb.CurveSpec:
    return qb.CurveSpec(spec["q"], spec["p"],
                        tuple(complex(re, im) for re, im in spec["h"]))


def _perturbation(rng) -> list:
    """Taylor coefficients [[re, im], ...] of c z^k, or [] (unperturbed)."""
    if rng.random() >= PERTURBED_SHARE:
        return []
    k = int(rng.choice([2, 3]))
    c = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.random())
    return [[0.0, 0.0]] * k + [[float(c.real), float(c.imag)]]


def _curve_draw(rng, q, p) -> dict:
    return {"q": q, "p": p, "h": _perturbation(rng)}


def run_process(argv, cwd, stderr_path):
    """Run a child to completion; return (exit code, peak RSS in KiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def rel(got, want) -> float:
    return abs(got - want) / abs(want)


def flag(ok: bool) -> float:
    """Error value of a yes/no check against tolerance 0."""
    return 0.0 if ok else math.inf


class Workload:
    """One benchmark workload: a seeded spec stream, a job and its checks."""

    name = ""
    strata: list = []

    def __init__(self, seed: int):
        salt = zlib.crc32(self.name.encode())
        self.rng = np.random.default_rng([seed, salt])

    def specs(self):
        """Endless deterministic stream of job specs."""
        while True:
            for i in self.rng.permutation(len(self.strata)):
                yield self.draw(self.strata[i])

    def draw(self, stratum) -> dict:
        raise NotImplementedError

    def prepare(self, work: Path) -> dict:
        """Set-up work done once per run (input files); returns the context."""
        return {"work": work}

    def inputs(self, spec):
        """Concrete job inputs generated from the spec, outside the timer."""
        return None

    def run(self, spec, inputs, ctx, rec=None):
        raise NotImplementedError

    def check(self, spec, inputs, out, ctx) -> list:
        raise NotImplementedError

    def digest(self, out, ctx) -> bytes:
        raise NotImplementedError

    def verdict(self, spec, inputs, out, ctx):
        """(missed checks, worst error share of tolerance with its label)."""
        items = self.check(spec, inputs, out, ctx)
        return missed(items), worst_share(items)


class Degree(Workload):
    """singularity_degree with the default BlowupConfig on the default grid."""

    name = "degree"
    strata = CURVES

    def draw(self, curve):
        return _curve_draw(self.rng, *curve)

    def run(self, spec, inputs, ctx, rec=None):
        f = qb.make_multigraph(_curve_spec(spec), qb.default_grid())
        return qb.singularity_degree(f)

    def check(self, spec, inputs, est, ctx):
        # the average-free part of a perturbed curve is the unperturbed one,
        # so its degree is p/Q in every case (criterion 1)
        target = spec["p"] / spec["q"]
        return [("degree relative error", rel(est.value, target), 0.02),
                ("degree relative spread", est.spread / target, 0.02),
                ("degree converged", flag(est.converged), 0.0)]

    def digest(self, est, ctx):
        return est.to_json().encode()


class Flatten(Workload):
    """Frequency, excess decay, flattening intervals, BV and Hardt-Simon on
    one curve per job."""

    name = "flatten"
    strata = CURVES

    def draw(self, curve):
        return _curve_draw(self.rng, *curve)

    def run(self, spec, inputs, ctx, rec=None):
        f = qb.make_multigraph(_curve_spec(spec), qb.default_grid())
        radii = qb.default_profile_radii(f.grid, octaves=2.0)
        ramp = qb.frequency_profile(f, radii=radii, cutoff=qb.RAMP)
        sharp = qb.frequency_profile(f, radii=radii, cutoff=qb.SHARP)
        out = {"ramp": ramp, "sharp": sharp,
               "lim_ramp": qb.frequency_limit(ramp),
               "lim_sharp": qb.frequency_limit(sharp),
               "fit": qb.excess_decay_fit(f, FIT_RADII)}
        out["intervals"] = qb.intervals_of_flattening(f, eps3_sq=EPS3_SQ)
        out["stitched"] = qb.universal_frequency(f, out["intervals"])
        out["bv"] = qb.bv_budget(out["stitched"])
        out["hs"] = qb.hardt_simon_check(qb.average_free_part(f),
                                         rho_inner=64 * f.grid.r_min)
        return out

    def check(self, spec, inputs, out, ctx):
        q, p = spec["q"], spec["p"]
        target = p / q
        stitched = out["stitched"].records
        items = [
            ("intervals found", flag(not out["intervals"].empty
                                     and len(stitched) > 0), 0.0),
            ("stitched |I - p/Q|",
             max((abs(r.I - target) for r in stitched), default=math.inf),
             1e-3),
            ("BV negative variation", out["bv"]["total"], 0.01),
            ("Hardt-Simon polar residual",
             out["hs"].polar_identity_residual, 0.01),
            ("Hardt-Simon |alpha - p/Q|",
             abs(out["hs"].alpha_used - target), 1e-3),
            ("Hardt-Simon not divergent", flag(not out["hs"].divergent), 0.0),
        ]
        if not spec["h"]:
            # closed forms of the full graph hold only without perturbation
            recs = out["ramp"].records + out["sharp"].records
            lr = out["lim_ramp"]["estimate"]
            gamma = 2.0 * (target - 1.0)
            items += [
                ("profile records valid", flag(all(r.valid for r in recs)),
                 0.0),
                ("profile |I - p/Q|", max(abs(r.I - target) for r in recs),
                 1e-3),
                ("cutoff disagreement",
                 rel(out["lim_sharp"]["estimate"], lr), 0.01),
                ("excess exponent relative error",
                 rel(out["fit"]["exponent"], gamma), 0.10),
            ]
        return items

    def digest(self, out, ctx):
        parts = [out["ramp"].to_csv(), out["sharp"].to_csv(),
                 json.dumps([out["lim_ramp"], out["lim_sharp"]],
                            sort_keys=True),
                 repr(out["fit"]["exponent"]),
                 qb.excess_table_csv(out["fit"]["records"]),
                 out["intervals"].to_csv(), out["stitched"].records_csv(),
                 out["stitched"].jumps_csv(),
                 json.dumps(out["bv"], sort_keys=True), out["hs"].to_json()]
        return "\n".join(parts).encode()


#: homogeneous maps r^(m/q) g(theta): q sheets, numerators coprime to q
HOMOGENEOUS = {2: [1, 3], 3: [1, 2, 4, 5], 4: [1, 3, 5]}


class TrackIO(Workload):
    """Recentering (sheet tracking), QFunction file round trip, a batch of
    optimal-matching distances, and one `python -m qbranch.cli frequency
    --input` process that reads the file the job saved."""

    name = "track_io"
    strata = [(kind, q) for kind in ("homogeneous", "curve")
              for q in (2, 3, 4)]

    #: 16 octaves like the default grid, a quarter of its angular samples,
    #: which keeps the in-process part of a job under a second
    @staticmethod
    def grid():
        return qb.default_grid(n_theta=128)

    def draw(self, stratum):
        kind, q = stratum
        rng = self.rng
        if kind == "homogeneous":
            spec = {"kind": kind, "q": q,
                    "m": int(rng.choice(HOMOGENEOUS[q])), "h": []}
        else:
            p = int(rng.choice([p for (qq, p) in CURVES if qq == q]))
            spec = {"kind": kind, **_curve_draw(rng, q, p)}
        # off the branch point and well inside the disk, so recenter's
        # recentered disk (radius 0.45 min(1 - d, d)) is valid by construction
        d = rng.uniform(0.3, 0.6)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        spec["x"] = [float(d * np.cos(phi)), float(d * np.sin(phi))]
        spec["pairs_seed"] = int(rng.integers(2 ** 32))
        return spec

    def inputs(self, spec):
        rng = np.random.default_rng(spec["pairs_seed"])
        pairs = []
        for _ in range(METRIC_PAIRS):
            q = int(rng.integers(1, 7))
            pairs.append((rng.normal(size=(q, 2)), rng.normal(size=(q, 2))))
        checked = rng.choice(METRIC_PAIRS, METRIC_CHECKED, replace=False)
        return {"pairs": pairs, "checked": sorted(int(i) for i in checked)}

    def prepare(self, work):
        return {"work": work, "path": work / "track_io.qf",
                "out": work / "cli-out", "spans": work / "cli-spans.json"}

    def run(self, spec, inputs, ctx, rec=None):
        grid = self.grid()
        if spec["kind"] == "homogeneous":
            f = qb.homogeneous_map(spec["m"] / spec["q"], grid=grid)
        else:
            f = qb.make_multigraph(_curve_spec(spec), grid)
        moved = qb.recenter(f, spec["x"])
        profile = qb.frequency_profile(moved)
        qb.save_qfunction(f, ctx["path"])
        loaded = qb.load_qfunction(ctx["path"])
        dists = [qb.metric_g(qb.QPoint(a), qb.QPoint(b))
                 for a, b in inputs["pairs"]]
        cli = cli_process(["frequency", "--input", str(ctx["path"])], ctx,
                          rec)
        return {"f": f, "moved": moved, "profile": profile,
                "loaded": loaded, "dists": dists, "cli": cli}

    def check(self, spec, inputs, out, ctx):
        f, moved, loaded = out["f"], out["moved"], out["loaded"]
        items = [("recentered profile valid",
                  flag(all(r.valid for r in out["profile"].records)), 0.0),
                 ("recenter error / bilinear bound",
                  self._recenter_error(spec, f, moved), 2.0)]
        same = (np.array_equal(f.values, loaded.values)
                and np.array_equal(f.monodromy, loaded.monodromy)
                and np.array_equal(f.grid.radii, loaded.grid.radii)
                and f.grid.n_theta == loaded.grid.n_theta
                and json.dumps(f.metadata, sort_keys=True)
                == json.dumps(loaded.metadata, sort_keys=True))
        items.append(("file round trip bit-exact", flag(same), 0.0))
        gap = 0.0
        for i in inputs["checked"]:
            a, b = (qb.QPoint(v) for v in inputs["pairs"][i])
            gap = max(gap, abs(out["dists"][i] - qb.brute_force_metric(a, b)))
        items.append(("|metric_g - brute_force_metric|", gap, 0.0))
        return items + self._check_cli(spec, loaded, out["cli"])

    @staticmethod
    def _check_cli(spec, loaded, cli):
        """The CLI's profile and limit of the saved file must be the bytes
        of the same computation in process (its output is the same for any
        --threads); I = m/q where the map has that closed form."""
        items = [("CLI exit code 0", flag(cli["code"] == 0), 0.0)]
        if cli["code"] != 0:
            return items
        files = {k: v.decode() for k, v in cli["outputs"].items()}
        prof = qb.frequency_profile(
            loaded, radii=qb.default_profile_radii(loaded.grid))
        lim = qb.frequency_limit(prof)
        items += [
            ("CLI profile = in-process profile",
             flag(files.get("frequency_profile.csv") == prof.to_csv()), 0.0),
            ("CLI limit = in-process limit",
             flag(files.get("frequency_limit.json")
                  == json.dumps(lim, sort_keys=True, indent=1) + "\n"), 0.0)]
        if not spec["h"]:
            m = spec["m"] if spec["kind"] == "homogeneous" else spec["p"]
            target = m / spec["q"]
            rows = [line.split(",") for line in
                    files["frequency_profile.csv"].splitlines()[1:]]
            lim = json.loads(files["frequency_limit.json"])["estimate"]
            items += [
                ("CLI profile records valid",
                 flag(all(r[9] == "1" for r in rows)), 0.0),
                ("CLI profile |I - m/q|",
                 max(abs(float(r[3]) - target) for r in rows), 1e-3),
                ("CLI frequency limit relative error", rel(lim, target),
                 0.02)]
        return items

    @staticmethod
    def _recenter_error(spec, f, moved) -> float:
        """Largest unordered distance between the recentered sheets and the
        closed-form sheets at the shifted nodes, in units of the bilinear
        interpolation bound (dt^2 + dtheta^2)/8 * max |second derivative|.

        The sheets are h(z) + the q-th roots of z^m (m = p for curves), so
        along t = log r and theta each root has second derivatives of size
        (m/q)^2 |z|^(m/q) and h = c z^k has k^2 |h|."""
        q = spec["q"]
        m = spec["m"] if spec["kind"] == "homogeneous" else spec["p"]
        alpha = m / q
        x, y = moved.grid.nodes_xy()
        z = (x + spec["x"][0]) + 1j * (y + spec["x"][1])
        coeffs = [complex(re, im) for re, im in spec["h"]]
        h = np.zeros_like(z)
        for c in reversed(coeffs):
            h = h * z + c
        k = len(coeffs) - 1 if coeffs else 0
        root = np.abs(z) ** alpha * np.exp(1j * alpha * np.angle(z))
        zeta = np.exp(2j * np.pi * np.arange(q) / q)
        want = h[None] + root[None] * zeta[:, None, None]
        got = moved.values[..., 0] + 1j * moved.values[..., 1]
        err = np.full(z.shape, np.inf)
        for perm in itertools.permutations(range(q)):
            d = np.sqrt(np.sum(np.abs(got[list(perm)] - want) ** 2, axis=0))
            err = np.minimum(err, d)
        curvature = np.sqrt(q) * (alpha ** 2 * np.abs(z) ** alpha
                                  + k ** 2 * np.abs(h))
        bound = (f.grid.dt ** 2 + f.grid.d_theta ** 2) / 8.0 * curvature
        return float(np.max(err / bound))

    def digest(self, out, ctx):
        moved = out["moved"]
        parts = [moved.values.tobytes(), moved.monodromy.tobytes(),
                 out["profile"].to_csv().encode(),
                 Path(ctx["path"]).read_bytes(),
                 out["loaded"].values.tobytes(),
                 repr(out["dists"]).encode(), str(out["cli"]["code"]).encode()]
        parts += [name.encode() + b"=" + data
                  for name, data in sorted(out["cli"]["outputs"].items())]
        return hashlib.sha256(b"\0".join(parts)).digest()


def cli_process(args, ctx, rec=None) -> dict:
    """Run `python -m qbranch.cli <args> --out <dir>` with the default
    --threads and collect its exit code, peak RSS and output files.  With a
    recorder the child is bench/cli_trace.py, whose spans join the job's."""
    shutil.rmtree(ctx["out"], ignore_errors=True)
    if rec is None:
        argv = [sys.executable, "-m", "qbranch.cli"]
    else:
        argv = [sys.executable, str(HERE / "cli_trace.py"), str(ctx["spans"])]
    code, maxrss = run_process(argv + args + ["--out", str(ctx["out"])],
                               cwd=ctx["work"],
                               stderr_path=ctx["work"] / "cli-stderr.txt")
    outputs = {}
    if ctx["out"].is_dir():
        outputs = {p.name: p.read_bytes()
                   for p in sorted(ctx["out"].iterdir())}
    if rec is not None:
        if ctx["spans"].is_file():
            rec.merge(json.loads(ctx["spans"].read_text()), rec.job)
            ctx["spans"].unlink()
        rec.add("cli.output_bytes", sum(map(len, outputs.values())))
        rec.add("cli.exit_nonzero", int(code != 0))
    return {"code": code, "maxrss_kb": maxrss, "outputs": outputs}


WORKLOADS = {w.name: w for w in (Degree, Flatten, TrackIO)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def missed(items) -> list:
    """Checks whose error exceeds the tolerance (NaN counts as a miss)."""
    return [(label, err, tol) for label, err, tol in items
            if not err <= tol]


def worst_share(items):
    """Largest error as a share of its tolerance, with its label; a
    tolerance of 0 gives share 0 when met and inf when missed."""
    shares = [(0.0, "")]
    for label, err, tol in items:
        if tol > 0:
            share = err / tol if err == err else math.inf
        else:
            share = 0.0 if err <= tol else math.inf
        shares.append((share, label))
    return max(shares)
