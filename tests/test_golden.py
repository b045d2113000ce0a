"""Byte identity of every user-visible output, against tests/golden.json.

The manifest maps each output to the SHA-256 of its bytes:
- every file that each command of COMMANDS writes, keyed
  "<command> :: <file name>": the ten README commands, then five more;
- each command's exit code and stdout, keyed "<command> :: stdout";
- the stdout of each demo, keyed "demo <file> :: stdout"; test_demos.py
  checks these, so the suite runs each demo once;
- the SHA-256 of the benchmark digest of the first JOBS seed-SEED jobs of
  each benchmark workload (bench/workloads.py), keyed
  "bench <workload> seed <seed> job <i>".

The commands run in process through qbranch.cli.main into a temporary
directory.  The digests hold for the recorded numpy version, which the
manifest names together with the CPU dispatch targets numpy enabled.

    python tests/test_golden.py           # compare every output, demos too
    python tests/test_golden.py --write   # regenerate the manifest

A change that moves bytes on purpose regenerates the manifest and lists
the keys the writer prints in CHANGES.md; a change that claims identity
leaves the manifest alone.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import runpy
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "golden.json"
DEMOS = ROOT / "demos"
DEMO_NAMES = sorted(p.name for p in DEMOS.glob("*.py"))
WRITE = "python tests/test_golden.py --write"

#: the README commands, then five whose bytes earlier changes moved or
#: that reach paths the README commands do not; each gets its own --out
COMMANDS = [
    "frequency --curve 2,3 --radii 2^-8..1",
    "frequency --curve 2,3 --cutoff sharp",
    "degree --curve 3,4",
    "degree --curve 2,5 --perturb z^2",
    "degree --homogeneous 2.0",
    "excess-decay --curve 2,3",
    "bv-track --curve 2,3 --eps3 0.01",
    "hardt-simon --homogeneous 0.8",
    "intervals --curve 2,3 --eps3 0.1",
    "selfcheck --threads 4",
    "degree --homogeneous 0.75",
    "degree --curve 2,5 --perturb 0.3z^2-0.2z^3",
    "intervals --curve 3,4 --eps3 0.2",
    "bv-track --curve 3,4 --eps3 0.2",
    "frequency --curve 2,5 --perturb z^2",
]
#: the benchmark workloads, and the jobs of each that are digested
WORKLOADS = ("degree", "flatten", "track_io")
SEED, JOBS = 1, 10


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def demo_key(name: str) -> str:
    return f"demo {name} :: stdout"


def dispatch_targets() -> list:
    """The CPU dispatch targets this numpy build enabled on this host."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def recorded() -> dict:
    return json.loads(MANIFEST.read_text())


def command_outputs(command: str, out_dir: pathlib.Path) -> dict:
    """Run one CLI command in process; the digests of its exit code and
    stdout, and of every file it wrote."""
    from qbranch.cli import main  # after main() has put src on the path
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(command.split() + ["--out", str(out_dir)])
    got = {f"{command} :: stdout":
           sha256(f"exit {code}\n{stdout.getvalue()}")}
    if out_dir.is_dir():
        got.update((f"{command} :: {p.name}", sha256(p.read_bytes()))
                   for p in sorted(out_dir.iterdir()))
    return got


def job_digests(work: pathlib.Path) -> dict:
    """The digests of the first JOBS seed-SEED jobs of each workload, run
    as bench/run.py runs its timed jobs, untraced."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    got = {}
    for name in WORKLOADS:
        wl = workloads.make(name, SEED)
        (work / name).mkdir(parents=True)
        ctx = wl.prepare(work / name)
        specs = wl.specs()
        for i in range(JOBS):
            job = next(specs)
            out = wl.run(job, wl.inputs(job), ctx)
            got[f"bench {name} seed {SEED} job {i}"] = sha256(
                wl.digest(out, ctx))
    return got


def demo_stdout(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


def outputs(work: pathlib.Path, demos: bool) -> dict:
    """{key: SHA-256} of every output, the demos' stdout only if demos."""
    got = {}
    for i, command in enumerate(COMMANDS):
        got.update(command_outputs(command, work / f"command{i}"))
    got.update(job_digests(work / "bench"))
    if demos:
        got.update((demo_key(name), sha256(demo_stdout(name)))
                   for name in DEMO_NAMES)
    return got


def report(got: dict, produced: set) -> str:
    """'' when the digests of got match the manifest and the keys produced
    are its keys; else a line per mismatching, missing or extra key, and
    a line on this host's numpy version or dispatch targets where they are
    not the recorded ones."""
    man = recorded()
    want = man["sha256"]
    lines = [f"mismatch: {k}" for k in sorted(got)
             if k in want and got[k] != want[k]]
    lines += [f"missing (recorded, not produced): {k}"
              for k in sorted(want.keys() - produced)]
    lines += [f"extra (produced, not recorded): {k}"
              for k in sorted(produced - want.keys())]
    if not lines:
        return ""
    if np.__version__ != man["numpy"]:
        lines.append(f"numpy {np.__version__} is installed, but the digests "
                     f"were recorded under numpy {man['numpy']}")
    here = dispatch_targets()
    if here != man["cpu_dispatch"]:
        lines.append(
            f"this host's numpy dispatch targets {' '.join(here)} differ "
            f"from the recorded {' '.join(man['cpu_dispatch'])}: SIMD "
            "exp/sin and the OpenBLAS kernels can move last bits")
    lines.append(f"if the change is meant, regenerate with `{WRITE}` and "
                 "list the changed keys in CHANGES.md")
    return "\n".join(lines)


def test_numpy_is_the_recorded_version():
    want = recorded()["numpy"]
    assert np.__version__ == want, (
        f"numpy {np.__version__} is installed, but the digests were "
        f"recorded under numpy {want}; check the outputs and regenerate "
        f"with `{WRITE}`")


def test_outputs_match_the_manifest(tmp_path):
    got = outputs(tmp_path, demos=False)
    problems = report(got, set(got) | {demo_key(n) for n in DEMO_NAMES})
    assert not problems, "\n" + problems


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as work:
        got = outputs(pathlib.Path(work), demos=True)
    if "--write" not in argv:
        problems = report(got, set(got))
        print(problems or f"all {len(got)} outputs match {MANIFEST.name}")
        return 1 if problems else 0
    old = recorded()["sha256"] if MANIFEST.is_file() else {}
    MANIFEST.write_text(json.dumps(
        {"numpy": np.__version__, "cpu_dispatch": dispatch_targets(),
         "sha256": got}, indent=1, sort_keys=True) + "\n")
    changed = sorted(k for k in got.keys() | old.keys()
                     if got.get(k) != old.get(k))
    print(f"wrote {len(got)} digests to {MANIFEST}; {len(changed)} keys "
          "changed" + "".join(f"\n  {k}" for k in changed))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
