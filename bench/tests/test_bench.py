"""Tests of the benchmark itself: seeded inputs, traced runs, result checks
and the span recorder.  Run with `python3 -m pytest bench/tests -q`."""

import copy
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import qbranch as qb
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEED = 5


def _specs(name, seed, n=12):
    wl = workloads.make(name, seed)
    specs = list(itertools.islice(wl.specs(), n))
    return wl, specs


@pytest.mark.parametrize("name", run.NAMES)
def test_generator_is_deterministic_for_a_seed(name):
    wl_a, a = _specs(name, SEED)
    wl_b, b = _specs(name, SEED)
    _, other = _specs(name, SEED + 1)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(other)
    for sa, sb in zip(a, b):
        ia, ib = wl_a.inputs(sa), wl_b.inputs(sb)
        if ia is not None:
            assert ia["checked"] == ib["checked"]
            for (x, y), (u, v) in zip(ia["pairs"], ib["pairs"]):
                assert np.array_equal(x, u) and np.array_equal(y, v)


@pytest.mark.parametrize("name", run.NAMES)
def test_every_block_covers_every_stratum(name):
    wl, specs = _specs(name, SEED, n=2 * len(workloads.WORKLOADS[name].strata))
    block = len(wl.strata)
    if name == "track_io":
        keys = [(s["kind"], s["q"]) for s in specs]
    else:
        keys = [(s["q"], s["p"]) for s in specs]
    for start in (0, block):
        assert sorted(map(str, keys[start:start + block])) == \
            sorted(map(str, wl.strata))


def test_recentering_points_are_valid_by_construction():
    _, specs = _specs("track_io", SEED, n=60)
    for spec in specs:
        d = float(np.hypot(*spec["x"]))
        r_out = 0.45 * min(1.0 - d, d)
        assert r_out > 4 * 2.0 ** -16 and d - r_out > 2.0 ** -16


@pytest.fixture(scope="module")
def first_jobs(tmp_path_factory):
    """One untraced and one traced run of each workload's first job."""
    out = {}
    for name in run.NAMES:
        wl = workloads.make(name, SEED)
        ctx = wl.prepare(tmp_path_factory.mktemp(name))
        spec = next(wl.specs())
        inputs = wl.inputs(spec)
        _, plain = run.timed(wl, spec, inputs, ctx, None, 0)
        plain_digest = wl.digest(plain, ctx)
        plain_items = wl.check(spec, inputs, plain, ctx)
        rec = spans.Recorder()
        _, traced = run.timed(wl, spec, inputs, ctx, rec, 0)
        out[name] = dict(wl=wl, ctx=ctx, spec=spec, inputs=inputs,
                         plain=plain, plain_digest=plain_digest,
                         plain_items=plain_items, rec=rec,
                         traced_digest=wl.digest(traced, ctx))
    return out


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_result_is_byte_identical(first_jobs, name):
    job = first_jobs[name]
    assert job["rec"].spans, "the traced run recorded no spans"
    assert job["traced_digest"] == job["plain_digest"]
    assert workloads.missed(job["plain_items"]) == []


def _perturbed(name, out):
    """A copy of a job output with one result deliberately made wrong."""
    out = copy.copy(out)
    if name == "degree":
        out = dataclasses.replace(out, value=out.value * 1.05)
    elif name == "flatten":
        stitched = copy.deepcopy(out["stitched"])
        stitched.records[0].I += 0.01
        out["stitched"] = stitched
    else:
        loaded = copy.deepcopy(out["loaded"])
        loaded.values = loaded.values.copy()
        loaded.values.flat[7] = np.nextafter(loaded.values.flat[7], np.inf)
        out["loaded"] = loaded
    return out


@pytest.mark.parametrize("name", run.NAMES)
def test_check_rejects_a_perturbed_result(first_jobs, name):
    job = first_jobs[name]
    bad = _perturbed(name, job["plain"])
    items = job["wl"].check(job["spec"], job["inputs"], bad, job["ctx"])
    assert workloads.missed(items)


def test_check_rejects_wrong_recentered_sheets(first_jobs):
    job = first_jobs["track_io"]
    out = dict(job["plain"])
    moved = copy.deepcopy(out["moved"])
    moved.values = moved.values * (1.0 + 1e-2)
    out["moved"] = moved
    items = job["wl"].check(job["spec"], job["inputs"], out, job["ctx"])
    assert [label for label, _, _ in workloads.missed(items)] == \
        ["recenter error / bilinear bound"]


def test_cli_check_rejects_nonzero_exit(first_jobs):
    job = first_jobs["track_io"]
    out = dict(job["plain"], cli=dict(job["plain"]["cli"], code=3))
    items = job["wl"].check(job["spec"], job["inputs"], out, job["ctx"])
    assert [label for label, _, _ in workloads.missed(items)] == \
        ["CLI exit code 0"]


def test_cli_check_rejects_a_changed_limit(first_jobs):
    job = first_jobs["track_io"]
    cli = job["plain"]["cli"]
    data = json.loads(cli["outputs"]["frequency_limit.json"])
    data["estimate"] *= 1.0 + 1e-12
    outputs = dict(cli["outputs"], **{
        "frequency_limit.json": json.dumps(data, sort_keys=True,
                                           indent=1).encode() + b"\n"})
    out = dict(job["plain"], cli=dict(cli, outputs=outputs))
    items = job["wl"].check(job["spec"], job["inputs"], out, job["ctx"])
    assert "CLI limit = in-process limit" in \
        [label for label, _, _ in workloads.missed(items)]


def _namespace_snapshot():
    import numpy
    from qbranch.curves import QFunction
    from qbranch.grids import RadialRule
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "qbranch" or n.startswith("qbranch.")]
    owners += [RadialRule, QFunction, numpy.linalg]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_leave_no_patched_name_behind():
    import qbranch.cli  # noqa: F401  (so the cli layer is wrapped too)
    before = _namespace_snapshot()
    original = qb.frequency.frequency_profile
    rec = spans.Recorder()
    rec.install()
    try:
        # one wrapper, rebound in every namespace that imported the function
        assert qb.frequency_profile.__wrapped__ is original
        assert qb.blowup.frequency_profile is qb.frequency_profile
        assert qb.cli.frequency_profile is qb.frequency_profile
        with pytest.raises(RuntimeError):
            rec.install()
    finally:
        rec.uninstall()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrappers_are_removed_after_a_failing_job():
    before = _namespace_snapshot()
    rec = spans.Recorder()

    class Failing(workloads.Degree):
        def run(self, spec, inputs, ctx, rec=None):
            qb.default_grid(r_min=2.0, r_max=1.0)

    wl = Failing(SEED)
    with pytest.raises(qb.ConfigError):
        run.timed(wl, next(wl.specs()), None, {}, rec, 0)
    after = _namespace_snapshot()
    assert [k for k in before if after[k] is not before[k]] == []
    assert [s.error for s in rec.spans] == ["ConfigError"]


def test_cross_module_imports_are_traced():
    f = qb.make_multigraph(qb.CurveSpec(2, 3),
                           qb.default_grid(r_min=2.0 ** -8, n_theta=64))
    rec = spans.Recorder()
    rec.install()
    try:
        # blowup calls frequency_profile through its own namespace
        qb.singularity_degree(f, qb.BlowupConfig(max_steps=4))
    finally:
        rec.uninstall()
    names = {s.name: s for s in rec.spans}
    parent = rec.spans[names["frequency.frequency_profile"].parent]
    assert parent.name == "blowup.singularity_degree"
    assert "grids.weights" in names and "curves.gradients" in names
    m = rec.metrics(1, 1.0, 1.0)
    assert m["blowup.coarse_blowup_normalize.calls"] >= 3
    assert m["grids.weights.builds"] <= m["grids.weights.calls"]
    assert m["grids.solves"] > 0 and m["qvalue.match_step.calls"] == 0


def test_self_time_subtracts_the_union_of_children():
    rec = spans.Recorder()
    for name, start, end, parent in [("a.root", 0.0, 10.0, -1),
                                     ("b.x", 1.0, 4.0, 0),
                                     ("b.y", 3.0, 5.0, 0),   # overlaps b.x
                                     ("c.z", 7.0, 8.0, 0),
                                     ("c.w", 7.5, 7.75, 3)]:
        span = spans.Span(name, name.split(".")[0], parent, 0)
        span.start, span.end = start, end
        rec.spans.append(span)
    assert rec.self_times() == [5.0, 3.0, 2.0, 0.75, 0.25]


def test_per_layer_metrics_cover_the_declared_list():
    m = spans.Recorder().metrics(1, 1.0, 1.0)
    assert set(m) == {n for n, _ in spans.PER_LAYER}


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        spans.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
