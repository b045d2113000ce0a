"""Command-line front end: flags, config files, outputs, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbranch as qb
from qbranch.cli import _HANDLERS, _parse_perturbation, main

FAST = ["--r-min", "2^-10", "--n-theta", "256"]


def run(args, tmp_path, sub="out"):
    out = tmp_path / sub
    code = main(args + ["--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFrequencyCommand:
    def test_curve_profile(self, tmp_path):
        code, out = run(["frequency", "--curve", "2,3",
                         "--radii", "2^-8..1"] + FAST, tmp_path)
        assert code == 0
        header, rows = read_csv(out / "frequency_profile.csv")
        i_col = header.index("I")
        values = [float(r[i_col]) for r in rows if r[-1] == "1"]
        assert len(values) > 40
        assert max(abs(v - 1.5) for v in values) < 1e-3
        lim = json.loads((out / "frequency_limit.json").read_text())
        assert lim["estimate"] == pytest.approx(1.5, abs=0.01)

    def test_sharp_cutoff_agrees(self, tmp_path):
        _, out_a = run(["frequency", "--curve", "2,3"] + FAST,
                       tmp_path, "ramp")
        _, out_b = run(["frequency", "--curve", "2,3",
                        "--cutoff", "sharp"] + FAST, tmp_path, "sharp")
        lim_a = json.loads((out_a / "frequency_limit.json").read_text())
        lim_b = json.loads((out_b / "frequency_limit.json").read_text())
        assert lim_b["estimate"] == pytest.approx(lim_a["estimate"],
                                                  rel=0.01)

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        code, _ = run(["frequency"] + FAST, tmp_path)
        assert code == 2
        assert "config-error" in capsys.readouterr().err

    def test_conflicting_inputs_rejected(self, tmp_path):
        code, _ = run(["frequency", "--curve", "2,3",
                       "--homogeneous", "1.5"] + FAST, tmp_path)
        assert code == 2

    def test_bad_curve_spec(self, tmp_path):
        code, _ = run(["frequency", "--curve", "4,2"] + FAST, tmp_path)
        assert code == 2
        code, _ = run(["frequency", "--curve", "nope"] + FAST, tmp_path)
        assert code == 2

    @pytest.mark.parametrize("command, name", [
        ("frequency", "frequency_limit.json"), ("degree", "degree.json")])
    def test_reducible_curve(self, tmp_path, command, name):
        # w^4 = z^6 is two (2,3) branches, of degree 3/2
        code, out = run([command, "--curve", "4,6"] + FAST, tmp_path)
        assert code == 0
        report = json.loads((out / name).read_text())
        value = report["estimate" if command == "frequency" else "value"]
        assert abs(value - 1.5) < 2e-6

    def test_file_input(self, tmp_path, small_grid):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        path = tmp_path / "in.qfn"
        qb.save_qfunction(f, path)
        code, out = run(["frequency", "--input", str(path),
                         "--radii", "2^-2..1"], tmp_path)
        assert code == 0
        assert (out / "frequency_profile.csv").exists()


@pytest.mark.parametrize("command", ["frequency", "degree"])
def test_text_and_raw_files_of_one_map_write_the_same_bytes(command,
                                                            tmp_path):
    """--input reads a text file of the format before save_qfunction's to
    the same map as the raw file save_qfunction writes."""
    from conftest import save_curve
    grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
    outs = []
    for text in (True, False):
        path = save_curve(tmp_path / f"in-{text}.qfn", grid, text)
        code, out = run([command, "--input", str(path)], tmp_path,
                        f"out-{text}")
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] and outs[0] == outs[1]


class TestDegreeCommand:
    def test_curve34(self, tmp_path):
        code, out = run(["degree", "--curve", "3,4", "--max-steps", "8"]
                        + FAST, tmp_path)
        assert code == 0
        est = json.loads((out / "degree.json").read_text())
        assert est["value"] == pytest.approx(4 / 3, abs=0.01)
        assert est["converged"] is True
        assert all(set(s) == {"k", "r", "I"} for s in est["per_step"])

    def test_homogeneous_exact(self, tmp_path):
        code, out = run(["degree", "--homogeneous", "2.0",
                         "--max-steps", "8"] + FAST, tmp_path)
        assert code == 0
        est = json.loads((out / "degree.json").read_text())
        assert est["value"] == pytest.approx(2.0, abs=1e-4)

    def test_degree_below_one_is_flagged(self, tmp_path):
        # the paper proves a degree of at least 1 at a flat singular point
        code, out = run(["degree", "--homogeneous", "0.75"] + FAST, tmp_path)
        assert code == 0
        est = json.loads((out / "degree.json").read_text())
        assert est["value"] == pytest.approx(0.75, abs=1e-4)
        assert "at least 1" in est["below_one_note"]

    def test_degree_above_one_gets_no_below_one_note(self, tmp_path):
        code, out = run(["degree", "--curve", "2,3"] + FAST, tmp_path)
        assert code == 0
        assert "below_one_note" not in json.loads(
            (out / "degree.json").read_text())

    def test_perturbed_flags_discrepancy(self, tmp_path):
        code, out = run(["degree", "--curve", "2,5", "--perturb", "z^2",
                         "--max-steps", "8"] + FAST, tmp_path)
        assert code == 0
        est = json.loads((out / "degree.json").read_text())
        assert est["value"] == pytest.approx(2.5, abs=0.05)
        assert est["discrepancy"] is True

    def test_zero_input_numeric_error(self, tmp_path, small_grid, capsys):
        f = qb.make_multigraph(qb.CurveSpec(2, 3), small_grid)
        zero = f.replace_values(0.0 * f.values)
        path = tmp_path / "zero.qfn"
        qb.save_qfunction(zero, path)
        code, out = run(["degree", "--input", str(path)], tmp_path)
        assert code == 3
        assert "numeric-error" in capsys.readouterr().err
        assert not (out / "degree.json").exists()


class TestOtherCommands:
    def test_excess_decay(self, tmp_path):
        code, out = run(["excess-decay", "--curve", "2,3",
                         "--radii", "2^-7..2^-2"] + FAST, tmp_path)
        assert code == 0
        fit = json.loads((out / "excess_decay.json").read_text())
        assert fit["exponent"] == pytest.approx(1.0, abs=0.1)
        assert "dropped" not in fit
        header, _ = read_csv(out / "excess_decay.csv")
        assert header == ["r", "excess", "exponent_window", "mass",
                          "tilt_norm", "definition"]

    def test_excess_decay_drops_steep_radii(self, tmp_path):
        code, out = run(["excess-decay", "--curve", "2,3",
                         "--radii", "2^-8..1"] + FAST, tmp_path)
        assert code == 0
        fit = json.loads((out / "excess_decay.json").read_text())
        assert fit["exponent"] == pytest.approx(1.0, abs=0.1)
        dropped = [r for r, _ in fit["dropped"]]
        assert 1.0 in dropped and min(dropped) > 2.0 / 3.0
        _, rows = read_csv(out / "excess_decay.csv")
        assert max(float(row[0]) for row in rows) < 2.0 / 3.0

    def test_bv_track(self, tmp_path):
        code, out = run(["bv-track", "--curve", "2,3", "--eps3", "0.1"]
                        + FAST + ["--points-per-octave", "2"], tmp_path)
        assert code == 0
        bv = json.loads((out / "bv.json").read_text())
        assert bv["total"] < 0.01
        assert (out / "universal_profile.csv").exists()
        assert (out / "jumps.csv").exists()

    def test_bv_track_reads_the_cutoff(self, tmp_path):
        # the stitched records are read with the requested cutoff; the
        # default run is the ramp one
        f = qb.make_multigraph(qb.CurveSpec(2, 3), qb.default_grid(
            r_min=2.0 ** -10, n_theta=256))
        iv = qb.intervals_of_flattening(f, eps3_sq=0.1)
        args = ["bv-track", "--curve", "2,3", "--eps3", "0.1"] + FAST
        csv = {}
        for name, cutoff in (("ramp", qb.RAMP), ("sharp", qb.SHARP)):
            extra = ["--cutoff", "sharp"] if name == "sharp" else []
            code, out = run(args + extra, tmp_path, sub=name)
            assert code == 0
            csv[name] = (out / "universal_profile.csv").read_text()
            assert csv[name] == qb.universal_frequency(
                f, iv, cutoff=cutoff).records_csv()
        assert csv["sharp"] != csv["ramp"]

    def test_bv_track_single_valued(self, tmp_path):
        # a one-sheet map is measured itself, as by degree: its average-free
        # part is zero and left no valid record
        code, out = run(["bv-track", "--homogeneous", "2"] + FAST, tmp_path)
        assert code == 0
        _, rows = read_csv(out / "universal_profile.csv")
        assert len(rows) >= 2
        assert all(abs(float(row[2]) - 2.0) < 1e-3 for row in rows)
        assert json.loads((out / "bv.json").read_text())["total"] <= 0.01

    def test_bv_track_small_threshold_on_default_grid(self, tmp_path):
        # the tight threshold needs the deep default grid to admit scales
        code, out = run(["bv-track", "--curve", "2,3", "--eps3", "0.01"],
                        tmp_path)
        assert code == 0
        bv = json.loads((out / "bv.json").read_text())
        assert bv["total"] < 0.01

    def test_hardt_simon_divergence(self, tmp_path):
        code, out = run(["hardt-simon", "--homogeneous", "0.8",
                         "--rho", "2^-7"] + FAST, tmp_path)
        assert code == 0
        res = json.loads((out / "hardt_simon.json").read_text())
        assert res["divergent"] is True

    def test_hardt_simon_bounded_at_a_coarse_rho(self, tmp_path):
        code, out = run(["hardt-simon", "--homogeneous", "1.5",
                         "--rho", "2^-4"] + FAST, tmp_path)
        assert code == 0
        res = json.loads((out / "hardt_simon.json").read_text())
        assert res["divergent"] is False
        assert res["growth_exponent"] == pytest.approx(1.0, abs=1e-6)

    def test_hardt_simon_refuses_coinciding_sheets(self, tmp_path):
        # the average-free part of two equal sheets is zero, so column B
        # has no spectrum: a numeric error, not an answer
        f = qb.make_multigraph(qb.CurveSpec(2, 3), qb.default_grid(
            r_min=2.0 ** -10, n_theta=256))
        path = tmp_path / "coinciding.qfn"
        qb.save_qfunction(f.replace_values(np.repeat(f.values[:1], 2, 0)),
                          path)
        code, out = run(["hardt-simon", "--input", str(path)], tmp_path)
        assert code == 3 and not out.exists()

    def test_intervals(self, tmp_path):
        code, out = run(["intervals", "--curve", "2,3", "--eps3", "0.1"]
                        + FAST, tmp_path)
        assert code == 0
        header, rows = read_csv(out / "intervals.csv")
        assert float(rows[0][header.index("t_j")]) == pytest.approx(1 / 32)
        meta = json.loads((out / "intervals.json").read_text())
        assert meta["min_ratio"] >= 0.25


class TestConfigHandling:
    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve 2,3\nn-theta 256\nr-min 2^-10\n"
                       "# a comment\nmax-steps 8\n")
        out = tmp_path / "out"
        code = main(["degree", "--config", str(cfg), "--curve", "3,4",
                     "--out", str(out)])
        assert code == 0
        est = json.loads((out / "degree.json").read_text())
        assert est["value"] == pytest.approx(4 / 3, abs=0.01)  # override won

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve 2,3\nwibble 7\n")
        code = main(["degree", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "wibble" in capsys.readouterr().err

    def test_out_of_range_value_rejected(self, tmp_path):
        code, _ = run(["frequency", "--curve", "2,3",
                       "--n-theta", "8"], tmp_path)
        assert code == 2

    def test_no_partial_outputs_on_failure(self, tmp_path):
        code, out = run(["hardt-simon", "--homogeneous", "0.8",
                         "--rho", "2^-30"] + FAST, tmp_path)
        assert code == 3
        assert not out.exists() or not any(out.iterdir())

    def test_radii_window_validation(self, tmp_path):
        code, _ = run(["frequency", "--curve", "2,3",
                       "--radii", "1..0.5"] + FAST, tmp_path)
        assert code == 2

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_options_may_precede_the_command(self, command, tmp_path):
        # one parser: every command takes every option, on either side
        source = [] if command == "selfcheck" else ["--curve", "2,3"]
        source += ["--eps3", "0.2"]  # intervals for bv-track
        before, out_b = run(source + FAST + [command], tmp_path, "before")
        after, out_a = run([command] + source + FAST, tmp_path, "after")
        assert before == after
        files = sorted(p.name for p in out_a.iterdir())
        assert sorted(p.name for p in out_b.iterdir()) == files
        assert all((out_b / name).read_bytes() == (out_a / name).read_bytes()
                   for name in files)

    @pytest.mark.parametrize("args", [[], ["wibble"], ["--curve", "2,3"],
                                      ["degree", "degree"]])
    def test_command_is_one_of_the_handlers(self, args, tmp_path, capsys):
        code, out = run(args, tmp_path)
        assert code == 2
        assert "usage: qbranch" in capsys.readouterr().err
        assert not out.exists()


def _config_file(text):
    def make(tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(text)
        return str(path)
    return make


def _damaged_file(kind, text=False):
    def make(tmp_path):
        from conftest import write_corrupt_qfunction
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
        return str(write_corrupt_qfunction(tmp_path / f"{kind}.qfn", grid,
                                           kind, text))
    return make


def _bad_radii_file(kind, text=False):
    def make(tmp_path):
        from conftest import write_qfunction_bad_radii
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
        return str(write_qfunction_bad_radii(tmp_path / f"{kind}.qfn", grid,
                                             kind, text))
    return make


def _edited_header_file(edit):
    def make(tmp_path):
        from conftest import edit_qfunction_header, save_curve
        grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
        path = save_curve(tmp_path / "edited.qfn", grid)
        return str(edit_qfunction_header(path, edit))
    return make


def _below_regular_file(tmp_path):
    (tmp_path / "plain").write_text("not a directory\n")
    return str(tmp_path / "plain" / "out")


def _zero_file(tmp_path):
    grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
    f = qb.make_multigraph(qb.CurveSpec(2, 3), grid)
    path = tmp_path / "zero.qfn"
    qb.save_qfunction(f.replace_values(0.0 * f.values), path)
    return str(path)


def _bare_claim_file(tmp_path):
    """The (2,3) curve saved with metadata that claims a curve and names
    none of its fields."""
    from conftest import edit_qfunction_header
    grid = qb.default_grid(r_min=2.0 ** -6, n_theta=64)
    path = tmp_path / "claim.qfn"
    qb.save_qfunction(qb.make_multigraph(qb.CurveSpec(2, 3), grid), path)
    return str(edit_qfunction_header(path, lambda h: {
        **h, "metadata": {"kind": "curve"}}))


def _ratio15_file(tmp_path):
    """A map on a grid of radius ratio 1.5: log 2 / log 1.5 = 1.71 rings
    per octave, not a whole number."""
    grid = qb.PolarGrid(radii=[1.5 ** k for k in range(-24, 1)],
                        n_theta=128)
    path = tmp_path / "ratio15.qfn"
    qb.save_qfunction(qb.homogeneous_map(1.5, grid=grid), path)
    return str(path)


#: (arguments, expected exit code); a callable argument is replaced by the
#: path it creates under tmp_path, and --out defaults to tmp_path / "out"
EXIT_CASES = {
    "ok": (["frequency", "--curve", "2,3"] + FAST, 0),
    "threads_accepted": (["frequency", "--curve", "2,3", "--threads", "3"]
                         + FAST, 0),
    "threads_validated": (["frequency", "--curve", "2,3", "--threads", "0"]
                          + FAST, 2),
    "no_input": (["frequency"] + FAST, 2),
    "conflicting_inputs": (["frequency", "--curve", "2,3",
                            "--homogeneous", "1.5"] + FAST, 2),
    "p_not_above_q_curve": (["frequency", "--curve", "3,3"] + FAST, 2),
    "malformed_curve": (["frequency", "--curve", "nope"] + FAST, 2),
    "unknown_flag": (["frequency", "--wibble", "7"], 2),
    "unknown_config_key": (["degree", "--config",
                            _config_file(b"curve 2,3\nwibble 7\n")], 2),
    "binary_config": (["degree", "--config", _config_file(b"\xff\xfe\x00")],
                      2),
    "missing_config": (["degree", "--config", "/nonexistent/run.cfg"], 2),
    "out_of_range_value": (["frequency", "--curve", "2,3",
                            "--n-theta", "8"], 2),
    "subnormal_r_min": (["frequency", "--curve", "2,3", "--r-min", "1e-320"],
                        2),
    "malformed_number": (["frequency", "--curve", "2,3", "--r-min", "2^x"],
                         2),
    "overflowing_number": (["frequency", "--curve", "2,3", "--rho",
                            "10^400"], 2),
    "complex_number": (["hardt-simon", "--curve", "2,3", "--rho=-8^0.5"],
                       2),
    "points_per_octave_not_dividing": (["bv-track", "--curve", "2,3",
                                        "--eps3", "0.1",
                                        "--points-per-octave", "3"] + FAST,
                                       2),
    "rings_per_octave_not_whole": (["bv-track", "--input", _ratio15_file],
                                   2),
    "reversed_radii": (["frequency", "--curve", "2,3", "--radii", "1..0.5"]
                       + FAST, 2),
    "malformed_radii": (["frequency", "--curve", "2,3", "--radii",
                         "2^x..1"] + FAST, 2),
    "non_numeric_radii": (["frequency", "--curve", "2,3", "--radii",
                           "abc..1"] + FAST, 2),
    "malformed_perturb_power": (["degree", "--curve", "2,5", "--perturb",
                                 "z^x"] + FAST, 2),
    "malformed_perturb_coef": (["degree", "--curve", "2,5", "--perturb",
                                "cz^2"] + FAST, 2),
    "malformed_perturb_list": (["degree", "--curve", "2,5", "--perturb",
                                "0,0,abc"] + FAST, 2),
    "empty_perturb_sum": (["degree", "--curve", "2,5", "--perturb", "+"]
                          + FAST, 2),
    "missing_input_file": (["frequency", "--input", "/nonexistent/in.qfn"],
                           2),
    "truncated_input": (["frequency", "--input",
                         _damaged_file("truncated", text=True)], 2),
    "duplicated_row": (["frequency", "--input",
                        _damaged_file("duplicated", text=True)], 2),
    "index_out_of_range": (["frequency", "--input",
                            _damaged_file("index_out_of_range", text=True)],
                           2),
    "nan_sample": (["frequency", "--input",
                    _damaged_file("nan_sample", text=True)], 2),
    "mismatched_radii": (["frequency", "--input",
                          _bad_radii_file("not_geometric", text=True)], 2),
    "truncated_payload": (["frequency", "--input",
                           _damaged_file("truncated")], 2),
    "trailing_payload": (["degree", "--input", _damaged_file("trailing")],
                         2),
    "nan_payload_sample": (["frequency", "--input",
                            _damaged_file("nan_sample")], 2),
    "inf_payload_sample": (["degree", "--input",
                            _damaged_file("inf_sample")], 2),
    "mismatched_radii_raw": (["frequency", "--input",
                              _bad_radii_file("not_geometric")], 2),
    "unknown_file_format": (["frequency", "--input", _edited_header_file(
        lambda h: {**h, "format": "qbranch-qfunction-3"})], 2),
    "infinite_r_max_without_radii": (["frequency", "--input",
                                      _edited_header_file(lambda h: {
                                          **h, "radii": None,
                                          "r_max": float("inf")})], 2),
    "out_below_regular_file": (["frequency", "--curve", "2,3", "--out",
                                _below_regular_file] + FAST, 2),
    "bare_curve_claim_degree": (["degree", "--input", _bare_claim_file], 2),
    "bare_curve_claim_frequency": (["frequency", "--input",
                                    _bare_claim_file], 0),
    "zero_input": (["degree", "--input", _zero_file], 3),
    "rho_below_grid": (["hardt-simon", "--homogeneous", "0.8", "--rho",
                        "2^-30"] + FAST, 3),
    "rho_above_half": (["hardt-simon", "--homogeneous", "0.8", "--rho",
                        "0.7"] + FAST, 3),
    "rho_leaves_one_annulus": (["hardt-simon", "--homogeneous", "0.8",
                                "--rho", "0.2"] + FAST, 3),
    "rho_coarse_bounded": (["hardt-simon", "--homogeneous", "1.5", "--rho",
                            "2^-4"] + FAST, 0),
    "rho_infinite": (["hardt-simon", "--homogeneous", "0.8", "--rho", "inf"]
                     + FAST, 3),
    "homogeneous_infinite": (["hardt-simon", "--homogeneous", "inf"] + FAST,
                             2),
    "homogeneous_phase_overflows": (["frequency", "--homogeneous", "1e308"]
                                    + FAST, 2),
    "perturb_infinite_coef": (["degree", "--curve", "2,5", "--perturb",
                               "infz^2"] + FAST, 2),
    "perturb_overflowing_coef": (["degree", "--curve", "2,5", "--perturb",
                                  "1e400z^2"] + FAST, 2),
    "perturb_nan_list": (["frequency", "--curve", "2,5", "--perturb",
                          "0,0,nan"] + FAST, 2),
    "perturb_complex_exponent_coef": (["frequency", "--curve", "2,5",
                                       "--perturb", "z^2-(1e-3+2e-3j)z^3"]
                                      + FAST, 0),
    # each config type checks its keys for every subcommand, used or not
    "eps3_out_of_range": (["frequency", "--curve", "2,3", "--eps3", "5"]
                          + FAST, 2),
    "eps_bar_zero": (["intervals", "--curve", "2,3", "--eps-bar", "0"]
                     + FAST, 2),
    "delta2_out_of_range": (["intervals", "--curve", "2,3", "--delta2",
                             "0.5"] + FAST, 2),
    "ce_below_one": (["bv-track", "--curve", "2,3", "--ce", "0.5"] + FAST, 2),
    "single_valued_bv_track": (["bv-track", "--homogeneous", "2"] + FAST, 0),
    "ce_nan": (["intervals", "--curve", "2,3", "--ce", "nan"] + FAST, 2),
    "tilt_jump_zero": (["intervals", "--curve", "2,3", "--tilt-jump", "0"]
                       + FAST, 2),
    "scale_factor_out_of_range": (["degree", "--curve", "2,3",
                                   "--scale-factor", "1.5"] + FAST, 2),
    "max_steps_zero": (["degree", "--curve", "2,3", "--max-steps", "0"]
                       + FAST, 2),
    "unknown_norm_mode": (["degree", "--curve", "2,3", "--norm-mode", "foo"]
                          + FAST, 2),
    "unknown_cutoff": (["selfcheck", "--cutoff", "foo"], 2),
}

_PREFIX = {2: "config-error", 3: "numeric-error", 4: "internal-error"}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_code_table(case, tmp_path, capsys):
    args, expected = EXIT_CASES[case]
    args = [a(tmp_path) if callable(a) else a for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    code = main(args)
    err = capsys.readouterr().err
    assert code == expected, err
    if expected in _PREFIX and case != "unknown_flag":
        assert err.startswith(_PREFIX[expected])
    out = tmp_path / "out"
    if expected != 0 and out.is_dir():
        assert not any(out.iterdir())


@pytest.mark.parametrize("text, coeffs", [
    ("1e-3z^2", (0, 0, 1e-3)),
    ("2.5E-1z^2", (0, 0, 0.25)),
    ("z^2-1e-3z^3", (0, 0, 1, -1e-3)),
    ("(0.3+0.2j)z^3", (0, 0, 0, 0.3 + 0.2j)),
])
def test_perturbation_coefficients_keep_their_signs(text, coeffs):
    # the sign of an exponent, or one inside parentheses, starts no term
    assert _parse_perturbation(text) == tuple(map(complex, coeffs))


@pytest.mark.parametrize("args, message", [
    (["frequency", "--curve", "2,3", "--radii", "3..4"],
     "config-error: radius window contains no grid radii\n"),
    (["degree", "--curve", "2,5", "--perturb", "0.5z^x"],
     "config-error: cannot parse perturbation term '0.5z^x'\n"),
    (["degree", "--curve", "2,5", "--perturb", "+"],
     "config-error: cannot parse perturbation '+'\n"),
    (["degree", "--input", _bare_claim_file],
     "config-error: the claimed curve q=None, p=None, h_coeffs=[] is "
     "malformed: "),
])
def test_refusal_messages(args, message, tmp_path, capsys):
    # the message, or its start where the rest is Python's own
    args = [a(tmp_path) if callable(a) else a for a in args]
    code, out = run(args + FAST, tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["frequency", "degree"])
@pytest.mark.parametrize("field, value", [
    ("metadata", ["x"]), ("metadata", None), ("center", [float("nan"), 0]),
    ("center", [0]), ("center", "00"), ("monodromy", [1.5, 0]),
    ("n_theta", 64.5), ("n_theta", "64"), ("q", "2")])
def test_malformed_header_field_is_refused(command, field, value, tmp_path,
                                           capsys):
    # a coerced value would be read silently, and non-dict metadata
    # would fail later as an internal error
    from conftest import edit_qfunction_header
    path = tmp_path / "f.qfn"
    qb.save_qfunction(qb.make_multigraph(qb.CurveSpec(2, 3), qb.default_grid(
        r_min=2.0 ** -6, n_theta=64)), path)
    edit_qfunction_header(path, lambda h: {**h, field: value})
    code, out = run([command, "--input", str(path)], tmp_path)
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"config-error: {path}: header field {field!r} must be ")
    assert not out.exists()


def test_value_error_from_numerics_is_internal(tmp_path, monkeypatch, capsys):
    """Only the exception class picks the exit code: a ValueError raised by
    the numerics is a defect, not a configuration error."""
    import qbranch.cli as cli

    def broken(profile):
        raise ValueError("numerics went wrong")

    monkeypatch.setattr(cli, "frequency_limit", broken)
    code, _ = run(["frequency", "--curve", "2,3"] + FAST, tmp_path)
    assert code == 4
    assert capsys.readouterr().err.startswith("internal-error")


#: values the fuzz offers every key: non-finite, overflowing, complex,
#: zero, negative, tiny, malformed, empty and huge
HOSTILE = ["nan", "inf", "-inf", "1e400", "10^400", "-8^0.5", "0", "-1",
           "2^-30", "abc", "", "1e308"]

#: values in range, per key the fuzz draws; the input is one of "curve"
#: and "homogeneous"
IN_RANGE = {
    "curve": ["2,3", "3,4"], "homogeneous": ["1.5", "0.8"],
    "perturb": ["0.5z^2"], "radii": ["2^-8..1"],
    "cutoff": ["sharp", "paper_phi"], "threads": ["2"], "seed": ["3"],
    "eps3": ["0.1"], "eps-bar": ["0.1"], "delta2": ["0.1"], "ce": ["4"],
    "tilt-jump": ["0.5"], "rho": ["2^-7", "0.3"], "scale-factor": ["0.6"],
    "max-steps": ["4"], "norm-mode": ["excess_sqrt"],
    "points-per-octave": ["2"],
}
_INPUTS = ("curve", "homogeneous")


def _option(keys, values):
    """(key, value, given in a config file rather than on the command
    line), the value drawn from values(key)."""
    return st.one_of(*[st.tuples(st.just(key), st.sampled_from(values(key)),
                                 st.booleans()) for key in keys])


@settings(max_examples=200)
@given(command=st.sampled_from(sorted(set(_HANDLERS) - {"selfcheck"})),
       source=_option(_INPUTS, IN_RANGE.get),
       good=st.lists(_option([k for k in IN_RANGE if k not in _INPUTS],
                             IN_RANGE.get),
                     max_size=4, unique_by=lambda o: o[0]),
       bad=st.lists(_option(sorted(IN_RANGE), lambda k: HOSTILE),
                    max_size=1))
def test_fuzzed_options_exit_classified(tmp_path_factory, command, source,
                                        good, bad):
    """One input and in-range options plus at most one hostile value: bad
    user input is refused with exit 2 or 3, never 4, with the prefix of
    its exit code, and a refused run writes no file."""
    options = {key: (value, in_file) for key, value, in_file in
               [source] + good}
    for key, value, in_file in bad:
        if key in _INPUTS:  # a hostile input replaces the drawn one
            options.pop(source[0])
        options[key] = (value, in_file)
    work = tmp_path_factory.mktemp("fuzz")
    args = [command, "--r-min=2^-10", "--n-theta=64", f"--out={work / 'out'}"]
    lines = []
    for key, (value, in_file) in options.items():
        if in_file:
            lines.append(f"{key} {value}\n")
        else:
            args.append(f"--{key}={value}")
    if lines:
        (work / "run.cfg").write_text("".join(lines))
        args.append(f"--config={work / 'run.cfg'}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith(_PREFIX[code]), err.getvalue()
    if code != 0:
        assert not (work / "out").exists() \
            or not any((work / "out").iterdir())


#: JSON values the header fuzz writes into a field: wrong types,
#: non-finite, out of range, huge, malformed and empty, and values of the
#: right type that disagree with the rest of the file or pass, the two
#: format names among them; ABSENT removes the field
ABSENT = "<absent>"
HEADER_VALUES = [ABSENT, None, True, -1, 0, 1, 2, 3, 64, 73, 64.5, 2 ** 40,
                 2.0 ** -9, 0.5, 1.0, 1e308, float("nan"), float("inf"),
                 "x", "2", [], [0], [1, 0], [0, 1, 2], [0.5, 0.25],
                 [0.0, 0.0], [0.25, 0.0], {}, {"label": "x"},
                 {"kind": "curve"},
                 {"kind": "curve", "q": 2, "p": 4, "h_coeffs": []},
                 {"kind": "curve", "q": 2, "p": 5, "h_coeffs": [[0, 0]]},
                 "qbranch-qfunction-1", "qbranch-qfunction-2"]
HEADER_KEYS = ["format", "q", "n_rings", "n_theta", "r_min", "r_max",
               "radii", "center", "monodromy", "metadata"]
RADII_DAMAGE = ["short", "moved", "not_geometric", "not_numbers"]


def _saved_names():
    """(text, name) of every file saved_files holds: each format's file
    intact and with each damage of the conftest helpers."""
    from conftest import SAMPLE_DAMAGE
    return [(text, name) for text in (True, False)
            for name in ("intact", *SAMPLE_DAMAGE[text], *RADII_DAMAGE)]


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """The bytes of a small saved (2,3) file by (text, name), as
    _saved_names lists them: a text file of the format before
    save_qfunction's if text, else a raw one."""
    from conftest import (save_curve, write_corrupt_qfunction,
                          write_qfunction_bad_radii)
    grid = qb.default_grid(r_min=2.0 ** -9, n_theta=64)
    work = tmp_path_factory.mktemp("saved")
    files = {}
    for text, name in _saved_names():
        path = work / f"{name}-{text}"
        if name == "intact":
            save_curve(path, grid, text)
        elif name in RADII_DAMAGE:
            write_qfunction_bad_radii(path, grid, name, text)
        else:
            write_corrupt_qfunction(path, grid, name, text)
        files[text, name] = path.read_bytes()
    return files


@settings(max_examples=60)
@given(command=st.sampled_from(["frequency", "degree", "excess-decay",
                                "bv-track"]),
       damage=st.sampled_from(_saved_names()) | st.tuples(
           st.booleans(),
           st.lists(st.tuples(st.sampled_from(HEADER_KEYS),
                              st.sampled_from(HEADER_VALUES)),
                    min_size=1, max_size=2, unique_by=lambda e: e[0])))
def test_fuzzed_file_header_exits_classified(saved_files, tmp_path_factory,
                                             command, damage):
    """A saved text or raw file, intact, with one or two header fields
    replaced or removed, or with damaged samples or radii, is read by
    every command that takes --input: it is answered or refused with exit
    2 or 3, never 4, with the prefix of its exit code, and a refused run
    writes no file."""
    from conftest import edit_qfunction_header
    work = tmp_path_factory.mktemp("header")
    path = work / "f.qfn"
    text, edits = damage
    if isinstance(edits, str):
        path.write_bytes(saved_files[text, edits])
    else:
        path.write_bytes(saved_files[text, "intact"])
        edit_qfunction_header(path, lambda h: {
            **{k: v for k, v in h.items() if k not in dict(edits)},
            **{k: v for k, v in edits if v is not ABSENT}})
    args = [command, f"--input={path}", f"--out={work / 'out'}"]
    if command == "bv-track":  # the default threshold finds no interval
        args.append("--eps3=0.2")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith(_PREFIX[code]), err.getvalue()
        assert not (work / "out").exists() \
            or not any((work / "out").iterdir())


def test_commands_load_neither_numpy_ma_nor_numpy_polynomial(tmp_path,
                                                            monkeypatch):
    # np.median's NaN check imports numpy.ma and leggauss lives in
    # numpy.polynomial; a degree, and a frequency limit whose radii span
    # enough octaves to take octave medians, need neither
    fast = ["--r-min", "2^-10", "--n-theta", "128"]
    degree = ["degree", "--curve", "2,3", *fast]
    limit = ["frequency", "--curve", "2,3", "--radii", "2^-8..1", *fast]
    src = pathlib.Path(qb.__file__).resolve().parents[1]
    code = ("import sys, qbranch; from qbranch import cli; "
            f"codes = [cli.main({degree!r} + ['--out', {str(tmp_path)!r}]), "
            f"cli.main({limit!r} + ['--out', {str(tmp_path)!r}])]; "
            "print(codes, [m for m in ('numpy.ma', 'numpy.polynomial') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[0, 0] []"
    medians = []
    monkeypatch.setattr(qb.frequency, "_median",
                        lambda x, median=qb.frequency._median:
                        medians.append(x.size) or median(x))
    assert run(limit, tmp_path)[0] == 0 and len(medians) == 3
