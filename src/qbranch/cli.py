"""Command-line front end.

Subcommands: frequency, degree, excess-decay, bv-track, hardt-simon,
intervals, selfcheck.  Every subcommand takes the same options, so one
parser reads them all: the subcommand is its positional argument, and the
options may stand before or after it.  Exit codes: 0 ok, 2 configuration
error, 3 numeric degeneracy, 4 internal error.  Every run checks its whole
configuration before any computation: each option is checked once, by the
library type that owns it (Cutoff, BlowupConfig, ScaleTrackConfig), or
here when no type owns it, and all three types are built for every
subcommand.  A subcommand computes everything in memory and returns its
files, {name: text}; only then are they written, each through a temporary
name and an atomic rename, so a failing run leaves no partial files.
Computation is single-threaded, so identical configuration and seed
produce byte-identical outputs; --threads is still accepted and validated
for compatibility, and has no effect.

Options may come from a flat key-value config file (one `key value` pair
per line, '#' comments) with command-line `--key value` overrides.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import ConfigError, NumericError, QBranchError
from .grids import default_grid
from .qvalue import QPoint, brute_force_metric, metric_g
from .curves import (CurveSpec, _json, homogeneous_map, load_qfunction,
                     make_multigraph)
from .frequency import (Cutoff, _radii_in, frequency_limit,
                        frequency_profile, default_profile_radii)
from .blowup import (BlowupConfig, _branched_part, hardt_simon_check,
                     singularity_degree)
from .excess import excess_decay_fit, excess_table_csv
from .scaletrack import (ScaleTrackConfig, bv_budget, intervals_of_flattening,
                         universal_frequency)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

#: every recognized config key with (type, validator, help); a key that a
#: config type reads is checked by that type, see _FIELDS
_KEYS = {
    "curve": (str, None, "curve spec 'Q,p'"),
    "perturb": (str, None, "perturbation, e.g. 'z^2' or '0.5z^3'"),
    "homogeneous": (float, None, "homogeneity degree"),
    "input": (str, None, "QFunction file"),
    "radii": (str, None, "radius window 'A..B' (supports 2^-k)"),
    "cutoff": (str, None, "cutoff kind"),
    "out": (str, None, "output directory"),
    "threads": (int, lambda v: v >= 1,
                "accepted for compatibility; has no effect"),
    "seed": (int, lambda v: v >= 0, "seed for randomized suites"),
    "eps3": (float, None, "excess threshold eps3^2"),
    "eps-bar": (float, None, "floor amplitude"),
    "delta2": (float, None, "floor exponent parameter"),
    "ce": (float, None, "concentration budget constant"),
    "tilt-jump": (float, None, "plane drift allowance"),
    "rho": (float, lambda v: v > 0, "inner radius for hardt-simon"),
    "scale-factor": (float, None, "blow-up step ratio"),
    "max-steps": (int, None, "blow-up step count"),
    "norm-mode": (str, None, "blow-up normalization"),
    "n-theta": (int, lambda v: v >= 64, "angular samples"),
    "r-min": (float, lambda v: 0 < v < 1, "grid floor radius"),
    "points-per-octave": (int, lambda v: 1 <= v <= 8, "profile density"),
    "config": (str, None, "config file path"),
}

#: the config types a run builds, each with the keys it reads: key -> field
_FIELDS = {
    Cutoff: {"cutoff": "kind"},
    BlowupConfig: {"scale-factor": "scale_factor", "max-steps": "max_steps",
                   "norm-mode": "normalization"},
    ScaleTrackConfig: {"eps3": "eps3_sq", "eps-bar": "eps_bar",
                       "delta2": "delta2", "ce": "c_e",
                       "tilt-jump": "tilt_jump"},
}


def _parse_number(text: str) -> float:
    text = text.strip()
    try:
        if "^" in text:
            base, expo = text.split("^", 1)
            return float(float(base) ** float(expo))
        return float(text)
    except (TypeError, ValueError, OverflowError):
        # a negative base to a fractional power is complex: float() refuses
        raise ConfigError(f"cannot parse number {text!r}") from None


def _parse_radii(spec: str, grid) -> list:
    if ".." not in spec:
        raise ConfigError(f"radii must look like 'A..B', got {spec!r}")
    lo_s, hi_s = spec.split("..", 1)
    lo, hi = _parse_number(lo_s), _parse_number(hi_s)
    if not (0 < lo < hi):
        raise ConfigError("radii window must satisfy 0 < A < B")
    radii = _radii_in(grid, lo, hi)
    if not radii:
        raise ConfigError("radius window contains no grid radii")
    return radii


#: where a sum of terms is cut: at a '+', which is dropped, or before a
#: '-', unless the sign is a number's exponent's ('1e-3') or inside
#: parentheses ('(0.3+0.2j)')
_TERM_CUT = re.compile(r"(?<![\d.][eE])(?:\+|(?=-))(?![^(]*\))")


def _parse_perturbation(text: str):
    """Accept 'z^k', 'c z^k' products joined by '+' or '-', or a
    coefficient list 'c0,c1,c2,...'.  A coefficient is a Python complex
    literal, parenthesized ('(0.3+0.2j)z^3') or not ('1e-3z^2')."""
    text = text.strip()
    if not text:
        return ()
    if "z" not in text:
        try:
            return tuple(complex(tok) for tok in text.split(","))
        except ValueError:
            raise ConfigError(
                f"cannot parse perturbation {text!r}") from None
    coeffs: dict[int, complex] = {}
    for term in _TERM_CUT.split(text):
        term = term.strip()
        if not term:
            continue
        head, z, tail = term.partition("z")
        if not z or (tail and not tail.startswith("^")):
            raise ConfigError(f"cannot parse perturbation term {term!r}")
        head = head.strip().rstrip("*").strip()
        if head in ("", "-"):
            head += "1"
        try:
            power = int(tail[1:]) if tail else 1
            coef = -complex(head[1:]) if head.startswith("-(") \
                else complex(head)
        except ValueError:
            raise ConfigError(
                f"cannot parse perturbation term {term!r}") from None
        coeffs[power] = coeffs.get(power, 0j) + coef
    top = max(coeffs)
    return tuple(coeffs.get(k, 0j) for k in range(top + 1))


def _load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key value'")
                out[parts[0]] = parts[1].strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return out


def _coerce(options: dict) -> dict:
    out = {}
    for key, val in options.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        typ, check, _ = _KEYS[key]
        try:
            coerced = _parse_number(str(val)) if typ is float else typ(val)
        except (ConfigError, TypeError, ValueError):
            raise ConfigError(f"bad value for {key!r}: {val!r}") from None
        if check is not None and not check(coerced):
            raise ConfigError(f"value for {key!r} out of range: {val!r}")
        out[key] = coerced
    return out


class Run:
    """Validated options and the config types built from them."""

    def __init__(self, options: dict):
        self.opt = _coerce(options)
        self.cutoff, self.blowup, self.track = (
            cls(**{name: self.opt[key] for key, name in fields.items()
                   if key in self.opt})
            for cls, fields in _FIELDS.items())

    def grid(self):
        r_min = self.opt.get("r-min", 2.0 ** -16)
        n_theta = self.opt.get("n-theta", 512)
        n_oct = -np.log2(r_min)
        if abs(n_oct - round(n_oct)) > 1e-9:
            raise ConfigError("r-min must be a power of 1/2")
        return default_grid(r_min=r_min, n_theta=n_theta)

    def build_input(self):
        """Materialize the test object named by the options."""
        named = [k for k in ("curve", "homogeneous", "input") if k in self.opt]
        if len(named) != 1:
            raise ConfigError(
                "exactly one of curve, homogeneous, input is required")
        if "input" in self.opt:
            return load_qfunction(self.opt["input"])
        grid = self.grid()
        if "curve" in self.opt:
            try:
                q_s, p_s = self.opt["curve"].split(",")
                q, p = int(q_s), int(p_s)
            except ValueError:
                raise ConfigError("curve must look like 'Q,p'")
            coeffs = _parse_perturbation(self.opt.get("perturb", ""))
            return make_multigraph(CurveSpec(q=q, p=p, h_coeffs=coeffs), grid)
        alpha = self.opt["homogeneous"]
        return homogeneous_map(alpha, grid=grid)

    def flush(self, files: dict):
        """Write files, {name: text}, into the output directory, each
        through a temporary name and an atomic rename."""
        out_dir = self.opt.get("out", ".")
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir}: {exc}") from None
        for name, content in sorted(files.items()):
            final = os.path.join(out_dir, name)
            try:
                fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
            except OSError as exc:
                raise ConfigError(
                    f"cannot write to output directory {out_dir}: {exc}") \
                    from None
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(content)
                os.replace(tmp, final)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise


# ----------------------------------------------------------------------------
# subcommands


def cmd_frequency(run: Run) -> dict:
    f = run.build_input()
    if "radii" in run.opt:
        radii = _parse_radii(run.opt["radii"], f.grid)
    else:
        radii = default_profile_radii(f.grid)
    prof = frequency_profile(f, radii=radii, cutoff=run.cutoff)
    return {"frequency_profile.csv": prof.to_csv(),
            "frequency_limit.json": _json(frequency_limit(prof)) + "\n"}


def cmd_degree(run: Run) -> dict:
    est = singularity_degree(run.build_input(), run.blowup)
    return {"degree.json": est.to_json() + "\n"}


def cmd_excess_decay(run: Run) -> dict:
    f = run.build_input()
    if "radii" in run.opt:
        radii = _parse_radii(run.opt["radii"], f.grid)
    else:
        radii = [2.0 ** -k for k in range(9, 2, -1)]
    fit = excess_decay_fit(f, radii)
    return {"excess_decay.csv": excess_table_csv(fit["records"]),
            "excess_decay.json": _json(
                {k: fit[k] for k in ("exponent", "constant", "r2", "dropped")
                 if k in fit}) + "\n"}


def cmd_bv_track(run: Run) -> dict:
    f = run.build_input()
    intervals = intervals_of_flattening(f, cfg=run.track)
    prof = universal_frequency(
        f, intervals, points_per_octave=run.opt.get("points-per-octave", 1),
        cutoff=run.cutoff)
    return {"universal_profile.csv": prof.records_csv(),
            "jumps.csv": prof.jumps_csv(),
            "bv.json": _json(bv_budget(prof)) + "\n"}


def cmd_hardt_simon(run: Run) -> dict:
    f = _branched_part(run.build_input())
    res = hardt_simon_check(f, run.opt.get("rho", 64 * f.grid.r_min))
    return {"hardt_simon.json": res.to_json() + "\n"}


def cmd_intervals(run: Run) -> dict:
    intervals = intervals_of_flattening(run.build_input(), cfg=run.track)
    return {"intervals.csv": intervals.to_csv(),
            "intervals.json": _json({
                "empty": intervals.empty,
                "gaps": intervals.gaps,
                "min_ratio": None if intervals.empty
                else intervals.min_ratio(),
                "reaches_floor": any(r.reaches_floor
                                     for r in intervals.intervals),
            }) + "\n"}


def cmd_selfcheck(run: Run) -> dict:
    """Run the built-in oracle suites on a reduced grid and return a
    canonical report, ending in ALL PASS or ALL FAIL; byte-identical for
    any --threads value."""
    seed = run.opt.get("seed", 0)
    lines = [f"qbranch selfcheck v{__version__} seed={seed}"]
    ok = True

    def check(name, value, passed):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{name} {value:.17g} {'PASS' if passed else 'FAIL'}")

    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in (1, 2, 3, 4):
        for _ in range(200):
            a = QPoint(rng.normal(size=(q, 2)))
            b = QPoint(rng.normal(size=(q, 2)))
            worst = max(worst, abs(metric_g(a, b) - brute_force_metric(a, b)))
    check("matching_oracle_gap", worst, worst == 0.0)

    grid = default_grid(r_min=2.0 ** -10, n_theta=256)
    f = make_multigraph(CurveSpec(2, 3), grid)
    prof = frequency_profile(f, radii=default_profile_radii(grid))
    err = max(abs(rec.I - 1.5) for rec in prof.valid_records())
    check("curve23_frequency_error", err, err < 1e-3)

    est = singularity_degree(f, BlowupConfig(max_steps=6))
    check("curve23_degree_error", abs(est.value - 1.5),
          abs(est.value - 1.5) < 0.03)

    fit = excess_decay_fit(f, [2.0 ** -k for k in range(7, 2, -1)])
    check("curve23_excess_exponent_error", abs(fit["exponent"] - 1.0),
          abs(fit["exponent"] - 1.0) < 0.1)

    intervals = intervals_of_flattening(f, cfg=ScaleTrackConfig(
        eps3_sq=0.1, r_floor=2.0 ** -8))
    uprof = universal_frequency(f, intervals)
    bv = bv_budget(uprof)
    check("curve23_bv_total", bv["total"], bv["total"] < 0.01)

    lines.append("ALL " + ("PASS" if ok else "FAIL"))
    return {"selfcheck_report.txt": "\n".join(lines) + "\n",
            "selfcheck_profile.csv": prof.to_csv(),
            "selfcheck_degree.json": est.to_json() + "\n"}


_HANDLERS = {
    "frequency": cmd_frequency,
    "degree": cmd_degree,
    "excess-decay": cmd_excess_decay,
    "bv-track": cmd_bv_track,
    "hardt-simon": cmd_hardt_simon,
    "intervals": cmd_intervals,
    "selfcheck": cmd_selfcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser: every subcommand takes every option, so the command is
    a positional choice and the options may stand before or after it."""
    parser = argparse.ArgumentParser(
        prog="qbranch",
        description="Q-valued multigraph laboratory")
    parser.add_argument("command", choices=_HANDLERS)
    for key, (_, _, help_text) in _KEYS.items():
        parser.add_argument(f"--{key}", help=help_text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    options = {}
    cli_options = {k.replace("_", "-"): v for k, v in vars(ns).items()
                   if k != "command" and v is not None}
    try:
        if "config" in cli_options:
            options.update(_load_config_file(cli_options["config"]))
        options.update(cli_options)
        options.pop("config", None)
        run = Run(options)
        files = _HANDLERS[ns.command](run)
        run.flush(files)
    except ConfigError as exc:
        sys.stderr.write(f"config-error: {exc}\n")
        return EXIT_CONFIG
    except NumericError as exc:
        sys.stderr.write(f"numeric-error: {exc.__class__.__name__}: {exc}\n")
        return EXIT_NUMERIC
    except QBranchError as exc:
        sys.stderr.write(f"internal-error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover
        sys.stderr.write(f"internal-error: {exc!r}\n")
        return EXIT_INTERNAL
    report = files.get("selfcheck_report.txt")
    if report is None:
        return EXIT_OK
    sys.stdout.write(report)
    return EXIT_OK if report.endswith("ALL PASS\n") else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
