"""Traced stand-in for `python -m qbranch.cli`.

Usage: python bench/cli_trace.py SPANS_JSON <subcommand> [options...]

Times `import qbranch.cli`, installs the benchmark's span recorder, calls
`qbranch.cli.main(argv)` and writes the spans, the counts and the import
time to SPANS_JSON for bench/run.py.  Exits with main's code.
"""

import time

_t0 = time.perf_counter()
import qbranch.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    rec = spans.Recorder()
    rec.install()
    rec.job = 0
    try:
        code = qbranch.cli.main(cli_argv)
    finally:
        rec.uninstall()
    payload = rec.dump()
    payload["counts"]["cli.import_s"] = IMPORT_S
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
