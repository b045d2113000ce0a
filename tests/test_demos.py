"""The excess and scale-tracking demos run to the end.  Between them they
call every public excess and scaletrack entry point on the default grid."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,expected", [
    ("04_excess_decay.py", "decay fits over optimal planes"),
    ("05_scale_tracking_and_bv.py", "negative variation of log(I+1)"),
])
def test_demo_runs(name, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in out.getvalue()
    assert "nan" not in out.getvalue()
