"""Every demo runs to the end.  Between them they call every public excess
and scaletrack entry point on the default grid; demo 03 also runs
singularity_degree, homogeneity_check and hardt_simon_check."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name,expected", [
    ("01_sheets_and_matching.py",
     "monodromy of w^2 = z^3 around 0: [1 0] (the sheets swap)"),
    ("02_frequency_of_branched_graphs.py",
     "homogeneous maps read their degree off the frequency"),
    ("03_singularity_degree.py", "discrepancy flagged = True"),
    ("04_excess_decay.py", "decay fits over optimal planes"),
    ("05_scale_tracking_and_bv.py", "negative variation of log(I+1)"),
])
def test_demo_runs(name, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in out.getvalue()
    assert "nan" not in out.getvalue()
