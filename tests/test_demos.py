"""Every demo runs to the end, and its stdout is the bytes tests/golden.json
records.  Between them they call every public excess and scaletrack entry
point on the default grid; demo 03 also runs singularity_degree,
homogeneity_check and hardt_simon_check."""

import pytest

from test_golden import demo_key, demo_stdout, recorded, report, sha256


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
    out = demo_stdout(name)
    assert expected in out
    assert "nan" not in out
    # the key is checked alone: the other keys are test_golden.py's
    got = {demo_key(name): sha256(out)}
    problems = report(got, set(got) | recorded()["sha256"].keys())
    assert not problems, "\n" + problems
