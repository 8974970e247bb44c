"""The golden CLI reports at two threads: each call of test_golden_cli.CALLS
run with --threads 2 must write exactly the bytes of its golden, which was
recorded at one thread.  Replicate groups and stacks change with the thread
count; the reports must not."""

import json

import pytest

from test_golden_cli import CALLS, GOLDEN, first_difference, run, versions


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_at_two_threads_matches_golden(name):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"goldens recorded with {recorded}, running {versions()}")
    out, code = run(CALLS[name] + ["--threads", "2"])
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert out == expected, first_difference(out, expected)
