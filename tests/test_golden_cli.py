"""Golden-bytes contract of the command line.

Each call in CALLS must write exactly the stdout bytes stored in
tests/golden/<name>.out.  The goldens hold floats at full precision, so they
are compared only under the numpy/scipy versions they were recorded with
(tests/golden/versions.json); under other versions the test is skipped.

A change that is meant to move a digit re-records the goldens it moves, by
name, and says why in CHANGES.md (with no names, every golden is re-recorded):

    PYTHONPATH=src python3 tests/test_golden_cli.py tests/golden NAME...
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from pottsglass.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CALLS = {
    "eval-parisi": ["eval-parisi", "--kappa", "3", "--x0", "0.4"],
    "eval-parisi-config": ["eval-parisi", "--config", str(GOLDEN / "eval-parisi.config.json")],
    "optimize": ["optimize", "--grid-mesh", "2", "--starts", "2", "--maxiter", "40"],
    "free-energy-enumerate": ["free-energy", "--N", "6", "--kappa", "3", "--beta", "0.5",
                              "--samples", "4", "--seed", "2"],
    "free-energy-enumerate-csv": ["free-energy", "--N", "4", "--kappa", "2", "--beta", "0.5",
                                  "--samples", "4", "--d", "0.5,0.5", "--format", "csv"],
    "free-energy-mcmc": ["free-energy", "--method", "mcmc", "--N", "6", "--kappa", "2",
                         "--beta", "0.5", "--samples", "2"],
    "bound-check": ["bound-check", "--N", "4", "--kappa", "2", "--beta", "0.5", "--samples", "4",
                    "--M", "4", "--reps", "4", "--atoms", "20"],
    "cascade-verify": ["cascade-verify", "--reps", "4", "--atoms", "20", "--mass-samples", "10"],
    "diag-gg": ["diag-gg", "--arrays", "10", "--atoms", "20"],
    "diag-sync": ["diag-sync", "--arrays", "10", "--atoms", "20"],
    "diag-interp": ["diag-interp", "--reps", "4", "--atoms", "20"],
    "diag-legendre": ["diag-legendre", "--reps", "4", "--atoms", "20"],
    "ass-check": ["ass-check", "--draws", "1000"],
}


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run(argv):
    """stdout bytes and exit code of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue().encode(), code


def first_difference(out, expected):
    """The first line where two reports differ, numbered from 1."""
    got, want = out.decode().splitlines(), expected.decode().splitlines()
    for number, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return f"line {number}: got {a!r}, golden {b!r}"
    if len(got) != len(want):
        return f"got {len(got)} lines, golden {len(want)}"
    return "the lines match but the line endings differ"


def record(directory, names=()):
    """Write the golden of each named call, or of every call and the versions
    if none is named.  Named calls join goldens recorded under the same
    numpy/scipy versions only."""
    directory = Path(directory)
    unknown = set(names) - set(CALLS)
    if unknown:
        raise SystemExit(f"no golden call named {', '.join(sorted(unknown))}")
    stamp = directory / "versions.json"
    if names and json.loads(stamp.read_text()) != versions():
        raise SystemExit(f"{stamp} names other versions than {versions()}: re-record all")
    for name in names or CALLS:
        out, code = run(CALLS[name])
        if code != 0:
            raise SystemExit(f"{name} exited with {code}")
        (directory / f"{name}.out").write_bytes(out)
    if not names:
        stamp.write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_bytes_match_golden(name):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"goldens recorded with {recorded}, running {versions()}")
    out, code = run(CALLS[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert out == expected, first_difference(out, expected)


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == "line 2: got 'b', golden 'x'"
    assert first_difference(b"a\n", b"a\nb\n") == "got 1 lines, golden 2"
    assert first_difference(b"a\r\n", b"a\n") == "the lines match but the line endings differ"


def test_record_writes_only_the_named_goldens(tmp_path):
    stamp = tmp_path / "versions.json"
    stamp.write_text(json.dumps(versions()))
    record(tmp_path, ["eval-parisi"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval-parisi.out", "versions.json"]
    assert (tmp_path / "eval-parisi.out").read_bytes() == run(CALLS["eval-parisi"])[0]
    with pytest.raises(SystemExit, match="no golden call named nope"):
        record(tmp_path, ["eval-parisi", "nope"])
    stamp.write_text(json.dumps({"numpy": "0", "scipy": "0"}))
    with pytest.raises(SystemExit, match="re-record all"):
        record(tmp_path, ["eval-parisi"])


if __name__ == "__main__":
    record(sys.argv[1], sys.argv[2:])
