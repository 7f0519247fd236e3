"""The comparisons of ``tests/cli_bytes.py`` on synthetic outputs: which streams
differ, and the gap-level check of a differing stdout."""

import json
import math

from cli_bytes import NUMBER_TOL, differing, number_difference

REPORT = {"gaps": {"ssa": -0.3170571401390738}, "verdicts": {"ssa": "holds"}, "seed": 7}
CSV = (
    "trial,seed,I,J,ssa_gap,ssa_verdict\r\n"
    "0,7,2,\"1,3\",-0.3170571401390738,holds\r\n"
)


def test_numbers_1e13_apart_agree():
    moved = dict(REPORT, gaps={"ssa": REPORT["gaps"]["ssa"] + 1e-13})
    old, new = json.dumps(REPORT).encode(), json.dumps(moved).encode()
    assert old != new
    assert 0 < number_difference(old, 0, new, 0) <= NUMBER_TOL
    csv_new = CSV.replace("-0.3170571401390738", "-0.3170571401391738")
    assert 0 < number_difference(CSV.encode(), 0, csv_new.encode(), 0) <= NUMBER_TOL


def test_a_changed_verdict_does_not_agree():
    flipped = dict(REPORT, verdicts={"ssa": "violated"})
    old, new = json.dumps(REPORT).encode(), json.dumps(flipped).encode()
    assert number_difference(old, 0, new, 0) == math.inf
    csv_new = CSV.replace("holds", "indeterminate")
    assert number_difference(CSV.encode(), 0, csv_new.encode(), 0) == math.inf
    assert number_difference(CSV.encode(), 0, CSV.encode(), 1) == math.inf  # the exit code


def test_stderr_and_exit_code_differ_like_stdout():
    usage = (b"", b"usage: carentropy verify\nerror: --trials must be at least 1\n", 2)
    assert differing(usage, usage) == []
    assert differing(usage, (b"", b"error: bad region spec\n", 2)) == ["stderr"]
    assert differing(usage, (b"{}\n", b"", 0)) == ["stdout", "stderr", "exit code"]
