"""The comparisons of ``tests/cli_bytes.py`` on synthetic outputs: which streams
differ, and the gap-level check of a differing stdout; and how a root given as a
git revision is resolved."""

import json
import math
import subprocess
from pathlib import Path

import pytest

from cli_bytes import NUMBER_TOL, differing, number_difference, source_root

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


def test_a_directory_root_is_used_as_it_is(tmp_path):
    with source_root(str(tmp_path)) as root:
        assert root == str(tmp_path)
    assert tmp_path.is_dir()


def test_a_revision_root_is_archived_and_removed(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
             "-C", str(tmp_path), *args],
            capture_output=True, check=True,
        )

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "cli.py").write_text("old\n")
    git("add", "-A")
    git("commit", "-q", "-m", "old")
    (tmp_path / "src" / "cli.py").write_text("new\n")  # the working tree is not the revision
    with source_root("HEAD", repo=tmp_path) as root:
        assert root != str(tmp_path)
        assert Path(root, "src", "cli.py").read_text() == "old\n"
    assert not Path(root).exists()


def test_neither_directory_nor_revision_refused(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], capture_output=True, check=True)
    with pytest.raises(subprocess.CalledProcessError):
        with source_root("no-such-revision", repo=tmp_path):
            pass
