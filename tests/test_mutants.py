"""The planted-defect list of ``tests/mutants.py`` still matches the source."""

import subprocess
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS, ROOT, source


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    # a refactor that moves or rewrites the text must update the mutant with it
    assert source(mutant).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_mutant_names_existing_tests():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        for test_id in mutant.tests:
            assert (ROOT / test_id.split("::")[0]).is_file(), (mutant.name, test_id)


def test_mutant_tests_run_outside_the_working_tree(monkeypatch):
    # a mutant that broke where a test writes its report once wrote it into the repository
    seen = {}

    def fake_run(args, **kwargs):
        seen.update(kwargs, args=args)
        return subprocess.CompletedProcess(args, 1)

    monkeypatch.setattr(mutants.subprocess, "run", fake_run)
    assert mutants.run(MUTANTS[0])[0] == "killed"
    assert not Path(seen["cwd"]).resolve().is_relative_to(ROOT)
    assert "-p no:cacheprovider" in " ".join(seen["args"])
    ids = seen["args"][-len(MUTANTS[0].tests):]
    assert ids == [str(ROOT / test_id) for test_id in MUTANTS[0].tests]
    assert all(Path(i.split("::")[0]).is_relative_to(ROOT / "tests") for i in ids)
