"""The planted-defect list of ``tests/mutants.py`` still matches the source."""

import pytest

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
