"""The mutants of ``tests/mutants.py`` still apply to ``src/``: each one's old
text occurs exactly once in its file, and each test it names exists."""

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_changes_one_place(mutant):
    assert (SRC / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        path, _, function = test.partition("::")
        assert f"\ndef {function}(" in (ROOT / path).read_text(encoding="utf-8"), test
