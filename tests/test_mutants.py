"""The mutation checks of `scripts/mutants.py` still have their sites.

Running the mutants takes minutes, so the suite does not; it checks that
each mutant's old text occurs exactly once in its file, so a change that
moves or removes a mutated line updates the list with it.
"""

import importlib.util

import pytest

from helpers import ROOT

_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_site_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
