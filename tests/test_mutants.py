"""The mutation gate's list stays in step with the source it mutates."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_string_occurs_once():
    # a string edited away, or copied elsewhere, would mutate nothing or the
    # wrong place; each survivor is a listed mutant with its reason
    mutants = _mutants()
    assert {name: n for name, n in mutants.target_counts().items() if n != 1} == {}
    names = {m.name for m in mutants.MUTANTS}
    assert len(names) == len(mutants.MUTANTS)
    assert set(mutants.EXPECTED_SURVIVORS) <= names
    assert all(mutants.EXPECTED_SURVIVORS.values())
    assert {m.function for m in mutants.MUTANTS} >= set(mutants.FUNCTIONS)
