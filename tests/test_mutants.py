"""The mutations of ``scripts/mutants.py`` still apply to this tree."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("mutants", Path(__file__).resolve().parent.parent / "scripts" / "mutants.py")


def test_each_old_text_occurs_once_in_its_file():
    mutants = importlib.util.module_from_spec(SPEC)
    SPEC.loader.exec_module(mutants)
    assert mutants.MUTANTS and mutants.stale() == []
