"""Self-tests of tools/mutants.py.

Run with `python -m pytest tools/tests` from the repository root.  They are
not part of the tier-1 suite, as bench/tests is not.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import mutants  # noqa: E402


def _no_test_run(*args, **kwargs):
    raise AssertionError("no test may run before every old text is found")


def test_missing_old_text_is_an_error_not_a_skip(monkeypatch, capsys):
    stale = mutants.Mutant("stale", "kt.py", "text that kt.py does not hold", "x",
                           ("tests/test_kt.py",))
    monkeypatch.setattr(mutants, "MUTANTS", mutants.MUTANTS + (stale,))
    monkeypatch.setattr(mutants, "failing", _no_test_run)
    assert mutants.main(["error-row-off-by-one", "stale"]) == 2
    assert capsys.readouterr().err == ("error: mutant stale: its old text occurs 0 times in "
                                       "src/ktmix/kt.py, not once; move the mutant with the code\n")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_every_recorded_mutant_applies_and_names_its_tests(mutant):
    text = (mutants.ROOT / "src" / "ktmix" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.tests


def test_a_mutant_is_killed_by_its_tests(capsys):
    assert mutants.main(["error-row-off-by-one"]) == 0
    assert capsys.readouterr().out == "killed  error-row-off-by-one\n"
