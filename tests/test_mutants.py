"""Every mutant of ``tests/mutants.py`` still applies, and every test it names still exists.

The mutation check runs for minutes and reports a mutant whose snippet
moved only as ``ERROR``.  This guard loads the script by path and checks,
without running a mutant, what that check would need: unique names, each
``old`` snippet once in its file, and each named test file in place.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "replicaplan" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    args = list(mutant.tests)
    paths = [a for i, a in enumerate(args)
             if not a.startswith("-") and (i == 0 or args[i - 1] != "-k")]
    assert paths
    for path in paths:
        file, *names = path.split("::")
        assert (ROOT / file).is_file(), file
        text = (ROOT / file).read_text()
        for name in names:
            # The whole name: ``TestGen`` must not pass on ``class TestGenerator``.
            assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M), path
