"""The standing mutant list cannot rot unseen: each mutant's old text
occurs exactly once in its file, and its edit changes that text.  The
full run, ``python tools/mutants.py``, stays outside this suite."""

import importlib.util
from pathlib import Path

import gw24

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_edits_one_place_of_its_file():
    package = Path(gw24.__file__).parent
    mutants = load_mutants()
    assert mutants
    for mutant in mutants:
        text = (package / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert mutant.tests, mutant.name
