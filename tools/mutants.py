"""Apply each mutant of a standing list and check that its tests catch it.

    python tools/mutants.py

Each mutant is one exact text edit to a file under ``src/gw24`` and the
test ids that must fail with it applied.  For each mutant the script copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary folder (pyproject's
``pythonpath = ["src"]`` would otherwise import this checkout's ``src``),
applies the edit there, and runs only that mutant's tests.  A test id is
caught when it, or one of its parametrized cases, fails or errors.  Every
mutant with a test id that is not caught is a survivor, and so is a mutant
whose old text does not occur exactly once in its file; the script reports
each survivor and exits 1 if there is any.  Standard library only.

A change that adds a guarantee adds its mutant here.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/gw24
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "Pieri strip test admits no box above lam2",
        "schubert.py",
        "_pad(mu)[1] >= l2]",
        "_pad(mu)[1] > l2]",
        ("tests/test_schubert.py::test_triple_oracle_matches_tensor_on_all_216",
         "tests/test_schubert.py::test_classical_pieri_examples"),
    ),
    Mutant(
        "quantum Pieri q-term without a full first row",
        "schubert.py",
        "if l1 < 2 or not l2:",
        "if l1 < 1 or not l2:",
        ("tests/test_schubert.py::test_quantum_pieri_table",
         "tests/test_schubert.py::test_quantum_pieri_grading"),
    ),
    Mutant(
        "quantum Pieri q-term keeps lam2",
        "schubert.py",
        "(l2 - 1,) if l2 > 1 else ()",
        "(l2,) if l2 > 1 else ()",
        ("tests/test_schubert.py::test_quantum_pieri_table",
         "tests/test_schubert.py::test_seed_invariants"),
    ),
    Mutant(
        "series reads the gamma binomial at delta1",
        "wdvv.py",
        "acc[g * k + e] += (rows[g][g1] * rows[e][e1]",
        "acc[g * k + e] += (rows[g][e1] * rows[e][e1]",
        ("tests/test_equations.py::test_series_matches_naive_convolution",),
    ),
    Mutant(
        "at without its d1 cap",
        "wdvv.py",
        "                    if d1_hi >= degree:\n"
        "                        d1_hi = degree - 1\n",
        "",
        ("tests/test_equations.py::"
         "test_at_sums_a_relations_products_in_one_walk",),
    ),
    Mutant(
        "settle accepts a relation with no open key",
        "engine.py",
        "            if const != 0:\n"
        "                raise InconsistencyError(degree, *src)\n",
        "            pass\n",
        ("tests/test_engine.py::test_relation_with_no_open_key_must_vanish",),
    ),
    Mutant(
        "point check reuses one prime, 2**61 - 1",
        "verify.py",
        "    p = 0\n    while not _is_prime(p):",
        "    p = (1 << 61) - 1\n    while not _is_prime(p):",
        ("tests/test_engine.py::test_point_check_draws_a_prime_on_every_run",),
    ),
    Mutant(
        "load's reject scan pads a short block with a constant",
        "cache.py",
        'block + [lines[end] if end else ""]',
        "block + [None]",
        ("tests/test_cache.py::"
         "test_every_edit_is_rejected_or_is_the_writers_text",),
    ),
)

# pytest's short summary line of a failed or erroring test
SUMMARY = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def caught(failed: set[str], test: str) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def run_mutant(mutant: Mutant, work: Path) -> list[str]:
    """The mutant's test ids that do not fail with it applied."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for folder in ("src", "tests"):
        shutil.copytree(ROOT / folder, work / folder, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", work)
    target = work / "src" / "gw24" / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return [f"(old text occurs {text.count(mutant.old)} times "
                f"in {mutant.path})"]
    target.write_text(text.replace(mutant.old, mutant.new))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *mutant.tests],
        cwd=work, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    failed = set(SUMMARY.findall(proc.stdout))
    return [t for t in mutant.tests if not caught(failed, t)]


def main() -> int:
    survivors = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="gw24-mutant-") as work:
            missed = run_mutant(mutant, Path(work))
        if missed:
            survivors += 1
            print(f"SURVIVED  {mutant.name} ({mutant.path}): not caught by "
                  + ", ".join(missed))
        else:
            print(f"caught    {mutant.name} ({mutant.path})")
    print(f"{len(MUTANTS)} mutants, {survivors} survived, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
