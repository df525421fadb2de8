import tokenize
from pathlib import Path

import gw24

# Compiling a module of 4,096 or more tokens peaks higher: wdvv.py, grown
# past the step, compiled at a 1.64 MiB peak against 1.41 MiB below it
# (Python 3.11.7), about 0.2 MiB more RSS in every process that imports
# the package, the benchmark's set-ups included.  On Python 3.12 and 3.13
# tokenize splits each f-string into parts, so a module counts more tokens
# there, and the step sits at the same count: engine.py padded to 4,096
# tokens compiled at a 1.38 MiB peak, and at 4,112 tokens at 1.63 MiB
# (3.12.1 and 3.13).  Each module must stay below it on every Python.
TOKEN_STEP = 4096
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def token_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(tok.type not in SKIPPED
                   for tok in tokenize.tokenize(fh.readline))


def test_every_module_stays_below_the_token_step():
    sizes = {path.name: token_count(path)
             for path in sorted(Path(gw24.__file__).parent.glob("*.py"))}
    assert "wdvv.py" in sizes
    assert {name: n for name, n in sizes.items() if n >= TOKEN_STEP} == {}
