import tokenize
from pathlib import Path

import gw24

# Compiling a module of 4,096 or more tokens peaks higher: wdvv.py, grown
# past the step, compiled at a 1.64 MiB peak against 1.41 MiB below it
# (Python 3.11.7), about 0.2 MiB more RSS in every process that imports
# the package, the benchmark's set-ups included.
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
