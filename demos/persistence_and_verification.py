"""Caching solved tables, and what the loader refuses to accept.

Counts grow past 10^27 by degree 9, so the cache stores every value as a
decimal string in plain text.  The header binds the file to the seed set
and to a digest of its own rows; loading re-validates both and re-derives
a random sample of rows from freshly assembled relations.  A file loads
only if it is the exact text the writer would write for its rows.

Run:  python demos/persistence_and_verification.py
"""

import hashlib
import json
import tempfile
import time
from pathlib import Path

from gw24 import Engine, __version__
from gw24.cache import CacheError, load_store, save_store
from gw24.verify import verify_store

with tempfile.TemporaryDirectory(prefix="gw24-demo-") as tmp:
    workdir = Path(tmp)
    path = workdir / "counts.gw24"

    engine = Engine()
    start = time.monotonic()
    engine.solve_up_to(6)
    print(f"solved degrees 1..6 in {time.monotonic() - start:.2f}s")

    save_store(engine.store, str(path), engine.seed_set, __version__)
    print(f"saved {path.stat().st_size} bytes to {path}")
    print("header:", path.read_text().splitlines()[0])

    start = time.monotonic()
    loaded = load_store(str(path), engine.seed_set)
    print(f"reloaded and sample-verified in {time.monotonic() - start:.2f}s; "
          f"max degree {loaded.max_degree}")

    report = verify_store(loaded, 4, exhaustive=True)
    print(f"exhaustive re-check of degrees 1..4: {report.equations_checked} "
          f"relations, {len(report.violations)} violations")

    # Flip one digit of one value: the row digest no longer matches.
    tampered = workdir / "tampered.gw24"
    tampered.write_text(path.read_text().replace(" 3 504", " 3 505"))
    try:
        load_store(str(tampered), engine.seed_set)
    except CacheError as exc:
        print(f"tampered copy rejected: {exc}")

    # Double one space and re-digest the rows: the table is unchanged, but
    # the file is not the text the writer writes, so it is rejected all the
    # same.
    header, *rows = path.read_text().splitlines()
    rows[0] = rows[0].replace(" ", "  ", 1)
    fields = json.loads(header)
    fields["content_digest"] = hashlib.sha256(
        "\n".join(rows).encode()).hexdigest()
    respaced = workdir / "respaced.gw24"
    respaced.write_text(json.dumps(fields, sort_keys=True) + "\n"
                        + "\n".join(rows) + "\n")
    try:
        load_store(str(respaced), engine.seed_set)
    except CacheError as exc:
        print(f"re-digested copy with a doubled space rejected: {exc}")
