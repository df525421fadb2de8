"""Persistent cache for solved invariant tables.

Plain-text format, one line-delimited record per canonical key:

    {header json}
    alpha beta gamma delta degree value
    ...

Values are decimal strings so that counts of any magnitude round-trip
losslessly.  The header binds the file to a seed set (a cache produced
from different seeds is rejected, never silently reused) and carries a
digest of the row block, so a tampered row is rejected deterministically.
``_render`` is the one definition of the file: a cache loads only if it is
the text ``save_store`` would write for its rows, with any ``tool_version``
string (reading in text mode turns CRLF line ends into LF).  By default
a load also re-verifies a seeded random sample of rows against freshly
assembled relations, which catches only some well-formed files with wrong
values; it is the only value check of the loads of ``table``,
``invariant`` and ``cache export``.  ``cache import`` and ``verify`` load
with ``sample=False``, since the check each runs next covers every
relation: the random-point check, or ``verify --exhaustive``'s relation by
relation check.  Writes are atomic: temp file in the target directory,
then rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from itertools import zip_longest

from .engine import InvariantStore
from .keys import SeedSet, canonical_keys
from .wdvv import PsiCalculator, build_equation, equation_families

SCHEMA_VERSION = 1
_SAMPLE_ROWS_PER_DEGREE = 4
_SAMPLE_EQUATIONS_PER_ROW = 2
_SAMPLE_RNG_SEED = 0x67773234


class CacheError(Exception):
    """A cache file was rejected; the message says why."""


def seed_digest(seed_set: SeedSet) -> str:
    return hashlib.sha256(seed_set.serialize().encode()).hexdigest()


def _content_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _render(store: InvariantStore, seed_set: SeedSet,
            tool_version: str) -> str:
    """The text of the cache file of ``store``."""
    lines = [f"{a} {b} {g} {e} {degree} {v}"
             for degree in store.degrees()
             for (a, b, g, e), v in store.raw_table(degree).items()
             if a >= b]
    header = {
        "schema": SCHEMA_VERSION,
        "seed_digest": seed_digest(seed_set),
        "tool_version": tool_version,
        "content_digest": _content_digest(lines),
        "max_degree": store.max_degree,
    }
    return json.dumps(header, sort_keys=True) + "\n" + "\n".join(lines) + "\n"


def save_store(store: InvariantStore, path: str, seed_set: SeedSet,
               tool_version: str) -> None:
    payload = _render(store, seed_set, tool_version)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gw24-cache-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_store(path: str, seed_set: SeedSet, *,
               sample: bool = True) -> InvariantStore:
    """The store of the cache file at ``path``; ``CacheError`` if the file
    is not the text ``save_store`` writes for ``seed_set``, or, with
    ``sample``, if a sampled row fails ``_verify_sample``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = handle.read()
        except UnicodeDecodeError as exc:
            raise CacheError(f"cache file is not UTF-8 text: {exc}") from exc
    lines = raw.splitlines()
    if not lines:
        raise CacheError("empty cache file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CacheError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CacheError(f"malformed header: not a JSON object: {lines[0]!r}")
    if header.get("schema") != SCHEMA_VERSION:
        raise CacheError(f"unsupported schema version {header.get('schema')!r}")
    expected_seed = seed_digest(seed_set)
    if header.get("seed_digest") != expected_seed:
        raise CacheError(
            "seed-set digest mismatch: cache was produced from different seeds"
        )
    rows = [line for line in lines[1:] if line.strip()]
    if header.get("content_digest") != _content_digest(rows):
        raise CacheError("content digest mismatch: cache rows were modified")

    tables: dict[int, dict] = {}
    # the current row's degree and its table; a degree's rows come together
    current, table = 0, {}
    for line in rows:
        try:
            a, b, g, e, degree, value = map(int, line.split())
        except ValueError as exc:
            raise CacheError(f"malformed row: {line!r}") from exc
        if a < b or b < 0 or g < 0 or e < 0 or degree < 1 or value < 0:
            raise CacheError(f"invalid row: {line!r}")
        if degree != current:
            current, table = degree, tables.setdefault(degree, {})
        key = (a, b, g, e)
        if key in table:
            raise CacheError(f"duplicate row: {line!r}")
        table[key] = value
    if not tables:
        raise CacheError("cache has no rows")
    degrees = sorted(tables)
    if degrees != list(range(1, degrees[-1] + 1)):
        raise CacheError(f"cache degrees are not contiguous from 1: {degrees}")
    if header.get("max_degree") != degrees[-1]:
        raise CacheError(
            f"header max_degree {header.get('max_degree')!r} does not match "
            f"the rows' degrees 1..{degrees[-1]}"
        )

    store = InvariantStore()
    try:
        for degree in degrees:
            store.commit_degree(degree, tables[degree])
    except Exception as exc:
        raise CacheError(f"cache rows do not form a valid store: {exc}") from exc

    version = header.get("tool_version")
    if not isinstance(version, str):
        raise CacheError(f"malformed header: tool_version {version!r} "
                         "is not a string")
    written = _render(store, seed_set, version)
    if raw != written:
        # The first differing row, before the header: a row that differs
        # changes the header's digest too.
        pairs = list(zip_longest(raw.splitlines(True),
                                 written.splitlines(True), fillvalue=""))
        i = next((i for i, (got, want) in enumerate(pairs)
                  if i and got != want), 0)
        got, want = pairs[i]
        raise CacheError(f"malformed {'row' if i else 'header'}: {got!r} "
                         f"where the writer writes {want!r}")

    if sample:
        _verify_sample(store)
    return store


def _verify_sample(store: InvariantStore) -> None:
    """Re-derive a seeded random sample of rows from fresh relations."""
    rng = random.Random(_SAMPLE_RNG_SEED)
    psi = PsiCalculator(store.raw_tables())
    families = equation_families()
    for degree in store.degrees():
        raw = store.raw_table(degree)
        keys = canonical_keys(degree)[0]
        for key in rng.sample(keys, min(_SAMPLE_ROWS_PER_DEGREE, len(keys))):
            checked = 0
            for fam in families:
                if checked >= _SAMPLE_EQUATIONS_PER_ROW:
                    break
                if fam.target_weight(degree) < 0:
                    continue
                targets = [
                    (key[0] - sa, key[1] - sb, key[2] - sg, key[3] - se)
                    for _c, _sigma, (sa, sb, sg, se), _n1 in fam.cross
                ]
                hit = next((t for t in targets if min(t) >= 0), None)
                if hit is None:
                    continue
                eq = build_equation(fam, hit, degree, psi)
                if eq.residual(raw) != 0:
                    raise CacheError(
                        f"sample verification failed at degree {degree}, "
                        f"row {key}, quadruple {eq.quadruple}, "
                        f"monomial {hit}"
                    )
                checked += 1
