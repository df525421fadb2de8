"""Persistent cache for solved invariant tables.

Plain-text format, one line-delimited record per canonical key:

    {header json}
    alpha beta gamma delta degree value
    ...

Values are decimal strings so that counts of any magnitude round-trip
losslessly.  The header binds the file to a seed set (a cache produced
from different seeds is rejected, never silently reused) and carries a
digest of the row block, so a tampered row is rejected deterministically.
On load a seeded random sample of rows is additionally re-verified against
freshly assembled relations, guarding against a well-formed file with
wrong values.  Writes are atomic: temp file in the target directory, then
rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile

from .engine import InvariantStore
from .keys import SeedSet
from .wdvv import PsiCalculator, build_equation, equation_families

SCHEMA_VERSION = 1
_SAMPLE_ROWS_PER_DEGREE = 4
_SAMPLE_EQUATIONS_PER_ROW = 2
_SAMPLE_RNG_SEED = 0x67773234


class CacheError(Exception):
    """A cache file was rejected; the message says why."""


def seed_digest(seed_set: SeedSet) -> str:
    return hashlib.sha256(seed_set.serialize().encode()).hexdigest()


def _row_lines(store: InvariantStore) -> list[str]:
    lines = []
    for degree in store.degrees():
        for (a, b, g, e), v in sorted(store.canonical_table(degree).items()):
            lines.append(f"{a} {b} {g} {e} {degree} {v}")
    return lines


def _content_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def save_store(store: InvariantStore, path: str, seed_set: SeedSet,
               tool_version: str) -> None:
    lines = _row_lines(store)
    header = {
        "schema": SCHEMA_VERSION,
        "seed_digest": seed_digest(seed_set),
        "tool_version": tool_version,
        "content_digest": _content_digest(lines),
        "max_degree": store.max_degree,
    }
    payload = json.dumps(header, sort_keys=True) + "\n" + "\n".join(lines) + "\n"
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


def load_store(path: str, seed_set: SeedSet) -> InvariantStore:
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
    for line in rows:
        fields = line.split()
        if len(fields) != 6:
            raise CacheError(f"malformed row: {line!r}")
        try:
            a, b, g, e, degree = (int(x) for x in fields[:5])
            value = int(fields[5])
        except ValueError as exc:
            raise CacheError(f"malformed row: {line!r}") from exc
        if min(a, b, g, e) < 0 or degree < 1 or value < 0 or a < b:
            raise CacheError(f"invalid row: {line!r}")
        if (a, b, g, e) in tables.setdefault(degree, {}):
            raise CacheError(f"duplicate row: {line!r}")
        tables[degree][(a, b, g, e)] = value
    if not tables:
        raise CacheError("cache has no rows")
    degrees = sorted(tables)
    if degrees != list(range(1, degrees[-1] + 1)):
        raise CacheError(f"cache degrees are not contiguous from 1: {degrees}")

    store = InvariantStore()
    try:
        for degree in degrees:
            store.commit_degree(degree, tables[degree])
    except Exception as exc:
        raise CacheError(f"cache rows do not form a valid store: {exc}") from exc

    _verify_sample(store)
    return store


def _verify_sample(store: InvariantStore) -> None:
    """Re-derive a seeded random sample of rows from fresh relations."""
    rng = random.Random(_SAMPLE_RNG_SEED)
    psi = PsiCalculator(store.raw_tables())
    families = equation_families()
    for degree in store.degrees():
        table = store.canonical_table(degree)
        raw = store.raw_table(degree)
        keys = sorted(table)
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
                if eq.residual(lambda k: raw[k[:4]]) != 0:
                    raise CacheError(
                        f"sample verification failed at degree {degree}, "
                        f"row {key}, quadruple {eq.quadruple}, "
                        f"monomial {hit}"
                    )
                checked += 1
