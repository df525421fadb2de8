"""Persistent cache for solved invariant tables.

Plain-text format, one line-delimited record per canonical key:

    {header json}
    alpha beta gamma delta degree value
    ...

Values are decimal strings, so counts of any magnitude round-trip.  The
header binds the file to a seed set (a cache of other seeds is rejected,
never reused) and carries a digest of the rows.  ``_header`` and ``_rows``
define the file: ``save_store`` writes their text, and a load checks a
file against them (any ``tool_version``; text mode reads CRLF as LF),
rejecting it by its header or by its first row that is not the writer's,
named with the degree and key the writer puts there: one walk over the
degrees accepts each degree's rows or names its first bad row.  A load
also re-derives a seeded sample of rows from fresh relations, over the
degrees up to ``sample_through``: ``table`` and ``invariant`` pass the
highest degree they read, and ``verify`` and both cache commands pass 0,
since the check each runs next covers every relation.
Writes are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from collections.abc import Iterable

from .engine import InvariantStore
from .keys import SeedSet, Tuple4, canonical_keys
from .relations import build_equation, equation_families
from .wdvv import PsiCalculator

SCHEMA_VERSION = 1
_SAMPLE_ROWS_PER_DEGREE = 4
_SAMPLE_EQUATIONS_PER_ROW = 2
_SAMPLE_RNG_SEED = 0x67773234


class CacheError(Exception):
    """A cache file was rejected; the message says why."""


def seed_digest(seed_set: SeedSet) -> str:
    items = sorted(seed_set.entries.items())
    return _content_digest(_rows(1, [k[:4] for k, _v in items],
                                 [v for _k, v in items]))


def _content_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _header(seed_set: SeedSet, tool_version: str, content_digest: str,
            max_degree: int) -> str:
    """The writer's header line, without its line end."""
    return json.dumps({"schema": SCHEMA_VERSION,
                       "seed_digest": seed_digest(seed_set),
                       "tool_version": tool_version,
                       "content_digest": content_digest,
                       "max_degree": max_degree}, sort_keys=True)


def _rows(degree: int, keys: Iterable[Tuple4],
          values: Iterable[int]) -> list[str]:
    """The writer's rows of ``keys``, keys of ``degree`` in the given
    order, holding ``values``, without line ends.  A key's entries and the
    degree are at most 4 * degree + 1, so a row joins their texts, made
    once per call, with the text of its value; ``zip`` stops at the
    shorter input, so a load checks the row count itself."""
    text = [f"{i} " for i in range(4 * degree + 2)]
    d = text[degree]
    return [f"{text[a]}{text[b]}{text[g]}{text[e]}{d}{v}"
            for (a, b, g, e), v in zip(keys, values)]


def _value(row: str) -> int:
    """The number after the last space of ``row``; -1, which the writer
    never writes, if ``int`` cannot read it."""
    try:
        return int(row.rpartition(" ")[2])
    except ValueError:
        return -1


def _render(store: InvariantStore, seed_set: SeedSet,
            tool_version: str) -> str:
    """The text of the cache file of ``store``."""
    rows = []
    for degree in store.degrees():
        raw, keys = store.raw_table(degree), canonical_keys(degree)[0]
        rows += _rows(degree, keys, map(raw.__getitem__, keys))
    header = _header(seed_set, tool_version, _content_digest(rows),
                     store.max_degree)
    return header + "\n" + "\n".join(rows) + "\n"


def save_store(store: InvariantStore, path: str, seed_set: SeedSet,
               tool_version: str) -> None:
    """Write the cache file of ``store`` to ``path``; ``ValueError``, and
    no file, if the store is empty, whose header a load rejects."""
    if not store.max_degree:
        raise ValueError("an empty store has no cache file: its max_degree "
                         "is 0")
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
               sample_through: int | None = None) -> InvariantStore:
    """The store of the cache file at ``path``, checked against ``_header``
    and ``_rows`` in one walk over the degrees; ``CacheError`` if the file
    is not the text ``save_store`` writes for ``seed_set``, or if a sampled
    row of degree at most ``sample_through`` (every degree of the file if
    None, none if 0) fails ``_verify_sample``.  Rows of a higher degree
    are checked only against the digest and the writer's form."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = handle.read()
        except UnicodeDecodeError as exc:
            raise CacheError(f"cache file is not UTF-8 text: {exc}") from exc
    if not raw:
        raise CacheError("empty cache file")
    lines = raw.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CacheError(f"malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise CacheError(f"malformed header: not a JSON object: {lines[0]!r}")
    if header.get("schema") != SCHEMA_VERSION:
        raise CacheError(f"unsupported schema version {header.get('schema')!r}")
    if header.get("seed_digest") != seed_digest(seed_set):
        raise CacheError(
            "seed-set digest mismatch: cache was produced from different seeds"
        )
    # the rows between the header line and the final line end
    digest = _content_digest(lines[1:-1] if lines[-1] == "" else lines[1:])
    if header.get("content_digest") != digest:
        raise CacheError("content digest mismatch: cache rows were modified")
    version, max_degree = header.get("tool_version"), header.get("max_degree")
    if not isinstance(version, str):
        raise CacheError(f"malformed header: tool_version {version!r} "
                         "is not a string")
    if type(max_degree) is not int or max_degree < 1:
        raise CacheError(f"malformed header: max_degree {max_degree!r} "
                         "is not a positive integer")

    want = _header(seed_set, version, digest, max_degree)
    if lines[0] != want:
        raise CacheError(f"malformed header: {lines[0]!r} "
                         f"where the writer writes {want!r}")
    # the rows lie between the header line and the last piece of the split,
    # the one after the final line end, which has no line end of its own
    store, start, end = InvariantStore(), 1, len(lines) - 1
    for degree in range(1, max_degree + 1):
        keys = canonical_keys(degree)[0]
        block = lines[start:min(start + len(keys), end)]
        values = list(map(_value, block))
        rows = _rows(degree, keys, values)
        if len(block) < len(keys) or min(values) < 0 or block != rows:
            # a short block ends at the last piece, or at the end of a header
            # with no line end: either takes the missing row's place, with
            # no value, so it is never the writer's row
            for row, key, value, want in zip(
                    block + [lines[end] if end else ""], keys, values + [-1],
                    rows + [None]):
                if value < 0 or row != want:
                    raise CacheError(f"malformed row: {row!r} where the "
                                     f"writer writes degree {degree} key {key}")
        store.commit_degree(degree, dict(zip(keys, values)))
        start += len(keys)
    if lines[start:] != [""]:
        raise CacheError(f"malformed row: {lines[start]!r} "
                         "where the writer's rows end")

    through = (max_degree if sample_through is None
               else min(sample_through, max_degree))
    if through > 0:
        _verify_sample(store, through)
    return store


def _verify_sample(store: InvariantStore, through: int) -> None:
    """Re-derive a seeded random sample of the rows of degrees 1..through
    from fresh relations, which read only those degrees: the rows and
    relations are the first ones of the sample of every degree.  A
    relation of degree d reads degree d from the raw table in its residual
    and the lower degrees through ``PsiCalculator.at``, so the calculator
    holds degrees 1..through-1 only."""
    rng = random.Random(_SAMPLE_RNG_SEED)
    tables = store.raw_tables()
    psi = PsiCalculator({d: tables[d] for d in range(1, through)})
    families = equation_families()
    for degree in range(1, through + 1):
        raw = tables[degree]
        keys = canonical_keys(degree)[0]
        for key in rng.sample(keys, min(_SAMPLE_ROWS_PER_DEGREE, len(keys))):
            checked = 0
            for fam in families:
                if checked >= _SAMPLE_EQUATIONS_PER_ROW:
                    break
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
