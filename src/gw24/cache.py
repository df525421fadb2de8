"""Persistent cache for solved invariant tables.

Plain-text format, one line-delimited record per canonical key:

    {header json}
    alpha beta gamma delta degree value
    ...

Values are decimal strings, so counts of any magnitude round-trip.  The
header binds the file to a seed set (a cache of other seeds is rejected,
never reused) and carries a digest of the rows.  ``_render`` is the one
definition of the file: a load reads each degree's value column in the
writer's key order and accepts only the text ``save_store`` writes for
those values, with any ``tool_version`` (text mode reads CRLF as LF); any
other file is rejected by its first row that is not the writer's.  The
loads of ``table`` and ``invariant`` also re-derive a seeded sample of
rows from fresh relations; ``verify`` and both cache commands load with
``sample=False``, since the check each runs next covers every relation.
Writes are atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from contextlib import suppress
from itertools import zip_longest

from .engine import EngineError, InvariantStore
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
    """The store of the cache file at ``path``, read from the text after
    each row's last space, in the writer's key order; ``CacheError`` if the
    file is not the text ``save_store`` writes for ``seed_set``, or, with
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
    version, max_degree = header.get("tool_version"), header.get("max_degree")
    if not isinstance(version, str):
        raise CacheError(f"malformed header: tool_version {version!r} "
                         "is not a string")
    if type(max_degree) is not int or max_degree < 1:
        raise CacheError(f"malformed header: max_degree {max_degree!r} "
                         "is not a positive integer")

    store, start = InvariantStore(), 0
    try:
        for degree in range(1, max_degree + 1):
            keys = canonical_keys(degree)[0]
            # too few rows leave keys out, which commit_degree rejects
            values = [int(row.rpartition(" ")[2])
                      for row in rows[start:start + len(keys)]]
            store.commit_degree(degree, dict(zip(keys, values)))
            start += len(keys)
    except (ValueError, EngineError):
        # a value that is not an integer or is negative, or too few rows
        start = -1
    if start != len(rows):
        raise CacheError(_first_foreign_row(rows, max_degree))

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


def _first_foreign_row(rows: list[str], max_degree: int) -> str:
    """The first of ``rows`` that the writer of degrees 1..``max_degree``
    does not write there; only a load that fails compares key fields."""
    wanted = ((d, key) for d in range(1, max_degree + 1)
              for key in canonical_keys(d)[0])
    for row, want in zip_longest(rows, wanted, fillvalue=""):
        if not want:
            return f"malformed row: {row!r} where the writer's rows end"
        fields, _, value = row.rpartition(" ")
        with suppress(ValueError):
            if (fields == "{} {} {} {} {}".format(*want[1], want[0])
                    and str(abs(int(value))) == value):
                continue
        return (f"malformed row: {row!r} where the writer writes degree "
                f"{want[0]} key {want[1]}")


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
