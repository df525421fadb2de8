"""Command-line surface.

Commands: invariant, table, verify, cache export, cache import.
Exit codes: 0 success, 1 usage error, 2 verification inconsistency,
3 underdetermined system.  A command keeps its exit code when its reader
closes the output early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cache import CacheError, load_store, save_store
from .engine import Engine, EngineError, UnderdeterminedSystemError
from .keys import InvariantKey, canonical_keys, dimension_valid
from .schubert import (
    SeedTableError,
    classical_consistency_failures,
    seed_invariants,
)
from .table import GOLDEN_MAX_DEGREE, GOLDEN_Q, RENDERERS, build_rows
from .verify import degrees_failing_at_a_point

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_UNDERDETERMINED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # verification failures, so usage problems are rerouted to exit 1.
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gw24",
        description=(
            "Exact counts of degree-d rational curves in G(2,4) and of "
            "rational ruled surfaces in P^3, from associativity of the "
            "quantum product."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    inv = sub.add_parser("invariant", help="print one count N(a,b,g,d;degree)")
    for name in ("alpha", "beta", "gamma", "delta", "degree"):
        inv.add_argument(name, type=int)
    inv.add_argument("--format", choices=("plain", "json"), default="plain")
    inv.add_argument("--cache-path")
    inv.set_defaults(func=cmd_invariant)

    tab = sub.add_parser("table", help="print the degree table Q_d")
    tab.add_argument("--max-degree", type=int, default=GOLDEN_MAX_DEGREE)
    tab.add_argument("--format", choices=("md", "csv", "json"), default="md")
    tab.add_argument("--with-nd", action="store_true",
                     help="include N_d = d^3 Q_d")
    tab.add_argument("--cache-path")
    tab.add_argument(
        "--allow-high-degree", action="store_true",
        help="permit degrees beyond 9 (no published reference values exist)",
    )
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run the consistency suite")
    ver.add_argument("--max-degree", type=int, default=3)
    ver.add_argument(
        "--exhaustive", action="store_true",
        help="check every relation one by one instead of evaluating each "
             "relation family at one random point modulo a random prime",
    )
    ver.add_argument(
        "--workers", type=int, default=1,
        help="processes for the relation-by-relation check: at most one per "
             "usable CPU and per degree checked, no pool if that leaves one",
    )
    ver.add_argument("--cache-path")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=cmd_verify)

    cache = sub.add_parser("cache", help="export or import the solved table")
    csub = cache.add_subparsers(dest="cache_command", required=True,
                                parser_class=_Parser)
    exp = csub.add_parser("export")
    exp.add_argument("--cache-path", required=True)
    exp.add_argument("--max-degree", type=int, default=GOLDEN_MAX_DEGREE)
    exp.add_argument("--allow-high-degree", action="store_true")
    exp.set_defaults(func=cmd_cache_export)
    imp = csub.add_parser("import")
    imp.add_argument("--cache-path", required=True)
    imp.set_defaults(func=cmd_cache_import)

    return parser


def _check_degree_gate(args) -> None:
    if args.max_degree < 1:
        raise UsageError("--max-degree must be >= 1")
    if args.max_degree > GOLDEN_MAX_DEGREE and not args.allow_high_degree:
        raise UsageError(
            f"degrees beyond {GOLDEN_MAX_DEGREE} have no reference data; "
            "pass --allow-high-degree to compute them anyway"
        )


def _load_cache(cache_path: str, seed_set, sample_through: int):
    try:
        return load_store(cache_path, seed_set, sample_through=sample_through)
    except OSError as exc:
        raise UsageError(f"cannot read cache file {cache_path!r}: "
                         f"{exc.strerror or exc}") from exc


def _check_at_a_point(store) -> None:
    """``CacheError`` if the random-point check flags a degree of ``store``."""
    failing = degrees_failing_at_a_point(store.raw_tables(), store.max_degree)
    if failing:
        raise CacheError(
            "cache rows violate the associativity relations at a random "
            f"point at degrees {', '.join(map(str, sorted(failing)))}")


def _extend_cache(engine: Engine, cache_path: str, degree: int) -> None:
    """Point-check the loaded degrees, solve through ``degree``, then save:
    the one path that writes a cache file."""
    if engine.store.max_degree:
        _check_at_a_point(engine.store)
    engine.solve_up_to(degree)
    try:
        save_store(engine.store, cache_path, engine.seed_set, __version__)
    except OSError as exc:
        raise UsageError(f"cannot write cache file {cache_path!r}: "
                         f"{exc.strerror or exc}") from exc


def _engine_for(cache_path: str | None, reads: int) -> Engine:
    """The engine of a request that reads degrees 1..``reads``: the one
    degree bound of the request.  It bounds the load's row sample, and a
    file holding fewer degrees is extended through it."""
    engine = Engine()
    if cache_path and os.path.exists(cache_path):
        engine.store = _load_cache(cache_path, engine.seed_set, reads)
    if cache_path and reads > engine.store.max_degree:
        _extend_cache(engine, cache_path, reads)
    return engine


def _write(text: str) -> None:
    """Write ``text`` to stdout and flush: the one place the CLI writes its
    output, once per command.  A closed stdout leaves the exit code as it
    is: the recipe of Python's signal docs sends the output still buffered
    to devnull, so the exit flush cannot fail."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_invariant(args) -> int:
    if min(args.alpha, args.beta, args.gamma, args.delta) < 0 or args.degree < 0:
        raise UsageError("all key entries must be nonnegative")
    key = InvariantKey(args.alpha, args.beta, args.gamma, args.delta, args.degree)
    valid = dimension_valid(key)
    # a dimension-invalid key is 0 by convention: it reads no degree
    engine = _engine_for(args.cache_path, key.degree if valid else 0)
    value = engine.invariant(*key)
    if args.format == "json":
        _write(json.dumps({
            "alpha": key.alpha, "beta": key.beta, "gamma": key.gamma,
            "delta": key.delta, "degree": key.degree,
            "value": str(value), "dimension_valid": valid,
        }, sort_keys=True) + "\n")
    else:
        _write(f"{value}\n")
        if not valid:
            # the reasons of keys.dimension_valid, the degree checked first
            reason = ("degree < 1: degree-0 counts are classical, not in the "
                      "table" if key.degree < 1
                      else "alpha+beta+2*gamma+3*delta != 4*degree+1")
            print(f"note: dimension-invalid key ({reason}); value is 0 by "
                  "convention", file=sys.stderr)
    return EXIT_OK


def cmd_table(args) -> int:
    _check_degree_gate(args)
    engine = _engine_for(args.cache_path, args.max_degree)
    rows = build_rows(engine, args.max_degree, with_nd=args.with_nd)
    _write(RENDERERS[args.format](rows))
    return EXIT_OK


def _record(check: str, failures: list, **extra) -> dict:
    """One ``verify`` record; it is ok exactly when it has no failures."""
    return {"check": check, "ok": not failures, "failures": failures, **extra}


def _engine_checks(args, engine: Engine) -> list[dict]:
    """The wdvv-relations and golden-table records of ``verify``."""
    report = engine.verify_wdvv(
        args.max_degree, exhaustive=args.exhaustive, workers=args.workers
    )
    failures = [
        {
            "degree": v.degree,
            "quadruple": list(v.quadruple),
            "monomial": list(v.target),
            "residual": str(v.residual),
        }
        for v in report.violations
    ]
    degrees = range(1, min(args.max_degree, GOLDEN_MAX_DEGREE) + 1)
    golden_failures = []
    for d in degrees:
        q = engine.q_number(d)
        if q != GOLDEN_Q[d]:
            golden_failures.append(
                f"degree {d}: computed {q}, reference {GOLDEN_Q[d]}"
            )
    return [
        _record("wdvv-relations", failures,
                equations_checked=report.equations_checked),
        _record("golden-table", golden_failures,
                matched_rows=len(degrees) - len(golden_failures)),
    ]


def cmd_verify(args) -> int:
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    records = [
        _record("classical-ring-vs-oracle", classical_consistency_failures())
    ]
    try:
        # Building the engine runs the seed cross-checks.  The load skips
        # the row sample: the wdvv-relations check covers every relation.
        # A solve past the loaded degrees stays in memory: verify never
        # writes the file.
        engine = _engine_for(args.cache_path, 0)
    except SeedTableError as exc:
        records.append(_record("seed-cross-checks", [str(exc)]))
        # The remaining checks run on an engine built from the seeds.
        for check in ("wdvv-relations", "golden-table"):
            records.append({"check": check, "ok": False, "failures": [],
                            "skipped": "the seed cross-checks failed"})
    else:
        records.append(_record("seed-cross-checks", []))
        records.extend(_engine_checks(args, engine))

    all_ok = all(r["ok"] for r in records)
    _write(_report(args.format, all_ok, records))
    return EXIT_OK if all_ok else EXIT_INCONSISTENT


def _report(fmt: str, all_ok: bool, records: list[dict]) -> str:
    if fmt == "json":
        return json.dumps({"ok": all_ok, "checks": records}, indent=2,
                          sort_keys=True) + "\n"
    lines = []
    for r in records:
        status = "ok" if r["ok"] else "FAIL"
        extra = ""
        if "skipped" in r:
            status, extra = "skipped", f" ({r['skipped']})"
        elif r["check"] == "wdvv-relations":
            extra = f" (equations checked: {r['equations_checked']})"
        elif r["check"] == "golden-table":
            extra = f" (golden rows matched: {r['matched_rows']})"
        lines.append(f"{r['check']}: {status}{extra}")
        lines.extend(f"  {json.dumps(failure, sort_keys=True)}"
                     if isinstance(failure, dict) else f"  {failure}"
                     for failure in r["failures"])
    return "\n".join(lines) + "\n"


def cmd_cache_export(args) -> int:
    _check_degree_gate(args)
    # The random-point check covers every relation, so the load skips its
    # row sample; a cache it rejects is left as it is.
    engine = _engine_for(args.cache_path, 0)
    _extend_cache(engine, args.cache_path, args.max_degree)
    _write(
        f"exported degrees 1..{engine.store.max_degree} to {args.cache_path}\n"
    )
    return EXIT_OK


def cmd_cache_import(args) -> int:
    # The random-point check below covers every relation, so the load
    # skips its row sample.
    store = _load_cache(args.cache_path, seed_invariants(), 0)
    _check_at_a_point(store)
    rows = sum(len(canonical_keys(d)[0]) for d in store.degrees())
    _write(f"cache accepted: degrees 1..{store.max_degree}, {rows} rows\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.cache_path == "":
            raise UsageError("--cache-path must not be empty")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnderdeterminedSystemError as exc:
        print(f"underdetermined: {exc}", file=sys.stderr)
        return EXIT_UNDERDETERMINED
    except (EngineError, CacheError, SeedTableError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
