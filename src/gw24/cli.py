"""Command-line surface.

Commands: invariant, table, verify, cache export, cache import.
Exit codes: 0 success, 1 usage error, 2 verification inconsistency,
3 underdetermined system.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cache import CacheError, load_store, save_store
from .engine import (
    Engine,
    EngineError,
    InconsistencyError,
    UnderdeterminedSystemError,
)
from .keys import InvariantKey, dimension_valid
from .schubert import classical_consistency_failures, seed_invariants
from .table import GOLDEN_MAX_DEGREE, GOLDEN_Q, RENDERERS, build_rows

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
        help="re-check every relation individually instead of re-deriving "
             "each degree and comparing",
    )
    ver.add_argument(
        "--workers", type=int, default=1,
        help="processes for the series convolutions of --exhaustive; "
             "the default check re-derives each degree serially and "
             "ignores it",
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
    if args.max_degree > GOLDEN_MAX_DEGREE and not getattr(
        args, "allow_high_degree", False
    ):
        raise UsageError(
            f"degrees beyond {GOLDEN_MAX_DEGREE} have no reference data; "
            "pass --allow-high-degree to compute them anyway"
        )


def _load_cache(cache_path: str, seed_set):
    try:
        return load_store(cache_path, seed_set)
    except OSError as exc:
        raise UsageError(f"cannot read cache file: {exc}") from exc


def _save_cache(engine: Engine, cache_path: str) -> None:
    try:
        save_store(engine.store, cache_path, engine.seed_set, __version__)
    except OSError as exc:
        raise UsageError(f"cannot write cache file: {exc}") from exc


def _engine_with_cache(cache_path: str | None) -> tuple[Engine, int]:
    engine = Engine()
    loaded = 0
    if cache_path and os.path.exists(cache_path):
        engine.store = _load_cache(cache_path, engine.seed_set)
        loaded = engine.store.max_degree
    return engine, loaded


def _maybe_refresh_cache(engine: Engine, cache_path: str | None,
                         loaded: int) -> None:
    if cache_path and engine.store.max_degree > loaded:
        _save_cache(engine, cache_path)


def cmd_invariant(args) -> int:
    if min(args.alpha, args.beta, args.gamma, args.delta) < 0 or args.degree < 0:
        raise UsageError("all key entries must be nonnegative")
    engine, loaded = _engine_with_cache(args.cache_path)
    key = InvariantKey(args.alpha, args.beta, args.gamma, args.delta, args.degree)
    value = engine.invariant(*key)
    valid = dimension_valid(key)
    _maybe_refresh_cache(engine, args.cache_path, loaded)
    if args.format == "json":
        print(json.dumps({
            "alpha": key.alpha, "beta": key.beta, "gamma": key.gamma,
            "delta": key.delta, "degree": key.degree,
            "value": str(value), "dimension_valid": valid,
        }, sort_keys=True))
    else:
        print(value)
        if not valid:
            print(
                "note: dimension-invalid key "
                "(alpha+beta+2*gamma+3*delta != 4*degree+1); value is 0 "
                "by convention", file=sys.stderr,
            )
    return EXIT_OK


def cmd_table(args) -> int:
    _check_degree_gate(args)
    engine, loaded = _engine_with_cache(args.cache_path)
    rows = build_rows(engine, args.max_degree, with_nd=args.with_nd)
    _maybe_refresh_cache(engine, args.cache_path, loaded)
    sys.stdout.write(RENDERERS[args.format](rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    records = []

    classical = classical_consistency_failures()
    records.append({
        "check": "classical-ring-vs-oracle",
        "ok": not classical,
        "failures": classical,
    })

    try:
        seed_invariants()
        records.append({"check": "seed-cross-checks", "ok": True, "failures": []})
    except RuntimeError as exc:
        records.append(
            {"check": "seed-cross-checks", "ok": False, "failures": [str(exc)]}
        )

    engine, loaded = _engine_with_cache(args.cache_path)
    golden_failures = []
    matched = 0
    wdvv_record = {"check": "wdvv-relations", "ok": True, "failures": [],
                   "equations_checked": 0}
    if args.max_degree >= 1:
        report = engine.verify_wdvv(
            args.max_degree, exhaustive=args.exhaustive, workers=args.workers
        )
        wdvv_record["equations_checked"] = report.equations_checked
        if not report.ok:
            wdvv_record["ok"] = False
            wdvv_record["failures"] = [
                {
                    "degree": v.degree,
                    "quadruple": list(v.quadruple),
                    "monomial": list(v.target),
                    "residual": str(v.residual),
                }
                for v in report.violations
            ]
        for d in range(1, min(args.max_degree, GOLDEN_MAX_DEGREE) + 1):
            q = engine.q_number(d)
            if q == GOLDEN_Q[d]:
                matched += 1
            else:
                golden_failures.append(
                    f"degree {d}: computed {q}, reference {GOLDEN_Q[d]}"
                )
    records.append(wdvv_record)
    records.append({
        "check": "golden-table",
        "ok": not golden_failures,
        "matched_rows": matched,
        "failures": golden_failures,
    })
    _maybe_refresh_cache(engine, args.cache_path, loaded)

    all_ok = all(r["ok"] for r in records)
    if args.format == "json":
        print(json.dumps({"ok": all_ok, "checks": records}, indent=2,
                         sort_keys=True))
    else:
        for r in records:
            status = "ok" if r["ok"] else "FAIL"
            extra = ""
            if r["check"] == "wdvv-relations":
                extra = f" (equations checked: {r['equations_checked']})"
            if r["check"] == "golden-table":
                extra = f" (golden rows matched: {r['matched_rows']})"
            print(f"{r['check']}: {status}{extra}")
            if not r["ok"]:
                for failure in r["failures"]:
                    print(f"  {json.dumps(failure, sort_keys=True)}"
                          if isinstance(failure, dict) else f"  {failure}")
    return EXIT_OK if all_ok else EXIT_INCONSISTENT


def cmd_cache_export(args) -> int:
    _check_degree_gate(args)
    engine, _loaded = _engine_with_cache(args.cache_path)
    engine.solve_up_to(args.max_degree)
    _save_cache(engine, args.cache_path)
    print(
        f"exported degrees 1..{engine.store.max_degree} to {args.cache_path}"
    )
    return EXIT_OK


def cmd_cache_import(args) -> int:
    store = _load_cache(args.cache_path, Engine().seed_set)
    rows = sum(len(store.canonical_table(d)) for d in store.degrees())
    print(
        f"cache accepted: degrees 1..{store.max_degree}, {rows} rows"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnderdeterminedSystemError as exc:
        print(f"underdetermined: {exc}", file=sys.stderr)
        return EXIT_UNDERDETERMINED
    except (InconsistencyError, CacheError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
