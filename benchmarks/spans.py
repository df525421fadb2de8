"""Outside-in spans around the gw24 layers.

The tracer wraps public functions at the place where their callers look
them up, so the program itself carries no instrumentation:

* ``cli`` binds ``load_store``, ``save_store``, ``build_rows``,
  ``RENDERERS``, ``seed_invariants`` and ``classical_consistency_failures``
  at import, so those are patched on ``gw24.cli``;
* ``engine`` binds ``build_equation``, ``solve_order``, ``seed_invariants``
  and calls its module-level ``verify_store``; ``cache`` binds
  ``build_equation`` too;
* ``Engine.solve_degree`` and ``PsiCalculator.at`` / ``.series`` are
  patched on their classes.

Each call records a span (name, start, end, parent).  A span's self time is
its duration minus the time its direct children cover; the calls are
single-threaded, so children never overlap.  Spans stay in memory until
``summary`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import weakref
from collections import Counter, defaultdict
from time import perf_counter


# (name, unit, better) for every per-layer metric ``summary`` returns.
PER_LAYER = (
    ("wdvv.at.calls", "count", "lower"),
    ("wdvv.at.self_s", "s", "lower"),
    ("wdvv.solve_order.self_s", "s", "lower"),
    ("wdvv.build_equation.calls", "count", "lower"),
    ("wdvv.build_equation.self_s", "s", "lower"),
    ("engine.solve_degree.self_s", "s", "lower"),
    ("wdvv.series.calls", "count", "lower"),
    ("wdvv.series.computed", "count", "lower"),
    ("wdvv.series.memo_hit_ratio", "ratio", "higher"),
    ("wdvv.series.self_s", "s", "lower"),
    ("wdvv.series.pair_products", "count", "lower"),
    ("engine.verify_store.self_s", "s", "lower"),
    ("engine.relations_assembled", "count", "lower"),
    ("engine.values_committed", "count", "higher"),
    ("engine.assembled_per_value", "ratio", "lower"),
    ("engine.relations_checked", "count", "higher"),
    ("cache.load_store.self_s", "s", "lower"),
    ("cache.load_store.sample_s", "s", "lower"),
    ("cache.save_store.s", "s", "lower"),
    ("cache.bytes_read", "B", "lower"),
    ("cache.bytes_written", "B", "lower"),
    ("cache.rejected", "count", "higher"),
    ("table.build_rows.self_s", "s", "lower"),
    ("table.render.s", "s", "lower"),
    ("schubert.seed_invariants.s", "s", "lower"),
    ("schubert.classical_check.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
)

# Metrics that count work rather than time it; they must repeat exactly.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch and
    restore the wrapped names."""

    def __init__(self):
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._shift_counts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, before=None, after=None):
        """``before(args) -> state`` runs ahead of the span and
        ``after(idx, state, args, kwargs, result)`` after it, outside its
        time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except tracer._cache_error:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer._close(idx)
            if after:
                after(idx, state, args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        # Resolved here, not at import: the benchmark re-imports gw24 on
        # every set-up, and only the modules imported last are in use.
        import gw24.cache as cache
        import gw24.cli as cli
        import gw24.engine as engine
        import gw24.wdvv as wdvv

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._cache_error = cache.CacheError
        self._triple_info = wdvv.triple_info
        PsiCalculator, Engine = wdvv.PsiCalculator, engine.Engine
        for owner, attr, name in (
            (cli, "main", "cli.main"),
            (cli, "build_rows", "table.build_rows"),
            (cli, "seed_invariants", "schubert.seed_invariants"),
            (engine, "seed_invariants", "schubert.seed_invariants"),
            (cli, "classical_consistency_failures", "schubert.classical_check"),
            (engine, "solve_order", "wdvv.solve_order"),
            (engine, "build_equation", "wdvv.build_equation"),
            (cache, "build_equation", "wdvv.build_equation"),
            (PsiCalculator, "at", "wdvv.at"),
        ):
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        self._patch(cli, "RENDERERS", {
            fmt: self._wrap("table.render", fn)
            for fmt, fn in cli.RENDERERS.items()
        })
        self._patch(cli, "load_store", self._wrap(
            "cache.load_store", cli.load_store,
            before=self._before_load))
        self._patch(cli, "save_store", self._wrap(
            "cache.save_store", cli.save_store,
            after=self._after_save))
        self._patch(engine, "verify_store", self._wrap(
            "engine.verify_store", engine.verify_store,
            after=self._after_verify))
        self._patch(Engine, "solve_degree", self._wrap(
            "engine.solve_degree", vars(Engine)["solve_degree"],
            before=self._before_solve, after=self._after_solve))
        self._patch(PsiCalculator, "series", self._wrap(
            "wdvv.series", vars(PsiCalculator)["series"],
            before=self._before_series, after=self._after_series))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-call extras ---------------------------------------------------

    def _before_load(self, args):
        self.counts["cache.bytes_read"] += os.path.getsize(args[0])

    def _after_save(self, idx, state, args, kwargs, result):
        self.counts["cache.bytes_written"] += os.path.getsize(args[1])

    def _after_verify(self, idx, state, args, kwargs, report):
        self.counts["engine.relations_checked"] += report.equations_checked

    def _before_solve(self, args):
        return args[0].store.max_degree

    def _after_solve(self, idx, max_before, args, kwargs, table):
        if args[0].store.max_degree > max_before:
            self.counts["engine.values_committed"] += len(table)

    def _before_series(self, args):
        psi, sigma1, sigma2, degree = args
        pair = tuple(sorted((sigma1, sigma2)))
        return (degree, *pair) not in psi._series

    def _after_series(self, idx, computed, args, kwargs, result):
        if not computed:
            return
        psi, sigma1, sigma2, degree = args
        sigma1, sigma2 = sorted((sigma1, sigma2))
        self.counts["wdvv.series.computed"] += 1
        self.counts["wdvv.series.pair_products"] += sum(
            self._shifted_count(psi, d1, sigma1)
            * self._shifted_count(psi, degree - d1, sigma2)
            for d1 in range(1, degree)
        )

    def _shifted_count(self, psi, degree: int, sigma) -> int:
        """Nonzero degree-``degree`` entries that can carry ``sigma``'s
        insertions: one factor of the series' pair loop."""
        memo = self._shift_counts.setdefault(psi, {})
        key = (degree, sigma)
        if key not in memo:
            shift, _n1, alive = self._triple_info(sigma)
            memo[key] = alive and sum(
                1 for t, v in psi.tables[degree].items()
                if v and all(x >= s for x, s in zip(t, shift))
            )
        return memo[key]

    # -- reduction ---------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``reset``;
        ``wall_s`` is the traced phase's wall time."""
        n = len(self.names)
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        children = [0.0] * n
        roots = 0.0
        for i, parent in enumerate(self.parents):
            if parent < 0:
                roots += duration[i]
            else:
                children[parent] += duration[i]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        sample_s = 0.0
        assembled = 0
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - children[i]
            parent = self.names[self.parents[i]] if self.parents[i] >= 0 else ""
            if name == "wdvv.build_equation":
                if parent == "cache.load_store":
                    sample_s += duration[i]
                elif parent == "engine.solve_degree":
                    assembled += 1
        counts = self.counts
        series_calls = calls["wdvv.series"]
        committed = counts["engine.values_committed"]
        out = {
            "wdvv.at.calls": calls["wdvv.at"],
            "wdvv.at.self_s": own["wdvv.at"],
            "wdvv.solve_order.self_s": own["wdvv.solve_order"],
            "wdvv.build_equation.calls": calls["wdvv.build_equation"],
            "wdvv.build_equation.self_s": own["wdvv.build_equation"],
            "engine.solve_degree.self_s": own["engine.solve_degree"],
            "wdvv.series.calls": series_calls,
            "wdvv.series.computed": counts["wdvv.series.computed"],
            "wdvv.series.memo_hit_ratio": (
                (series_calls - counts["wdvv.series.computed"]) / series_calls
                if series_calls else 0.0),
            "wdvv.series.self_s": own["wdvv.series"],
            "wdvv.series.pair_products": counts["wdvv.series.pair_products"],
            "engine.verify_store.self_s": own["engine.verify_store"],
            "engine.relations_assembled": assembled,
            "engine.values_committed": committed,
            "engine.assembled_per_value": (
                assembled / committed if committed else 0.0),
            "engine.relations_checked": counts["engine.relations_checked"],
            "cache.load_store.self_s": own["cache.load_store"],
            "cache.load_store.sample_s": sample_s,
            "cache.save_store.s": total["cache.save_store"],
            "cache.bytes_read": counts["cache.bytes_read"],
            "cache.bytes_written": counts["cache.bytes_written"],
            "cache.rejected": counts["cache.load_store.raised"],
            "table.build_rows.self_s": own["table.build_rows"],
            "table.render.s": total["table.render"],
            "schubert.seed_invariants.s": total["schubert.seed_invariants"],
            "schubert.classical_check.s": total["schubert.classical_check"],
            "cli.main.self_s": own["cli.main"],
            "unattributed_s": wall_s - roots,
        }
        return out

    def span_calls(self) -> Counter:
        """Calls per span name, for checking that every span fires."""
        return Counter(self.names)
