"""The gw24 benchmark.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  The load is driven in-process, as a closed
loop with one client, through the package's public entry points
(``gw24.cli.main``, ``Engine``, ``save_store``); the package is imported
from ``src/`` next to this directory.  Cache files live in
``benchmarks/.work/`` and are removed on exit.

A run does a fixed amount of work, sized from ``--seconds`` by the
workload's nominal batch time, so that for one seed ``attempted`` and
``failed`` repeat exactly.  Request and set-up times are CPU time of the
benchmark's thread, which runs all of gw24's work, scaled to a reference
CPU speed (see ``Calibration``); measured CPU and wall times are printed
beside them.

Every output is checked against the benchmark's own expectations.  Lines
before the last describe the environment, the workload and every metric;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and traced
passes over the same batch and reports the per-layer metrics of
``spans.py`` plus the tracing overhead.  See ``benchmarks/README.md``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Callable, NamedTuple

_START = perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Q_1..Q_9 as published in PAPER.md.  The gates read this copy, never
# gw24.table.GOLDEN_Q, so a program change cannot move its own gate.
Q = {
    1: 0,
    2: 2,
    3: 504,
    4: 1044120,
    5: 5335687360,
    6: 67992124121040,
    7: 1743784747544391896,
    8: 82475300124495938244352,
    9: 6608238869716397977928547520,
}
VERIFY_MAX_DEGREE = 7
VERIFY_RELATIONS = 58222  # relations of degrees 1..7, each checked once
CACHE_MAX_DEGREE = 9
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
MIN_BATCHES = 3

# cache-warm batch: 20 requests, shuffled per batch.
WARM_TABLES = 8
WARM_INVARIANTS = 8
WARM_EXPORTS = 2
INVALID_KEY_SHARE = 0.25

END_TO_END = (
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Calibration: the reference loop, timed every period of CPU time.
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_NOMINAL_S = 0.001

OK, ACCEPTED_TAMPER, WRONG = "ok", "accepted-tamper", "wrong"


class SetupError(Exception):
    """The workload's own input failed its gate; nothing can be measured."""


class Request(NamedTuple):
    kind: str
    argv: list
    # check(exit code, stdout) -> (OK | ACCEPTED_TAMPER | WRONG, detail)
    check: Callable


# -- gates -------------------------------------------------------------------

def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def check_table(code, out):
    payload = _json(out)
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if code != 0 or not isinstance(rows, list):
        return WRONG, f"table: exit {code}, output {out[:200]!r}"
    got = [
        (r.get("d"), r.get("q_d"), r.get("n_points"), r.get("n_d"),
         r.get("caveat"))
        for r in rows
    ]
    want = [
        (d, str(q), 4 * d + 1, str(d**3 * q), d < 3) for d, q in Q.items()
    ]
    if got != want:
        return WRONG, f"table rows differ from Q_1..Q_9: {got}"
    return OK, ""


def check_verify(code, out):
    payload = _json(out)
    if code != 0 or not isinstance(payload, dict):
        return WRONG, f"verify: exit {code}, output {out[:200]!r}"
    checks = {c.get("check"): c for c in payload.get("checks", [])}
    relations = checks.get("wdvv-relations", {})
    golden = checks.get("golden-table", {})
    if (payload.get("ok") is not True
            or not all(c.get("ok") is True for c in checks.values())
            or relations.get("equations_checked") != VERIFY_RELATIONS
            or golden.get("matched_rows") != VERIFY_MAX_DEGREE):
        return WRONG, f"verify report: {json.dumps(payload)[:400]}"
    return OK, ""


def check_invariant(key, value, valid):
    def check(code, out):
        payload = _json(out)
        want = dict(zip(("alpha", "beta", "gamma", "delta", "degree"), key),
                    value=str(value), dimension_valid=valid)
        if code != 0 or payload != want:
            return WRONG, f"invariant {key}: exit {code}, got {out!r}"
        return OK, ""
    return check


def check_export(path, reference):
    def check(code, out):
        with open(path, "rb") as handle:
            written = handle.read()
        if code != 0 or written != reference:
            return WRONG, (f"export: exit {code}, file "
                           f"{'identical' if written == reference else 'differs'}")
        return OK, ""
    return check


def check_import(redigested: bool):
    def check(code, out):
        if code == 2 and not out:
            return OK, ""
        if redigested and code == 0 and out.startswith("cache accepted"):
            return ACCEPTED_TAMPER, "re-digested tampered cache accepted"
        kind = "re-digested" if redigested else "stale-digest"
        return WRONG, f"{kind} tamper probe: exit {code}, output {out!r}"
    return check


# -- workloads ---------------------------------------------------------------

def solved_engine(max_degree: int):
    """A fresh engine solved through ``max_degree``, gated on Q_d."""
    from gw24 import Engine

    engine = Engine()
    engine.solve_up_to(max_degree)
    for d in range(1, max_degree + 1):
        if engine.q_number(d) != Q[d]:
            raise SetupError(f"setup solve gives Q_{d} = {engine.q_number(d)}, "
                             f"published {Q[d]}")
    return engine


def content_digest(rows: list) -> str:
    """The cache format's row digest (sha256 of the newline-joined rows)."""
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class SolveCold:
    """``gw24 table --with-nd --format json`` with no cache: d=1..9 solved
    by a fresh engine on every request."""

    # Nominal CPU time of one batch on a 2-core Xeon; it sizes a run.
    batch_s = 4.2

    def __init__(self, work_dir: str, seed: int):
        pass

    def prepare(self) -> None:
        pass

    def batch(self, k: int) -> list:
        return [Request("table", ["table", "--with-nd", "--format", "json"],
                        check_table)]


class VerifyExhaustive:
    """Exhaustive ``gw24 verify`` of degrees 1..7, one worker, from a cache
    built in set-up."""

    batch_s = 10.0

    def __init__(self, work_dir: str, seed: int):
        self.cache = os.path.join(work_dir, "counts-d7.gw24")

    def prepare(self) -> None:
        from gw24 import __version__, save_store

        engine = solved_engine(VERIFY_MAX_DEGREE)
        save_store(engine.store, self.cache, engine.seed_set, __version__)

    def batch(self, k: int) -> list:
        return [Request(
            "verify",
            ["verify", "--max-degree", str(VERIFY_MAX_DEGREE), "--exhaustive",
             "--workers", "1", "--format", "json", "--cache-path", self.cache],
            check_verify)]


class CacheWarm:
    """Seeded warm-cache CLI requests against a d<=9 cache file.

    Each batch holds 8 ``table``, 8 ``invariant`` on seeded keys (a quarter
    dimension-invalid), 2 ``cache export`` over an existing file and 2
    ``cache import`` of seeded tampered copies, one with a stale digest and
    one re-digested, in a seeded order.
    """

    batch_s = 1.0

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.cache = os.path.join(work_dir, "counts-d9.gw24")
        self.export = os.path.join(work_dir, "export-d9.gw24")
        self.probes = {
            redigested: os.path.join(
                work_dir, f"probe-{'redigested' if redigested else 'stale'}.gw24")
            for redigested in (False, True)
        }

    def prepare(self) -> None:
        from gw24 import __version__, save_store

        engine = solved_engine(CACHE_MAX_DEGREE)
        save_store(engine.store, self.cache, engine.seed_set, __version__)
        shutil.copyfile(self.cache, self.export)
        with open(self.cache, "rb") as handle:
            self.reference = handle.read()
        lines = self.reference.decode().splitlines()
        self.header = json.loads(lines[0])
        self.rows = lines[1:]
        if content_digest(self.rows) != self.header["content_digest"]:
            raise SetupError("cache row digest no longer matches the format "
                             "the tamper probes re-digest with")
        self.store = engine.store

    def _key(self, rng: random.Random):
        """A seeded key of degree 1..9; invalid ones are a valid key with
        one entry raised by 1, which breaks the dimension condition."""
        degree = rng.randint(1, CACHE_MAX_DEGREE)
        w = 4 * degree + 1
        valid = [(a, b, g, (w - a - b - 2 * g) // 3)
                 for a in range(w + 1) for b in range(w + 1 - a)
                 for g in range((w - a - b) // 2 + 1)
                 if (w - a - b - 2 * g) % 3 == 0]
        key = list(rng.choice(valid))
        if rng.random() < INVALID_KEY_SHARE:
            key[rng.randrange(4)] += 1
        return (*key, degree)

    def _write_probe(self, rng: random.Random, redigested: bool) -> None:
        """One row's value moved by 1; the digest is recomputed or left."""
        rows = list(self.rows)
        i = rng.randrange(len(rows))
        fields = rows[i].split()
        value = int(fields[5])
        # A count is nonnegative, so a 0 row can only move up; a -1 would
        # be refused by the row-format check, not by the value check.
        value += 1 if value == 0 else rng.choice((-1, 1))
        rows[i] = " ".join(fields[:5] + [str(value)])
        header = dict(self.header)
        if redigested:
            header["content_digest"] = content_digest(rows)
        with open(self.probes[redigested], "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n"
                         + "\n".join(rows) + "\n")

    def batch(self, k: int) -> list:
        """Batch ``k``; the probe files are written when it is built, so
        build a batch only just before serving it."""
        from gw24 import InvariantKey

        rng = random.Random(self.seed * 1_000_003 + k)
        requests = [Request("table", ["table", "--with-nd", "--format", "json",
                                      "--cache-path", self.cache], check_table)
                    ] * WARM_TABLES
        keys = [self._key(rng) for _ in range(WARM_INVARIANTS)]
        if k == 0:
            keys[0] = (13, 0, 0, 0, 3)
        for key in keys:
            value = self.store.value(InvariantKey(*key))
            a, b, g, e, degree = key
            valid = a + b + 2 * g + 3 * e == 4 * degree + 1
            requests.append(Request(
                "invariant",
                ["invariant", *map(str, key), "--format", "json",
                 "--cache-path", self.cache],
                check_invariant(key, value, valid)))
        requests += [Request("export",
                             ["cache", "export", "--cache-path", self.export,
                              "--max-degree", str(CACHE_MAX_DEGREE)],
                             check_export(self.export, self.reference))
                     ] * WARM_EXPORTS
        for redigested in (False, True):
            self._write_probe(rng, redigested)
            requests.append(Request(
                "import-redigested" if redigested else "import-stale",
                ["cache", "import", "--cache-path", self.probes[redigested]],
                check_import(redigested)))
        rng.shuffle(requests)
        return requests


WORKLOADS = {
    "solve-cold": SolveCold,
    "verify-exhaustive": VerifyExhaustive,
    "cache-warm": CacheWarm,
}


def make_workload(name: str, work_dir: str, seed: int):
    return WORKLOADS[name](work_dir, seed)


def batch_count(workload, seconds: int) -> int:
    """Batches in a run: ``seconds`` of nominal work, at least
    ``MIN_BATCHES``.  The count depends on nothing measured, so a run of one
    seed attempts the same requests every time."""
    return max(MIN_BATCHES, round(seconds / workload.batch_s))


# -- driving -----------------------------------------------------------------

_REFERENCE_INTS = [3**k * (7**(k // 2) + 1) for k in range(40, 100)]


def reference_loop() -> int:
    """Fixed work of the kinds gw24 does, small-integer and big-integer
    arithmetic into dicts keyed by ints and tuples; about 1 ms.  It never
    changes with the program."""
    total = 0
    table = {}
    for i in range(6000):
        total += i * i
        table[i & 255] = total
    ints = _REFERENCE_INTS
    for r in range(6):
        for i, x in enumerate(ints):
            total += x * ints[-1 - i] // (i + 1)
            key = (i & 7, r, i % 5)
            table[key] = table.get(key, 0) + total
    return total


class Calibration:
    """Times ``reference_loop`` just before and just after each timed
    interval, and after every ``CALIBRATION_PERIOD_S`` of this process's
    CPU time from a SIGPROF handler, while the run sets up and measures.
    Times are read from the thread's CPU clock: while a profiling timer is
    armed, Linux samples the process clock only at scheduler ticks.

    A shared host's CPU speed switches by a third or more every few seconds,
    and the switch slows the loop and gw24 alike.  The handler runs between
    the program's own bytecodes, so each sample is the speed that the CPU
    time around it met.  ``scale`` turns an interval's CPU time, less the
    handler's, into CPU time at the reference speed, at which the loop
    takes ``CALIBRATION_NOMINAL_S``: the factor is the mean speed of the
    samples from ``start`` to the end of the interval, the mean of
    nominal / sample.  The two bracketing samples give a 50 ms request
    the speed of its own moment.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        # A signal that lands inside a sample would double its time.
        if self._busy:
            return
        self._busy = True
        try:
            start = thread_time()
            reference_loop()
            sample = thread_time() - start
        finally:
            self._busy = False
        self.samples.append(sample)
        self.spent += sample

    def start(self) -> tuple[int, float]:
        """Sample, then mark the start of a timed interval."""
        self._tick()
        return len(self.samples) - 1, self.spent

    def scale(self, mark: tuple[int, float], cpu: float) -> float:
        """Sample, then scale the ``cpu`` seconds timed since ``mark``."""
        first, spent = mark
        handler = self.spent - spent
        self._tick()
        return ((cpu - handler) * statistics.fmean(
            CALIBRATION_NOMINAL_S / t for t in self.samples[first:]))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


class Uncalibrated:
    """The traced runs' calibration: none.  A handler there would add its
    time to whichever span is open."""

    samples = ()

    def start(self):
        return None

    def scale(self, mark, cpu: float) -> float:
        return cpu

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class Tally:
    """Outcomes and times of every request made.  Each request is timed in
    CPU time, scaled by ``calibration`` (the latency metrics), and in
    measured CPU and wall time."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.scaled: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.by_kind: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.accepted_tamper = 0
        self.wrong: list[str] = []

    def run_batch(self, requests: list) -> tuple[float, float]:
        """Serve the batch; returns its (scaled CPU, wall) seconds."""
        import gw24.cli

        gc.collect()
        batch_scaled = batch_wall = 0.0
        for req in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                mark = self.calibration.start()
                wall, cpu = perf_counter(), thread_time()
                try:
                    code = gw24.cli.main(list(req.argv))
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
                cpu, wall = thread_time() - cpu, perf_counter() - wall
            scaled = self.calibration.scale(mark, cpu)
            self.scaled.append(scaled)
            self.cpu.append(cpu)
            self.wall.append(wall)
            self.by_kind[req.kind].append(scaled)
            batch_scaled += scaled
            batch_wall += wall
            self.attempted += 1
            status, detail = req.check(code, out.getvalue())
            if status != OK:
                self.failed += 1
            if status == ACCEPTED_TAMPER:
                self.accepted_tamper += 1
            elif status == WRONG:
                self.wrong.append(f"{detail} {err.getvalue()[-400:]}".strip())
        return batch_scaled, batch_wall


def set_up(workload) -> float:
    """One set-up: import gw24 afresh, derive the seeds, prime the
    equation families and build the workload's inputs.  Returns its CPU
    seconds."""
    start = thread_time()
    for name in [n for n in sys.modules if n == "gw24" or n.startswith("gw24.")]:
        del sys.modules[name]
    from gw24 import equation_families, seed_invariants

    seed_invariants()
    equation_families()
    workload.prepare()
    return thread_time() - start


def set_up_repeatedly(workload, calibration) -> tuple[list, list]:
    """Set-up times, measured CPU and scaled: at least ``SETUP_REPEATS``,
    and more until they add up to ``SETUP_MIN_SECONDS``, so cheap set-ups
    get a steadier median."""
    measured, scaled = [], []
    while len(measured) < SETUP_REPEATS or sum(measured) < SETUP_MIN_SECONDS:
        mark = calibration.start()
        measured.append(set_up(workload))
        scaled.append(calibration.scale(mark, measured[-1]))
    return measured, scaled


def measure(workload, tally: Tally, batches: int) -> list:
    """Closed loop, one client: ``batches`` batches back to back.  Returns
    each batch's (scaled CPU, wall) seconds."""
    return [tally.run_batch(workload.batch(k)) for k in range(batches)]


def measure_traced(workload, tally: Tally, pairs: int):
    """``pairs`` untraced and traced passes over batch 0, alternating.
    Returns (untraced walls, traced walls, per-layer summaries)."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    for _ in range(pairs):
        plain.append(tally.run_batch(workload.batch(0))[1])
        tracer.reset()
        tracer.install()
        try:
            wall = tally.run_batch(workload.batch(0))[1]
        finally:
            tracer.uninstall()
        traced.append(wall)
        layers.append(tracer.summary(wall))
    return plain, traced, layers


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as handle:
                    commit = handle.read().strip()
    digest = hashlib.sha256()
    package = os.path.join(SRC, "gw24")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="The gw24 benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own, with their
    output passed through; the last line sums them, and each metric is
    named ``<workload>.<metric>``."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "gw24", "__init__.py")):
        print(f"benchmark: no gw24 sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gw24

    if not os.path.abspath(gw24.__file__).startswith(SRC + os.sep):
        print(f"benchmark: imported gw24 from {gw24.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = make_workload(args.workload, work_dir, args.seed)
        calibration = Uncalibrated() if args.trace else Calibration()
        with calibration:
            try:
                setups, scaled_setups = set_up_repeatedly(workload, calibration)
            except SetupError as exc:
                print(f"benchmark: set-up gate failed: {exc}", file=sys.stderr)
                return 3
            to_first_request = perf_counter() - _START
            tally = Tally(calibration)
            batches = batch_count(workload, args.seconds)
            if args.trace:
                plain, traced, layers = measure_traced(
                    workload, tally, max(1, batches // 2))
            else:
                walls = measure(workload, tally, batches)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{' '.join((workload.__doc__ or '').split())}")
    print(f"loop: closed, 1 client; {len(setups)} set-ups; "
          f"{to_first_request:.4f} s wall from start to the first request")
    for detail in tally.wrong[:10]:
        print(f"WRONG OUTPUT: {detail}")

    error_ratio = tally.failed / tally.attempted
    if args.trace:
        from spans import PER_LAYER

        names = [(n, u) for n, u, _ in PER_LAYER + TRACE_METRICS]
        metrics = {n: statistics.median(layer[n] for layer in layers)
                   for n, _, _ in PER_LAYER}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}, "
              f"untraced wall {statistics.median(plain):.4f} s")
    else:
        names = list(END_TO_END)
        per_batch = len(tally.scaled) // len(walls)
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "request_p50_ms": statistics.median(tally.scaled) * 1000,
            "request_p90_ms": percentile(tally.scaled, 90) * 1000,
            "requests_per_s": statistics.median(
                per_batch / scaled for scaled, _ in walls),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - error_ratio,
        }
        print(f"samples: {len(walls)} batches, {len(tally.scaled)} requests, "
              f"{len(calibration.samples)} calibration loops (median "
              f"{statistics.median(calibration.samples) * 1000:.4f} ms)")
        for label, times in (("measured CPU", tally.cpu),
                             ("measured wall", tally.wall)):
            print(f"  {label}, not bounded: request_p50_ms "
                  f"{statistics.median(times) * 1000:.4f}, request_p90_ms "
                  f"{percentile(times, 90) * 1000:.4f}")
        print(f"  measured CPU setup_s {statistics.median(setups):.6f}")
        for kind, times in sorted(tally.by_kind.items()):
            print(f"  scaled p50 {kind:17s} {statistics.median(times) * 1000:12.4f}"
                  f" ms over {len(times)}")
    for name, unit in names:
        print(f"  {name:32s} {metrics[name]:>16.6f} {unit}")
    print(f"  {'error_ratio':32s} {error_ratio:>16.6f} ratio "
          f"({tally.failed} of {tally.attempted}; "
          f"{tally.accepted_tamper} accepted re-digested tamper probes)")

    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
