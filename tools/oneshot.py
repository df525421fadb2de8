"""Time whole one-shot ``gw24`` processes: what a user pays per call.

    python tools/oneshot.py [--tree NAME=SRC ...] [--runs N] [--out FILE]

Each case is one fresh interpreter, timed from start to exit:

* ``python -c pass``, the bare interpreter;
* ``import gw24.cli``;
* ``gw24 invariant 13 0 0 0 3`` with no cache (it solves degrees 1-3) and
  on a degree<=9 cache;
* ``gw24 table --with-nd --format json`` on that cache.

``gw24`` is run as the console script runs it: ``from gw24.cli import main``
and ``sys.exit(main())``, with the tree's ``src`` on ``PYTHONPATH``.  Every
case runs with bytecode not written (``PYTHONDONTWRITEBYTECODE=1``, so each
process compiles gw24 from source) and written (the variable unset, and
``PYTHONPYCACHEPREFIX`` a fresh folder that one untimed run per case fills
first, so timed runs read cached bytecode as an installed package does).
Each tree is copied to a temporary folder first, so no bytecode left in it
is read.  One ``--tree`` per source folder (default: this checkout's
``src``); with two, runs alternate between them, their order swapped every
round.  Each process must exit 0 and print what the first run of its
case printed.

``--out`` (default ``BENCH_oneshot.json``) gets, per tree, bytecode mode
and case, the median and quartiles of wall and CPU time in ms over
``--runs`` runs (default 15).  Standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GW24 = "import sys; from gw24.cli import main; sys.exit(main())"
KEY = ("invariant", "13", "0", "0", "0", "3")
TABLE = ("table", "--with-nd", "--format", "json")
CASES = (
    ("python -c pass", ("pass",), False),
    ("import gw24.cli", ("import gw24.cli",), False),
    ("gw24 invariant 13 0 0 0 3", (GW24, *KEY), False),
    ("gw24 invariant 13 0 0 0 3 --cache-path d9", (GW24, *KEY), True),
    ("gw24 table --with-nd --format json --cache-path d9", (GW24, *TABLE),
     True),
)
MODES = ("bytecode not written", "bytecode written")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "gw24").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Tree:
    """One copy of a source folder, with its cache and bytecode folders."""

    def __init__(self, name: str, src: Path, work: Path):
        self.name, self.digest = name, _src_digest(src)
        self.src = work / name / "src"
        shutil.copytree(src / "gw24", self.src / "gw24",
                        ignore=shutil.ignore_patterns("__pycache__"))
        self.cache = str(work / name / "d9.gw24")
        self.pycache = str(work / name / "pycache")

    def env(self, mode: str) -> dict:
        env = dict(os.environ, PYTHONPATH=str(self.src))
        env.pop("PYTHONPYCACHEPREFIX", None)
        if mode == MODES[0]:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        else:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            env["PYTHONPYCACHEPREFIX"] = self.pycache
        return env

    def argv(self, args, cached: bool) -> list:
        return [sys.executable, "-c", *args,
                *(("--cache-path", self.cache) if cached else ())]


def run_once(argv, env) -> tuple[float, float, bytes]:
    """(wall ms, CPU ms, stdout) of one process, which must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        sys.exit(f"{argv[2:]} exited {proc.returncode}: "
                 f"{proc.stderr.decode()[-500:]}")
    cpu = (after.ru_utime - before.ru_utime
           + after.ru_stime - before.ru_stime)
    return wall * 1e3, cpu * 1e3, proc.stdout


def summary(samples) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4)
                      if len(samples) > 1 else samples * 3)
    return {"median": round(median, 2), "q1": round(q1, 2),
            "q3": round(q3, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="NAME=SRC",
                        help="a source folder to time (repeatable)")
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--out", default="BENCH_oneshot.json")
    args = parser.parse_args(argv)
    specs = [spec.partition("=") for spec in args.tree or ()]
    if not all(name and src for name, _eq, src in specs):
        parser.error("--tree takes NAME=SRC")
    specs = [(name, Path(src)) for name, _eq, src in specs] or [
        ("this", ROOT / "src")]
    with tempfile.TemporaryDirectory(prefix="gw24-oneshot-") as work:
        trees = [Tree(name, src, Path(work)) for name, src in specs]
        for tree in trees:
            run_once(tree.argv((GW24, "cache", "export", "--cache-path",
                                tree.cache), False), tree.env(MODES[0]))
            # fills the bytecode folder
            for _label, case_args, cached in CASES:
                run_once(tree.argv(case_args, cached), tree.env(MODES[1]))
        times = {}
        expected = {}
        for round_ in range(args.runs):
            order = trees if round_ % 2 == 0 else trees[::-1]
            for mode in MODES:
                for label, case_args, cached in CASES:
                    for tree in order:
                        wall, cpu, out = run_once(
                            tree.argv(case_args, cached), tree.env(mode))
                        if expected.setdefault(label, out) != out:
                            sys.exit(f"{tree.name} prints other output "
                                     f"for {label!r}")
                        walls, cpus = times.setdefault(
                            (tree.name, mode, label), ([], []))
                        walls.append(wall)
                        cpus.append(cpu)
    report = {
        "what": "wall and CPU time of whole fresh processes, in ms",
        "host": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "system": platform.system()},
        "runs": args.runs,
        "trees": {tree.name: {"src_sha256": tree.digest} for tree in trees},
        "outputs_sha256": {label: hashlib.sha256(out).hexdigest()
                           for label, out in expected.items()},
        "cases": [
            {"tree": tree, "bytecode": mode.partition(" ")[2], "case": label,
             "wall_ms": summary(walls), "cpu_ms": summary(cpus)}
            for (tree, mode, label), (walls, cpus) in times.items()
        ],
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for case in report["cases"]:
        wall = case["wall_ms"]
        print(f"{case['tree']:>8}  {case['bytecode']:<11}  "
              f"{wall['median']:8.1f} ms [{wall['q1']:.1f}-{wall['q3']:.1f}]"
              f"  {case['case']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
