"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The full solve through degree 9 and the exhaustive relation check
at degree 9 both run here; expect a couple of minutes total.  A last test
pins degree 10, beyond the golden range.
"""

import hashlib
import json
import random
import time

import pytest
import sympy as sp

from gw24 import __version__
from gw24.cache import load_store, save_store
from gw24.cohomology import Basis, triple
from gw24.engine import Engine, InvariantStore
from gw24.keys import InvariantKey, valid_tuples
from gw24.schubert import PARTITION_OF_CLASS, classical_triple_oracle
from gw24.table import GOLDEN_Q
from gw24.verify import degrees_failing_at_a_point, verify_store

SOLVE_BUDGET_SECONDS = 300


@pytest.fixture(scope="module")
def solved():
    eng = Engine()
    start = time.monotonic()
    eng.solve_up_to(9)
    return eng, time.monotonic() - start


def test_criterion_1_golden_table(solved):
    engine, elapsed = solved
    for d, expected in GOLDEN_Q.items():
        got = engine.q_number(d)
        assert got == expected, f"degree {d}: {got} != {expected}"
    assert elapsed < SOLVE_BUDGET_SECONDS, f"solve took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: golden table d=1..9 exact "
          f"(full solve in {elapsed:.1f}s)")


def test_criterion_2_ruled_cubics(solved):
    engine, _ = solved
    assert engine.invariant(13, 0, 0, 0, 3) == 504
    print("\nACCEPTANCE 2 PASS: 504 rational ruled cubics through 13 points")


def test_criterion_3_divisor_identity(solved):
    engine, _ = solved
    for d in range(1, 10):
        nd = engine.ruled_surface_degree(d)
        assert nd.value == d**3 * engine.q_number(d)
        assert nd.caveat == (d < 3)
    print("\nACCEPTANCE 3 PASS: N_d = d^3 Q_d exactly for d=1..9")


def test_criterion_4_classical_ring_oracle():
    y0, y1, ya, yb, y3v, y4v = sp.symbols("y0 y1 ya yb y3 y4")
    cubic = (
        y0 * (y4v * y0 + ya**2 + yb**2) / 2
        + y1**2 * (ya + yb) / 2
        + y0 * y1 * y3v
    )
    vars_of = (y0, y1, ya, yb, y3v, y4v)
    for i in Basis:
        for j in Basis:
            for k in Basis:
                oracle = classical_triple_oracle(
                    PARTITION_OF_CLASS[i],
                    PARTITION_OF_CLASS[j],
                    PARTITION_OF_CLASS[k],
                )
                partial = sp.diff(cubic, vars_of[i], vars_of[j], vars_of[k])
                assert triple(i, j, k) == oracle == int(partial)
    print("\nACCEPTANCE 4 PASS: tensor = Pieri oracle = cubic third partials "
          "on all 216 triples")


def test_criterion_5_overdetermination_and_mutation(solved):
    engine, _ = solved
    report = engine.verify_wdvv(9, exhaustive=True, workers=2)
    assert report.ok, report.violations[:3]
    assert report.equations_checked > 0

    base = {d: dict(engine.store.canonical_table(d)) for d in range(1, 4)}
    trials = 0
    for key, value in sorted(base[3].items()):
        for delta in (1, -1):
            if value + delta < 0:
                continue
            tables = {d: dict(base[d]) for d in base}
            tables[3][key] = value + delta
            mutated = InvariantStore()
            for d in sorted(tables):
                mutated.commit_degree(d, tables[d])
            assert not verify_store(mutated, 3).ok, (key, delta)
            trials += 1
    print(f"\nACCEPTANCE 5 PASS: {report.equations_checked} relations hold "
          f"at d<=9; all {trials} single-value d=3 mutations detected")


def test_point_check_flags_only_wrong_degrees(solved):
    """The random-point check through d=9: nothing on the solved tables,
    and a raised value at the degree it sits in and every degree above,
    whose constants read it."""
    engine, _ = solved
    raw = engine.store.raw_tables()
    assert degrees_failing_at_a_point(raw, 9) == set()
    for (a, b, g, e, d), flagged in (((37, 0, 0, 0, 9), {9}),
                                     ((21, 0, 0, 0, 5), {5, 6, 7, 8, 9})):
        tables = {k: dict(table) for k, table in raw.items()}
        for key in ((a, b, g, e), (b, a, g, e)):
            tables[d][key] += 1
        assert degrees_failing_at_a_point(tables, 9) == flagged
    print("\nPASS: the random-point check flags no degree of the d<=9 "
          "tables, and exactly the mutated degree and those above")


def test_criterion_6_symmetry_sampling(solved):
    engine, _ = solved
    rng = random.Random(601)
    for d in range(1, 6):
        keys = valid_tuples(d)
        for a, b, g, e in rng.choices(keys, k=200):
            assert engine.invariant(a, b, g, e, d) == engine.invariant(
                b, a, g, e, d
            )
    print("\nACCEPTANCE 6 PASS: symmetry on 200 sampled valid keys per "
          "degree d<=5")


def test_criterion_7_dimension_axiom_sampling(solved):
    engine, _ = solved
    rng = random.Random(701)
    checked = 0
    while checked < 500:
        key = InvariantKey(
            rng.randrange(0, 40), rng.randrange(0, 40),
            rng.randrange(0, 20), rng.randrange(0, 13),
            rng.randrange(1, 10),
        )
        if key.weight == 4 * key.degree + 1:
            continue
        assert engine.invariant(*key) == 0
        checked += 1
    print("\nACCEPTANCE 7 PASS: 500 sampled dimension-invalid keys all 0")


def test_criterion_8_determinism_and_persistence(solved, tmp_path):
    engine, _ = solved
    second = Engine()
    second.solve_up_to(9)
    first_path = tmp_path / "run1.gw24"
    second_path = tmp_path / "run2.gw24"
    save_store(engine.store, str(first_path), engine.seed_set, __version__)
    save_store(second.store, str(second_path), second.seed_set, __version__)
    assert first_path.read_bytes() == second_path.read_bytes()
    # the rows themselves are pinned: a changed value or row format moves
    # the header's row digest
    header = json.loads(first_path.read_text().split("\n", 1)[0])
    assert header["content_digest"] == (
        "c083bdc668af80ae382be7a94195526af1d43331af20274f71857ea66471101a"
    )

    loaded = load_store(str(first_path), engine.seed_set)  # sample-verified
    for d in range(1, 10):
        assert loaded.canonical_table(d) == engine.store.canonical_table(d)
    assert verify_store(loaded, 4, exhaustive=True).ok
    print("\nACCEPTANCE 8 PASS: byte-identical caches across runs; "
          "save/load/verify round-trip")


def test_propagation_alone_solves_degree_10():
    """Degree 10 (reachable with --allow-high-degree) solves by unit
    propagation alone, to the same table a solver with a rational
    elimination fallback produced without ever entering that fallback."""
    beyond = Engine()
    beyond.solve_up_to(9)
    table = beyond.solve_degree(10)  # UnderdeterminedSystemError if not
    assert len(table) == 1260
    assert beyond.q_number(10) == 845184128780692726541212424520960
    digest = hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest()
    assert digest == (
        "5df3fed31c9189bb52ffc9fa84ce7b2126f053dee027f393aa151518ebb21b57"
    )
    print("\nPASS: degree 10 pinned by propagation alone "
          f"(Q_10 = {beyond.q_number(10)})")
