import multiprocessing
import random
import threading
from collections import Counter

import pytest

from gw24.engine import (
    Engine,
    InconsistencyError,
    InvariantStore,
    MissingValueError,
    UnderdeterminedSystemError,
    verify_store,
)
from gw24.keys import (
    InvariantKey,
    SeedSet,
    canonical_tuples,
    tuples_of_weight,
    valid_tuples,
)
from gw24.schubert import seed_invariants
from gw24.wdvv import (
    DUAL,
    PsiCalculator,
    build_equation,
    dual_pair,
    equation_families,
)


@pytest.fixture(scope="module")
def engine4():
    eng = Engine()
    eng.solve_up_to(4)
    return eng


def test_degree1_full_table(engine4):
    # the complete degree-1 table, from elementary pencil incidence counts
    expected = {
        (5, 0, 0, 0): 0,
        (4, 1, 0, 0): 0,
        (3, 2, 0, 0): 1,
        (3, 0, 1, 0): 0,
        (2, 1, 1, 0): 1,
        (1, 0, 2, 0): 1,
        (2, 0, 0, 1): 0,
        (1, 1, 0, 1): 1,
        (0, 0, 1, 1): 1,
    }
    assert engine4.store.canonical_table(1) == expected


def test_low_degree_point_counts(engine4):
    assert engine4.q_number(1) == 0
    assert engine4.q_number(2) == 2
    assert engine4.q_number(3) == 504
    assert engine4.q_number(4) == 1044120


def test_invariant_examples(engine4):
    assert engine4.invariant(9, 0, 0, 0, 2) == 2
    assert engine4.invariant(2, 0, 0, 0, 1) == 0  # dimension-invalid
    assert engine4.invariant(13, 0, 0, 0, 3) == 504
    assert engine4.invariant(0, 13, 0, 0, 3) == 504


def test_point_class_triple_self_product(engine4):
    # two-point degree-2 count of the point class with itself, forced by
    # quantum associativity: sigma_(2,2) * sigma_(2,2) = q^2
    assert engine4.invariant(0, 0, 0, 3, 2) == 1


def test_invariant_rejects_negative_entries(engine4):
    with pytest.raises(ValueError):
        engine4.invariant(-1, 0, 0, 0, 1)


def test_ruled_surface_degree(engine4):
    assert engine4.ruled_surface_degree(3) == (13608, False)
    assert engine4.ruled_surface_degree(4) == (66823680, False)
    assert engine4.ruled_surface_degree(1) == (0, True)
    assert engine4.ruled_surface_degree(2).caveat is True
    with pytest.raises(ValueError):
        engine4.ruled_surface_degree(0)


def test_q_number_rejects_degree_zero(engine4):
    with pytest.raises(ValueError):
        engine4.q_number(0)


def test_symmetry_by_sampling(engine4):
    rng = random.Random(11)
    for degree in (1, 2, 3, 4):
        keys = valid_tuples(degree)
        for a, b, g, e in rng.sample(keys, min(30, len(keys))):
            assert engine4.invariant(a, b, g, e, degree) == engine4.invariant(
                b, a, g, e, degree
            )


def test_dimension_axiom_by_sampling(engine4):
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        key = InvariantKey(
            rng.randrange(0, 14), rng.randrange(0, 14),
            rng.randrange(0, 7), rng.randrange(0, 5), rng.randrange(1, 4),
        )
        if key.weight == 4 * key.degree + 1:
            continue
        assert engine4.invariant(*key) == 0
        checked += 1


def test_determinism_two_runs():
    a, b = Engine(), Engine()
    a.solve_up_to(3)
    b.solve_up_to(3)
    for d in (1, 2, 3):
        assert a.store.canonical_table(d) == b.store.canonical_table(d)


def test_solve_requires_lower_degrees():
    eng = Engine()
    with pytest.raises(MissingValueError):
        eng.solve_degree(3)


def test_store_commit_discipline():
    store = InvariantStore()
    with pytest.raises(Exception):
        store.commit_degree(2, {})
    with pytest.raises(MissingValueError):
        store.canonical_table(1)


def test_store_copy_is_deep(engine4):
    dup = engine4.store.copy()
    assert dup.degrees() == engine4.store.degrees()[: len(dup.degrees())]
    for d in dup.degrees():
        assert dup.canonical_table(d) == engine4.store.canonical_table(d)
        assert dup.canonical_table(d) is not engine4.store.canonical_table(d)


def test_store_returns_copies_of_its_tables():
    # a caller mutating a returned canonical table cannot reach the store
    eng = Engine()
    eng.solve_up_to(1)
    returned = eng.solve_degree(2)
    assert returned == eng.store.canonical_table(2)
    returned[(9, 0, 0, 0)] = 99
    eng.store.canonical_table(2)[(9, 0, 0, 0)] = 98
    assert eng.store.value(InvariantKey(9, 0, 0, 0, 2)) == 2
    assert eng.store.raw_table(2)[(9, 0, 0, 0)] == 2
    assert eng.q_number(2) == 2


def test_store_table_has_both_orientations(engine4):
    for d in engine4.store.degrees():
        raw = engine4.store.raw_table(d)
        assert set(raw) == set(valid_tuples(d))
        for (a, b, g, e), v in raw.items():
            assert raw[(b, a, g, e)] == v
            assert engine4.store.value(InvariantKey(a, b, g, e, d)) == v
        canonical = engine4.store.canonical_table(d)
        assert list(canonical) == canonical_tuples(d)
        assert canonical == {t: raw[t] for t in canonical_tuples(d)}


def test_store_rejects_negative_or_fractional():
    from gw24.engine import EngineError

    store = InvariantStore()
    good = {t: 0 for t in canonical_tuples(1)}
    bad = dict(good)
    bad[(5, 0, 0, 0)] = -1
    with pytest.raises(EngineError):
        store.commit_degree(1, bad)


def test_seed_redundancy_each_seed_removable():
    # unit propagation alone re-derives the full degree-1 table with any
    # single seed entry dropped
    reference = Engine()
    reference.solve_degree(1)
    expected = reference.store.canonical_table(1)
    full = seed_invariants()
    for removed in sorted(full.entries):
        entries = {k: v for k, v in full.entries.items() if k != removed}
        eng = Engine(seed_set=SeedSet(entries=entries, provenance_note="test"))
        eng.solve_degree(1)
        assert eng.store.canonical_table(1) == expected, removed


def test_no_seeds_fails_loudly():
    eng = Engine(seed_set=SeedSet(entries={}, provenance_note="empty"))
    with pytest.raises(UnderdeterminedSystemError) as info:
        eng.solve_degree(1)
    assert len(info.value.unsolved) == 8


def test_concurrent_lazy_solve():
    # two threads racing to solve the same missing degrees on one engine
    eng = Engine()
    results, errors = [], []

    def query():
        try:
            results.append(eng.q_number(6))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=query) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert results == [67992124121040, 67992124121040]
    assert eng.store.degrees() == [1, 2, 3, 4, 5, 6]


def test_bad_unit_fails_at_the_forcing_relation(engine4):
    # N(3,1,0,3;3) = 9 set to 0 makes a degree-4 unit relation force
    # N(4,1,0,4;4) = -44; the error names that relation and that key
    store = InvariantStore()
    for d in (1, 2):
        store.commit_degree(d, dict(engine4.store.canonical_table(d)))
    table = dict(engine4.store.canonical_table(3))
    assert table[(3, 1, 0, 3)] == 9
    table[(3, 1, 0, 3)] = 0
    store.commit_degree(3, table)
    eng = Engine()
    eng.store = store
    with pytest.raises(InconsistencyError) as info:
        eng.solve_degree(4)
    exc = info.value
    assert exc.degree == 4
    assert "key (4, 1, 0, 4) forced to -44" in str(exc)
    (family,) = [f for f in equation_families() if f.quadruple == exc.quadruple]
    assert exc.target in tuples_of_weight(family.target_weight(4))
    eq = build_equation(family, exc.target, 4, PsiCalculator(store.raw_tables()))
    assert (4, 1, 0, 4) in dict(eq.terms)
    assert store.max_degree == 3


def test_verify_wdvv_degree_zero_is_empty(engine4):
    report = engine4.verify_wdvv(0)
    assert report.ok
    assert report.equations_checked == 0


def test_verify_wdvv_low_degrees(engine4):
    report = engine4.verify_wdvv(3)
    assert report.ok
    assert report.equations_checked == 1981  # regression value


def test_quantum_pieri_matches_solved_divisor_reductions(engine4):
    # the q-coefficients of the Pieri table are divisor-reduced two-point
    # counts; compare them against the solved store rather than the seeds
    from gw24.cohomology import Basis
    from gw24.keys import reduce_divisor
    from gw24.schubert import quantum_pieri

    factor, key = reduce_divisor(1, InvariantKey(0, 0, 1, 1, 1))
    stored = factor * engine4.store.value(key)
    top = quantum_pieri((2, 1))
    assert top.q_part.coefficient(Basis.T0) == stored
    point = quantum_pieri((2, 2))
    assert point.q_part.coefficient(Basis.T1) == stored


def test_verify_lean_policy(engine4):
    report = engine4.verify_wdvv(3, exhaustive=False)
    assert report.ok
    # degree 1 replays its 24 relations; degrees 2 and 3 count the
    # relations their re-solve assembled (regression value)
    assert report.equations_checked == 343


def test_verify_lean_policy_detects_mutation(engine4):
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3)}
    tables[2][(9, 0, 0, 0)] = 3
    store = InvariantStore()
    for d in (1, 2, 3):
        store.commit_degree(d, tables[d])
    report = verify_store(store, 3, exhaustive=False)
    assert not report.ok
    # degree 2 is flagged by its own relations, and degree 3 because it is
    # re-derived from the stored, mutated degree 2 (regression values)
    assert report.equations_checked == 2083
    assert Counter(v.degree for v in report.violations) == {2: 2, 3: 114}


def test_verify_exhaustive_matches_per_equation_replay(engine4):
    # the aggregated residual check equals brute-force per-equation checks
    exhaustive = verify_store(engine4.store, 2, exhaustive=True)
    assert exhaustive.ok
    raw = {d: engine4.store.raw_table(d) for d in (1, 2)}
    count = 0
    for degree in (1, 2):
        for eq in engine4.generate_equations(degree):
            assert eq.residual(raw[degree]) == 0
            count += 1
    assert exhaustive.equations_checked == count


def test_mutation_is_detected(engine4):
    base = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3)}
    for key in ((13, 0, 0, 0), (7, 4, 1, 0), (3, 2, 1, 2)):
        for delta in (1, -1):
            tables = {d: dict(base[d]) for d in base}
            if tables[3][key] + delta < 0:
                continue
            tables[3][key] += delta
            store = InvariantStore()
            for d in (1, 2, 3):
                store.commit_degree(d, tables[d])
            report = verify_store(store, 3)
            assert not report.ok, (key, delta)
            v = report.violations[0]
            assert v.degree == 3


def test_mutation_violations_are_closed_under_duality(engine4):
    # a wrong degree-2 value reaches the degree-3 and degree-4 constants
    # through mirrored series as well as convolved ones: relation F at
    # target t is violated exactly when the dual relation is violated at
    # the dual target, by the same amount up to sign
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3, 4)}
    tables[2][(9, 0, 0, 0)] += 1
    store = InvariantStore()
    for d in (1, 2, 3, 4):
        store.commit_degree(d, tables[d])
    report = verify_store(store, 4, exhaustive=True)
    assert {3, 4} <= {v.degree for v in report.violations}

    def relation(classes, pairings):
        return tuple(sorted(classes)), frozenset(pairings)

    by_quadruple = {
        f.quadruple: relation(f.classes, (f.positive, f.negative))
        for f in equation_families()
    }
    found = {
        (v.degree, by_quadruple[v.quadruple], v.target, abs(v.residual))
        for v in report.violations
    }
    mirrored = set()
    for degree, (classes, pairings), (a, b, g, e), r in found:
        dual_relation = relation(
            (DUAL[c] for c in classes), (dual_pair(*p) for p in pairings)
        )
        mirrored.add((degree, dual_relation, (b, a, g, e), r))
    assert mirrored == found


def test_verify_requires_solved_degrees():
    eng = Engine()
    eng.solve_up_to(1)
    with pytest.raises(MissingValueError):
        verify_store(eng.store, 2)


def test_workers_verify_matches_serial(engine4):
    serial = verify_store(engine4.store, 3, workers=1)
    parallel = verify_store(engine4.store, 3, workers=2)
    assert serial == parallel


def test_workers_verify_matches_serial_under_spawn(engine4, monkeypatch):
    # a platform without fork, whose default start method is spawn:
    # workers re-import gw24 and receive the tables by pickling
    spawn = multiprocessing.get_context("spawn")

    def get_context(method=None):
        if method not in (None, "spawn"):
            raise ValueError(f"cannot find context for {method!r}")
        return spawn

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    serial = verify_store(engine4.store, 3, workers=1)
    assert verify_store(engine4.store, 3, workers=2) == serial
