import concurrent.futures
import gc
import hashlib
import multiprocessing
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gw24 import engine as engine_module
from gw24 import verify as verify_module
from gw24.engine import (
    Engine,
    InconsistencyError,
    InvariantStore,
    MissingValueError,
    UnderdeterminedSystemError,
    solve_order,
    solve_values,
)
from gw24.keys import (
    InvariantKey,
    SeedSet,
    canonical_tuples,
    tuples_of_weight,
    valid_tuples,
)
from gw24.relations import (
    WdvvEquation,
    build_equation,
    degree_one_failures,
    equation_families,
)
from gw24.schubert import seed_invariants
from gw24.verify import verify_store
from gw24.wdvv import DUAL, PsiCalculator, dual_pair


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


def test_solve_degree_rejects_degree_zero(engine4):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        engine4.solve_degree(0)


def test_store_value_is_zero_off_the_dimension_condition(engine4):
    store = engine4.store
    assert store.value(InvariantKey(13, 0, 0, 0, 3)) == 504
    # weight 14 at degree 3, and a degree the store does not hold
    assert store.value(InvariantKey(14, 0, 0, 0, 3)) == 0
    assert store.value(InvariantKey(0, 0, 0, 0, 7)) == 0


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


def test_solve_through_degree9_does_fixed_work(monkeypatch):
    # the solver's work is pinned, so a faster solve cannot hide doing
    # less or other work: relations assembled, in order (a digest of their
    # (family index, target, degree) sequence), relation constants computed
    # (one ``at`` call each, once per dual pair of relations: the 5,906
    # relations less the 1,726 read from the dual's entry) and the quantum
    # products those calls sum, values
    calls = Counter()
    assembled = []

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def recorded(fam, target, degree, psi):
        assembled.append((fam.index, target, degree))
        return build_equation(fam, target, degree, psi)

    def products_counted(psi, products, target, degree):
        calls["products"] += len(products)
        return at(psi, products, target, degree)

    at = PsiCalculator.at
    monkeypatch.setattr(engine_module, "build_equation",
                        counted("build_equation", recorded))
    monkeypatch.setattr(PsiCalculator, "at", counted("at", products_counted))
    eng = Engine()
    eng.solve_up_to(9)
    assert calls == {"build_equation": 5906, "at": 4180, "products": 29999}
    assert hashlib.sha256(repr(assembled).encode()).hexdigest() == (
        "ed6cc96fabe584cada6a24e11d1d9201d3268fb3c3160dac706160ecc79ddbb8")
    assert sum(len(eng.store.canonical_table(d)) for d in range(1, 10)) == 2925


def test_degree9_solve_heap_stays_small():
    # the relation order is held as shared per-cost target lists, so the
    # solve's own heap stays small.  An untraced degree-9 solve, which
    # commits nothing, first fills the module's lru caches, and
    # gc.collect() empties the free lists, as in the exhaustive-check heap
    # test below, so the peak is the same run alone, in this file and in
    # the whole suite: 2.15 MiB (Python 3.11.7).
    # Unwarmed, it read 1.97 MiB alone and 1.84 MiB in the suite
    eng = Engine()
    eng.solve_up_to(8)
    solve_values(eng.store.raw_tables(), 9, eng.seed_set)
    gc.collect()
    tracemalloc.start()
    try:
        eng.solve_degree(9)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


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
    keys = sorted(good)
    # bool is an int subclass; a True in the store would be saved as the
    # row value "True", which no loader accepts.  The bad value is named
    # wherever it sits in the commit's walk over the sorted keys.
    for key in (keys[0], keys[len(keys) // 2], (5, 0, 0, 0)):
        for value in (-1, True, False):
            bad = dict(good)
            bad[key] = value
            with pytest.raises(EngineError, match=(
                    rf"degree 1: value at {re.escape(str(key))} is not a "
                    rf"nonnegative integer: {value}$")):
                store.commit_degree(1, bad)
    assert store.max_degree == 0


@pytest.mark.parametrize("swap, missing, unexpected", [
    # a mirror image in place of its canonical key
    ({(4, 1, 0, 0): (1, 4, 0, 0)}, (4, 1, 0, 0), (1, 4, 0, 0)),
    # a key of the wrong weight, and one key too few
    ({(5, 0, 0, 0): (6, 0, 0, 0)}, (5, 0, 0, 0), (6, 0, 0, 0)),
    ({(5, 0, 0, 0): None}, (5, 0, 0, 0), None),
    # not four entries
    ({(5, 0, 0, 0): (5, 0, 0, 0, 1)}, (5, 0, 0, 0), (5, 0, 0, 0, 1)),
])
def test_store_names_the_wrong_keys(swap, missing, unexpected):
    from gw24.engine import EngineError

    values = {}
    for t in canonical_tuples(1):
        t = swap.get(t, t)
        if t is not None:
            values[t] = 0
    with pytest.raises(EngineError) as err:
        InvariantStore().commit_degree(1, values)
    assert str(err.value) == (
        f"degree 1: wrong key set: first missing key {missing}, "
        f"first unexpected key {unexpected}")


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


def test_seeds_scaled_by_three_scale_degree_d_by_three_to_the_d():
    # N(d) -> 3^d N(d) is the substitution q -> 3q, which every relation
    # respects; a constant that mixed degrees would break it
    reference = Engine()
    reference.solve_up_to(6)
    scaled = Engine(seed_set=SeedSet(
        entries={k: 3 * v for k, v in seed_invariants().entries.items()},
        provenance_note="seeds times 3"))
    scaled.solve_up_to(6)
    for d in range(1, 7):
        assert scaled.store.raw_table(d) == {
            key: 3**d * v for key, v in reference.store.raw_table(d).items()
        }, d


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


def test_relation_with_no_open_key_must_vanish(engine4, monkeypatch):
    # a relation with no open key is checked as it is read.  Relations
    # whose cross coefficients all cancel, e.g. family (1, 2, 4, 3) at
    # target (0, 0, 0, 0), have none, but no small error in the tables
    # reaches this check before another relation fails; so every
    # assembled relation is made 0 = 1, and the first one is reported
    def empty_equation(fam, target, degree, psi):
        return WdvvEquation(fam.quadruple, target, degree, (), 1)

    monkeypatch.setattr(engine_module, "build_equation", empty_equation)
    with pytest.raises(InconsistencyError) as info:
        solve_values(engine4.store.raw_tables(), 2, None)
    _cost, fam_idx, targets = solve_order(2)[0]
    target = targets[0]
    quadruple = equation_families()[fam_idx].quadruple
    exc = info.value
    assert (exc.degree, exc.quadruple, exc.target) == (2, quadruple, target)
    assert str(exc) == (
        f"degree 2: violated relation at quadruple {quadruple}, "
        f"monomial {target}"
    )


def test_degree2_mutations_fail_in_parked_relations(engine4):
    # every degree-2 value moved by +-1 (where it stays nonnegative), then
    # degree 3 solved: most conflicts come from relations that waited on a
    # watch list; the two mutations propagation accepts are caught by verify
    outcomes, messages, accepted = Counter(), {}, []
    for t, v in engine4.store.canonical_table(2).items():
        for delta in (1, -1):
            if v + delta < 0:
                continue
            table = dict(engine4.store.canonical_table(2))
            table[t] = v + delta
            store = InvariantStore()
            store.commit_degree(1, engine4.store.canonical_table(1))
            store.commit_degree(2, table)
            try:
                values = solve_values(store.raw_tables(), 3, None)
            except InconsistencyError as exc:
                messages[t, delta] = str(exc)
                outcomes["both" if "forced to both" in str(exc) else
                         "negative" if "nonnegative" in str(exc) else
                         str(exc)] += 1
            else:
                outcomes["solved"] += 1
                store.commit_degree(3, values)
                accepted.append(store)
    assert outcomes == {"both": 50, "negative": 6, "solved": 2}
    assert messages[(1, 0, 1, 2), 1] == (
        "degree 3: violated relation at quadruple (1, 2, 2, 3), monomial "
        "(0, 0, 0, 3): key (1, 1, 1, 3) forced to both 8 and 2"
    )
    for store in accepted:
        assert not verify_store(store, 3).ok


def test_negative_seed_fails_at_the_seed():
    entries = dict(seed_invariants().entries)
    entries[InvariantKey(0, 0, 1, 1, 1)] = -1
    eng = Engine(seed_set=SeedSet(entries=entries, provenance_note="test"))
    with pytest.raises(InconsistencyError) as info:
        eng.solve_degree(1)
    assert info.value.quadruple == ("seed",)
    assert str(info.value).endswith(
        "key (0, 0, 1, 1) forced to -1, not a nonnegative integer"
    )


def test_wrong_hand_built_seed_fails_at_degree1():
    # the seeds settle every key of the relations that would catch this,
    # so only the check of the full degree-1 table does
    entries = dict(seed_invariants().entries)
    entries[InvariantKey(1, 0, 2, 0, 1)] = 2
    entries[InvariantKey(0, 1, 2, 0, 1)] = 2
    eng = Engine(seed_set=SeedSet(entries=entries, provenance_note="test"))
    with pytest.raises(InconsistencyError) as info:
        eng.invariant(1, 0, 2, 0, 1)
    exc = info.value
    assert exc.degree == 1
    assert exc.quadruple in {f.quadruple for f in equation_families()}
    assert str(exc).startswith(
        f"degree 1: violated relation at quadruple {exc.quadruple}, "
        f"monomial {exc.target}: residual "
    )
    assert eng.store.max_degree == 0


def test_degree_one_failures_flag_every_unit_change(engine4):
    table = engine4.store.canonical_table(1)
    assert list(degree_one_failures(table)) == []
    for key, value in table.items():
        for delta in (1, -1):
            if value + delta >= 0:
                changed = dict(table)
                changed[key] = value + delta
                assert any(degree_one_failures(changed)), (key, delta)


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
    from gw24.schubert import quantum_pieri

    # the one T1 insertion contributes a factor of the curve degree
    key = InvariantKey(0, 0, 1, 1, 1)
    stored = key.degree * engine4.store.value(key)
    top = quantum_pieri((2, 1))
    assert top.q_part.coefficient(Basis.T0) == stored
    point = quantum_pieri((2, 2))
    assert point.q_part.coefficient(Basis.T1) == stored


def test_verify_point_check(engine4):
    report = engine4.verify_wdvv(3, exhaustive=False)
    assert report.ok
    # every relation is covered, as in the exhaustive check
    assert report.equations_checked == 1981
    assert report == engine4.verify_wdvv(3, exhaustive=True)


def test_verify_point_check_detects_mutation(engine4):
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3)}
    tables[2][(9, 0, 0, 0)] = 3
    store = InvariantStore()
    for d in (1, 2, 3):
        store.commit_degree(d, tables[d])
    report = verify_store(store, 3, exhaustive=False)
    assert not report.ok
    # degree 2 is flagged by its own relations, and degree 3 because its
    # constants are built from the stored, mutated degree 2; the flagged
    # degrees are then checked relation by relation (regression values)
    assert report.equations_checked == 1981
    assert Counter(v.degree for v in report.violations) == {2: 2, 3: 114}
    assert report == verify_store(store, 3, exhaustive=True)


@pytest.fixture(scope="module")
def tables5():
    eng = Engine()
    eng.solve_up_to(5)
    return {d: eng.store.canonical_table(d) for d in range(1, 6)}


@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_point_check_flags_every_single_value_mutation(tables5, data):
    degree = data.draw(st.integers(1, 5), label="degree")
    key = data.draw(st.sampled_from(sorted(tables5[degree])), label="key")
    for delta in (1, -1, 2**61 - 1):
        value = tables5[degree][key] + delta
        if value < 0:
            continue
        store = InvariantStore()
        for d in range(1, degree + 1):
            table = dict(tables5[d])
            if d == degree:
                table[key] = value
            store.commit_degree(d, table)
        report = verify_store(store, degree, exhaustive=False)
        assert not report.ok, (degree, key, delta)
        assert report == verify_store(store, degree, exhaustive=True)


@pytest.fixture(scope="module")
def tables6():
    eng = Engine()
    eng.solve_up_to(6)
    return {d: eng.store.canonical_table(d) for d in range(1, 7)}


@settings(max_examples=5, deadline=None, database=None)
@given(data=st.data())
def test_point_check_flags_every_degree6_single_value_mutation(tables6, data):
    # the same check at degree 6, against the exhaustive reference
    key = data.draw(st.sampled_from(sorted(tables6[6])), label="key")
    for delta in (1, -1, 2**61 - 1):
        value = tables6[6][key] + delta
        if value < 0:
            continue
        store = InvariantStore()
        for d in range(1, 7):
            table = dict(tables6[d])
            if d == 6:
                table[key] = value
            store.commit_degree(d, table)
        report = verify_store(store, 6, exhaustive=False)
        assert not report.ok, (key, delta)
        assert report == verify_store(store, 6, exhaustive=True)


def test_miller_rabin_matches_sympy():
    from sympy import isprime

    rng = random.Random(7)
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5 and 7, and
    # the primes and composites next to 2**61
    numbers = [561, 41041, 825265, 3215031751, 2**61 - 1, 2**61 + 1]
    numbers += list(range(2000))
    numbers += [rng.getrandbits(61) | 1 for _ in range(300)]
    for n in numbers:
        assert verify_module._is_prime(n) == isprime(n), n


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


def test_verify_exhaustive_residuals_match_per_equation_replay(engine4):
    # on a wrong store every residual is named exactly: N(9,0,0,0;2) + 1
    # and N(13,0,0,0;3) + 2 break relations at degrees 2-4, and the report
    # holds each nonzero residual of the relations assembled one by one
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3, 4)}
    tables[2][(9, 0, 0, 0)] += 1
    tables[3][(13, 0, 0, 0)] += 2
    eng = Engine()
    eng.store = _store_of(tables)
    raw = eng.store.raw_tables()
    replayed = set()
    count = 0
    for degree in (1, 2, 3, 4):
        for eq in eng.generate_equations(degree):
            residual = eq.residual(raw[degree])
            if residual:
                replayed.add((degree, eq.quadruple, eq.target, residual))
            count += 1
    report = verify_store(eng.store, 4, exhaustive=True)
    assert report.equations_checked == count == 6221
    found = {(v.degree, v.quadruple, v.target, v.residual)
             for v in report.violations}
    assert len(found) == len(report.violations) == 974
    assert found == replayed


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


def test_raised_q3_breaks_two_relations_of_its_degree(engine4):
    # Q_3 = N(13,0,0,0;3) raised by one in both orientations: at its own
    # degree only the two relations that hold its key fail, and one degree
    # up the 114 relations whose constants read it
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3, 4)}
    tables[3][(13, 0, 0, 0)] += 1
    store = _store_of(tables)
    raw = store.raw_tables()[3]
    assert raw[13, 0, 0, 0] == raw[0, 13, 0, 0] == 505
    report = verify_store(store, 4)
    assert [(v.degree, v.quadruple, v.target, v.residual)
            for v in report.violations if v.degree == 3] == [
        (3, (1, 1, 2, 2), (10, 0, 0, 0), 1),
        (3, (1, 1, 3, 3), (0, 10, 0, 0), 1)]
    above = [(v.quadruple, v.target, v.residual)
             for v in report.violations if v.degree == 4]
    assert len(above) == 114
    assert hashlib.sha256(repr(above).encode()).hexdigest() == (
        "fbfbe3ccbed5121953c90d7c0caebc26c4d034178b97c19b3f414e3c2b183493")
    assert len(report.violations) == 116


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


def test_failing_report_is_ordered_by_degree_family_and_target(engine4):
    # a wrong degree-2 value breaks relations at degrees 2 and 3; the report
    # lists them by degree, then by family index, then by target, in both
    # modes
    tables = {d: dict(engine4.store.canonical_table(d)) for d in (1, 2, 3)}
    tables[2][(9, 0, 0, 0)] = 3
    store = InvariantStore()
    for d in (1, 2, 3):
        store.commit_degree(d, tables[d])
    report = verify_store(store, 3, exhaustive=True)
    index = {f.quadruple: i for i, f in enumerate(equation_families())}
    assert len(index) == len(equation_families())
    order = [(v.degree, index[v.quadruple], v.target) for v in report.violations]
    assert order == sorted(order)
    assert {2, 3} <= {v.degree for v in report.violations}
    assert len(set(order)) == len(order)
    assert report.violations == verify_store(store, 3, exhaustive=False).violations


def test_verify_requires_solved_degrees():
    eng = Engine()
    eng.solve_up_to(1)
    with pytest.raises(MissingValueError, match="degree 2 has not been solved"):
        verify_store(eng.store, 2)


def test_engine_verifies_through_its_verify_store(engine4, monkeypatch):
    # the benchmark's tracer wraps verify_store in engine's namespace, so
    # Engine.verify_wdvv must look it up there
    assert engine_module.verify_store is verify_module.verify_store
    calls = []

    def recording(store, max_degree, **kwargs):
        calls.append(max_degree)
        return verify_module.verify_store(store, max_degree, **kwargs)

    monkeypatch.setattr(engine_module, "verify_store", recording)
    assert engine4.verify_wdvv(2).ok
    assert calls == [2]


def test_verify_builds_a_calculator_only_to_check_relation_by_relation(
        engine4, tables5, monkeypatch):
    built = []

    class CountingCalculator(PsiCalculator):
        def __init__(self, tables):
            super().__init__(tables)
            built.append(self)

    monkeypatch.setattr(verify_module, "PsiCalculator", CountingCalculator)
    # a correct table: the point check flags no degree
    assert verify_store(engine4.store, 4, exhaustive=False).ok
    assert built == []
    # the checks read only the degrees asked for
    assert verify_store(_store_of(tables5), 3, exhaustive=True).ok
    (psi,) = built
    assert sorted(psi.tables) == [1, 2, 3]
    assert [d for d, line in enumerate(psi.columns[0][0]) if line] == [1, 2, 3]


def test_workers_verify_matches_serial(engine4):
    serial = verify_store(engine4.store, 3, workers=1)
    parallel = verify_store(engine4.store, 3, workers=2)
    assert serial == parallel


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
def test_workers_verify_matches_serial_without_fork(engine4, monkeypatch,
                                                    start_method):
    # a default start method other than fork (spawn on Windows and macOS,
    # forkserver on Linux from Python 3.14): workers import the worker
    # functions by name and receive the tables by pickling
    context = multiprocessing.get_context(start_method)

    def get_context(method=None):
        if method not in (None, start_method):
            raise ValueError(f"cannot find context for {method!r}")
        return context

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    # a pool of two, however many CPUs the host has
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    serial = verify_store(engine4.store, 3, workers=1)
    assert verify_store(engine4.store, 3, workers=2) == serial


@pytest.fixture
def inline_pool(monkeypatch):
    """A fake process pool executor that runs the jobs in this process, so
    no worker is ever started; it records the size and jobs of each pool."""
    record = SimpleNamespace(sizes=[], jobs=[])

    class InlinePool:
        def __init__(self, size, mp_context, initializer, initargs):
            record.sizes.append(size)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            record.jobs.extend(jobs)
            return map(func, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(verify_module, "_WORKER_PSI", None)
    return record


def test_workers_are_capped_at_the_cpu_count(engine4, inline_pool, monkeypatch):
    # four degrees to check, so the cap of three CPUs is the binding one
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 3)
    serial = verify_store(engine4.store, 4, workers=1)
    assert verify_store(engine4.store, 4, workers=1_000_000) == serial
    assert inline_pool.sizes == [3]


def test_pool_has_at_most_one_process_per_degree(engine4, inline_pool,
                                                 monkeypatch):
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 8)
    serial = verify_store(engine4.store, 3, workers=1)
    assert verify_store(engine4.store, 3, workers=8) == serial
    assert inline_pool.sizes == [3]
    assert inline_pool.jobs == [3, 2, 1]


def test_a_failing_worker_breaks_the_pool():
    # a degree-2 table missing a key: every worker's calculator raises in
    # its initializer, under any start method.  The pool must fail, not
    # replace its workers forever, so the check runs in a child process
    # whose hang fails the test at the timeout.
    script = textwrap.dedent("""
        from concurrent.futures.process import BrokenProcessPool
        from gw24 import verify
        from gw24.engine import Engine

        engine = Engine()
        engine.solve_up_to(2)
        tables = engine.store.raw_tables()
        del tables[2][(9, 0, 0, 0)]
        verify._usable_cpus = lambda: 2
        try:
            verify._check_degrees(tables, [1, 2], 2)
        except BrokenProcessPool:
            print("broken")
    """)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "broken\n"), proc.stderr


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any test that asks for a pool context."""

    def get_context(method=None):
        raise AssertionError("a pool was requested")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)


def test_one_cpu_starts_no_pool(engine4, no_pool, monkeypatch):
    serial = verify_store(engine4.store, 3, workers=1)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 1)
    assert verify_store(engine4.store, 3, workers=2) == serial


def test_pool_counts_only_the_cpus_the_process_may_use(engine4, no_pool,
                                                       monkeypatch):
    # two CPUs on the host, one in the process's affinity set (as under
    # taskset -c 0): one usable CPU, so workers=2 starts no pool
    serial = verify_store(engine4.store, 3, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert verify_module._usable_cpus() == 1
    assert verify_store(engine4.store, 3, workers=2) == serial
    # where the platform has no affinity set, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify_module._usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify_module._usable_cpus() == 1


@pytest.mark.parametrize("max_degree", [0, 1])
def test_no_series_starts_no_pool(engine4, no_pool, monkeypatch, max_degree):
    # at most one degree to check, so at most one job
    serial = verify_store(engine4.store, max_degree, workers=1)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 4)
    assert verify_store(engine4.store, max_degree, workers=4) == serial


def test_default_check_pools_the_flagged_degrees(engine4, inline_pool,
                                                 monkeypatch):
    # N(9,0,0,0;2) = 3 instead of 2: the point check flags degrees 2, 3
    # and 4, and the pool checks them relation by relation, largest first
    store = InvariantStore()
    for d in (1, 2, 3, 4):
        table = dict(engine4.store.canonical_table(d))
        if d == 2:
            table[(9, 0, 0, 0)] = 3
        store.commit_degree(d, table)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    serial = verify_store(store, 4, exhaustive=False, workers=1)
    assert Counter(v.degree for v in serial.violations) == {2: 2, 3: 114, 4: 856}
    assert verify_store(store, 4, exhaustive=False, workers=2) == serial
    assert inline_pool.sizes == [2]
    assert inline_pool.jobs == [4, 3, 2]
    # a correct store flags no degree, so no pool starts
    assert verify_store(engine4.store, 4, exhaustive=False, workers=2).ok
    assert inline_pool.sizes == [2]


def test_point_check_draws_a_prime_on_every_run(engine4, monkeypatch):
    draws = []
    randbits = verify_module.secrets.randbits

    def recording_randbits(k):
        draws.append(randbits(k))
        return draws[-1]

    monkeypatch.setattr(verify_module.secrets, "randbits", recording_randbits)
    primes = []
    for _run in range(2):
        draws.clear()
        assert verify_store(engine4.store, 3, exhaustive=False).ok
        # a run draws until its first prime
        candidates = (x | (1 << 60) | 1 for x in draws)
        (prime,) = [p for p in candidates if verify_module._is_prime(p)]
        primes.append(prime)
    # two draws of a 61-bit prime coincide with negligible probability
    assert primes[0] != primes[1]


def test_pool_jobs_are_the_degrees_checked(engine4, inline_pool, monkeypatch):
    # every series convolved outside the workers' calculator (the inline
    # workers' calculator is _WORKER_PSI)
    outside = []
    series = PsiCalculator.series

    def recording_series(self, sigma1, sigma2, degree):
        if self is not verify_module._WORKER_PSI:
            outside.append((degree, sigma1, sigma2))
        return series(self, sigma1, sigma2, degree)

    serial = verify_store(engine4.store, 4, workers=1)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(PsiCalculator, "series", recording_series)
    assert verify_store(engine4.store, 4, workers=2) == serial
    assert inline_pool.jobs == [4, 3, 2, 1]
    assert outside == []


def test_pool_workers_release_each_degree(engine4, inline_pool, monkeypatch):
    # the inline workers keep _WORKER_PSI across jobs, as a real worker does:
    # each job releases its degree's series and packed lines; of what the
    # jobs built, only the slot widths survive, beside the weight-line
    # index built with the calculator
    serial = verify_store(engine4.store, 4, workers=1)
    monkeypatch.setattr(verify_module, "_usable_cpus", lambda: 2)
    assert verify_store(engine4.store, 4, workers=2) == serial
    assert inline_pool.jobs == [4, 3, 2, 1]
    psi = verify_module._WORKER_PSI
    held = {name for name, memo in vars(psi).items()
            if isinstance(memo, dict) and memo and name != "tables"}
    assert held == {"_widths"}
    assert [d for d, line in enumerate(psi.columns[0][0]) if line] == [1, 2, 3, 4]


def _store_of(tables):
    store = InvariantStore()
    for d in sorted(tables):
        store.commit_degree(d, tables[d])
    return store


def test_exhaustive_check_heap_stays_small(tables6):
    # each dual orbit's series are held from their first reader to their
    # last, a degree's packed lines until the degree is done, and the cross
    # terms' slices of the weight lines for one family at a time.  An
    # untraced check first fills the module's lru caches (Pascal rows and
    # diagonals, triple_info, the families, the key sets), and gc.collect()
    # empties the interpreter's free lists, whose reused tuples tracemalloc
    # does not see; so the peak is the same run alone, in this file and in
    # the whole suite: 1.12 MiB (Python 3.11.7), against 1.30 MiB when
    # series were dicts keyed by line and each family's lines were grouped
    # by key before they were summed.  Storing each (degree, triple)'s
    # slices as well peaked at 2.3 MiB, in an older, unwarmed measurement
    store = _store_of(tables6)
    verify_store(store, 6, exhaustive=True)
    gc.collect()
    tracemalloc.start()
    try:
        report = verify_store(store, 6, exhaustive=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1.5 * 2**20


def test_exhaustive_check_convolves_each_series_once(tables6, monkeypatch):
    # a series is released only after its last reader, so no (degree, pair)
    # misses the memo twice (misses counted as the benchmark's tracer counts
    # them), and none is left at the end
    misses = Counter()
    calculators = set()
    series = PsiCalculator.series

    def counting_series(self, sigma1, sigma2, degree):
        calculators.add(self)
        pair = tuple(sorted((sigma1, sigma2)))
        if (degree, *pair) not in self._series:
            misses[degree, pair] += 1
        return series(self, sigma1, sigma2, degree)

    monkeypatch.setattr(PsiCalculator, "series", counting_series)
    assert verify_store(_store_of(tables6), 6, exhaustive=True).ok
    # every pair read, and the representative of its dual orbit
    read = {(d, (s1, s2)) for d in range(1, 7) for fam in equation_families()
            if fam.target_weight(d) >= 0 for _c, s1, s2 in fam.quantum}
    read |= {(d, min(pair, dual_pair(*pair))) for d, pair in read}
    assert misses.keys() == read
    assert max(misses.values()) == 1
    (psi,) = calculators
    assert not psi._series and not psi._packed
