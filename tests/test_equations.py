"""Structure of the generated relations, against hand-expanded cases.

The frozen equations below were worked out by hand from the potentials:
third partials of the classical cubic give the linear contractions, a y1
derivative contributes one factor of the curve degree, and products of two
quantum third-partials give binomially weighted splittings over lower
degrees.
"""

import dataclasses
import hashlib
import random
import sys
import threading
from collections import Counter
from itertools import product
from math import comb

import pytest

from gw24.cohomology import CODIM, Basis, pairing, triple
from gw24.engine import Engine, MissingValueError, solve_order
from gw24.keys import lines_of_weight, tuples_of_weight
from gw24.relations import (
    ORIENTED_PAIRS,
    QUANTUM_CLASSES,
    _pairing_structure,
    _resolve_quadruple,
    build_equation,
    equation_families,
    relation_terms,
)
from gw24.wdvv import DUAL, PsiCalculator, dual_pair, pascal_row, triple_info


def family(classes):
    matches = [f for f in equation_families() if f.classes == classes]
    assert len(matches) == 1
    return matches[0]


def test_family_count_regression():
    # one relation per unordered pair of distinct pairings of a unit-free
    # quadruple; regression pin of this generator's own count
    assert len(equation_families()) == 55


def test_families_are_pinned():
    # family order sets the solve order and every report, so no rewrite of
    # the generator may reorder or alter a family: a pin of all 55, every
    # field (classes, pairings, quadruple, terms, index and dual)
    fams = [dataclasses.astuple(f) for f in equation_families()]
    assert hashlib.sha256(repr(fams).encode()).hexdigest() == (
        "42184e79128d00153fc7c2ec6e337f0f1e1269585262641e77c87441f38d9d2d")


def test_family_shapes():
    fams = equation_families()
    # all-distinct quadruples give three relations, xxyz and xxyy one each
    per_multiset = Counter(f.classes for f in fams)
    for classes, count in per_multiset.items():
        distinct = len(set(classes))
        if distinct == 4:
            assert count == 3
        else:
            assert count == 1
    assert sum(1 for f in fams if len(set(f.classes)) == 4) == 15


def test_resolve_quadruple_rejects_incompatible_pairings():
    # every family's quadruple realizes its two pairings; a pairing
    # against itself, or against one of other classes, has no ordering
    def split(x, y, z, w):
        return tuple(sorted((tuple(sorted((x, y))), tuple(sorted((z, w))))))

    for fam in equation_families():
        i, j, k, l = fam.quadruple
        assert split(i, j, k, l) == fam.positive
        assert split(j, k, i, l) == fam.negative
    for pos, neg in ((((1, 2), (3, 4)), ((1, 2), (3, 4))),
                     (((1, 1), (2, 2)), ((3, 3), (4, 4)))):
        with pytest.raises(AssertionError, match="incompatible pairings"):
            _resolve_quadruple(pos, neg)


def test_unit_free():
    for fam in equation_families():
        assert 0 not in fam.classes


def test_ring_constants_match_the_cohomology_tables():
    # relations and wdvv restate these from the classical ring; verify
    # checks that ring against the Schubert oracle through the cohomology
    # tables
    assert len(set(ORIENTED_PAIRS)) == len(ORIENTED_PAIRS)
    assert set(ORIENTED_PAIRS) == {
        (e, f) for e, f in product(Basis, repeat=2) if pairing(e, f) == 1
    }
    assert QUANTUM_CLASSES == tuple(c for c in Basis if CODIM[c] > 0)
    assert all(DUAL[DUAL[c]] == c for c in Basis)
    assert (DUAL[Basis.TA], DUAL[Basis.TB]) == (Basis.TB, Basis.TA)
    assert all(CODIM[DUAL[c]] == CODIM[c] for c in Basis)
    for i, j in product(Basis, repeat=2):
        assert pairing(DUAL[i], DUAL[j]) == pairing(i, j), (i, j)
    for i, j, k in product(Basis, repeat=3):
        assert triple(DUAL[i], DUAL[j], DUAL[k]) == triple(i, j, k), (i, j, k)


def test_quantum_terms_merge_both_pairings():
    # one term per unordered pair of triples, carrying the summed signs of
    # both pairings' terms; pairs whose signs cancel are dropped
    total = 0
    for fam in equation_families():
        expected = Counter()
        for pairing, sign in ((fam.positive, 1), (fam.negative, -1)):
            _cross, quantum = _pairing_structure(pairing, sign)
            for s, sigma1, sigma2 in quantum:
                expected[tuple(sorted((sigma1, sigma2)))] += s
        got = {(sigma1, sigma2): c for c, sigma1, sigma2 in fam.quantum}
        assert len(got) == len(fam.quantum)
        assert all(sigma1 <= sigma2 for sigma1, sigma2 in got)
        assert got == {pair: c for pair, c in expected.items() if c}
        assert all(c in (-2, -1, 1, 2) for c in got.values())
        total += len(got)
    assert total == 411


@pytest.fixture(scope="module")
def engine2():
    eng = Engine()
    eng.solve_up_to(2)
    return eng


def test_divisor_point_relation_degree1(engine2):
    # quadruple (T1,T1,Ta,Ta) at monomial ya^2, degree 1:
    #   N(a+3,b,g,d) + N(a+2,b+1,g,d) + deg^2 N(a,b,g,d+1)
    #     - 2 deg N(a+1,b,g+1,d) + (lower-degree products) = 0
    psi = PsiCalculator(engine2.store.raw_tables())
    eq = build_equation(family((1, 1, 2, 2)), (2, 0, 0, 0), 1, psi)
    assert eq.quadruple == (1, 1, 2, 2)
    assert dict(eq.terms) == {
        (5, 0, 0, 0): 1,
        (4, 1, 0, 0): 1,
        (2, 0, 0, 1): 1,
        (3, 0, 1, 0): -2,
    }
    assert eq.constant == 0  # no degree splits below degree 1


def test_point_count_relation_degree2(engine2):
    # the same quadruple at ya^6, degree 2, pins the 9-point count
    psi = PsiCalculator(engine2.store.raw_tables())
    eq = build_equation(family((1, 1, 2, 2)), (6, 0, 0, 0), 2, psi)
    assert dict(eq.terms) == {
        (9, 0, 0, 0): 1,
        (8, 1, 0, 0): 1,
        (6, 0, 0, 1): 4,
        (7, 0, 1, 0): -4,
    }
    # every split here lands on a vanishing degree-1 value
    assert eq.constant == 0


def test_symmetric_target_merges_to_unit(engine2):
    # quadruple (Ta,Ta,Tb,Tb) at ya^2 yb^2, degree 2: the two unknown
    # terms are symmetry images and merge; the constant was expanded by
    # hand over the nine splittings of (2,2) into degree-1 pairs.
    psi = PsiCalculator(engine2.store.raw_tables())
    eq = build_equation(family((2, 2, 3, 3)), (2, 2, 0, 0), 2, psi)
    assert eq.terms == (((4, 2, 0, 1), 2),)
    assert eq.constant == -10
    assert engine2.invariant(4, 2, 0, 1, 2) == 5


def test_seed_forcing_equation(engine2):
    # (Ta,Ta,Tb,Tb) at the constant monomial, degree 1: forces the
    # two-point-conditions-plus-line seed to vanish
    psi = PsiCalculator(engine2.store.raw_tables())
    eq = build_equation(family((2, 2, 3, 3)), (0, 0, 0, 0), 1, psi)
    assert eq.terms == (((2, 0, 0, 1), 2),)
    assert eq.constant == 0


def test_degree1_unknowns_all_have_weight_five():
    # spec of the generator: at degree 1 every unknown in every emitted
    # relation is a degree-1 key of weight 5
    eng = Engine()
    for eq in eng.generate_equations(1):
        assert eq.degree == 1
        for (a, b, g, e), coeff in eq.terms:
            assert a + b + 2 * g + 3 * e == 5
            assert a >= b
            assert coeff != 0


def test_target_weight_class():
    # every relation of a family lives in the single weight class
    # 4d + 4 - total codim
    eng = Engine()
    eng.solve_up_to(1)
    by_quadruple = {f.quadruple: f for f in equation_families()}
    for degree in (1, 2):
        for eq in eng.generate_equations(degree):
            a, b, g, e = eq.target
            weight = by_quadruple[eq.quadruple].target_weight(degree)
            assert a + b + 2 * g + 3 * e == weight


def test_generate_equations_counts_regression():
    eng = Engine()
    eng.solve_up_to(2)
    count1 = sum(1 for _ in eng.generate_equations(1))
    count2 = sum(1 for _ in eng.generate_equations(2))
    assert count1 == 29  # regression values produced by this generator
    assert count2 == 372
    # one relation per family and target of its weight class
    assert count1 == sum(
        len(tuples_of_weight(f.target_weight(1))) for f in equation_families()
    )
    # the solve stream is a subset ordering of the same relations
    assert sum(len(targets) for _c, _i, targets in solve_order(1)) <= count1


@pytest.mark.parametrize("degree", range(1, 12))
def test_solve_order_is_every_family_target_sorted(degree):
    # by definition: one (cost, family index, target) per family with
    # cross terms and per target of its weight class, fully sorted; the
    # groups hold them by (cost, family index), one group per pair
    expected = sorted(
        ((a + 1) * (b + 1) * (g + 1) * (e + 1), idx, (a, b, g, e))
        for idx, fam in enumerate(equation_families())
        if fam.cross and fam.target_weight(degree) >= 0
        for a, b, g, e in tuples_of_weight(fam.target_weight(degree))
    )
    groups = solve_order(degree)
    assert [(cost, idx, t) for cost, idx, targets in groups
            for t in targets] == expected
    keys = [(cost, idx) for cost, idx, _targets in groups]
    assert keys == sorted(set(keys))


def test_generate_equations_satisfied_by_solution():
    eng = Engine()
    eng.solve_up_to(2)
    for degree in (1, 2):
        raw = eng.store.raw_table(degree)
        for eq in eng.generate_equations(degree):
            assert eq.residual(raw) == 0, (eq.quadruple, eq.target)


def test_constant_paths_agree():
    # the solver folds constants per target (PsiCalculator.at) while the
    # verifier convolves whole degree tables (PsiCalculator.series); the
    # two implementations must agree coefficient by coefficient
    eng = Engine()
    eng.solve_up_to(3)
    psi = PsiCalculator(eng.store.raw_tables())
    seen = set()
    for fam in equation_families():
        w = fam.target_weight(3)
        if w < 0:
            continue
        for _sign, sigma1, sigma2 in fam.quantum:
            pair = tuple(sorted((sigma1, sigma2)))
            if pair in seen:
                continue
            seen.add(pair)
            series = series_entries(psi, sigma1, sigma2, 3)
            for target in tuples_of_weight(w):
                assert psi.at(((1, sigma1, sigma2),), target, 3) == (
                    series.get(target, 0)), (sigma1, sigma2, target)
    assert seen


def test_pascal_tables_match_comb():
    # every binomial comb(n, k) with n <= 60
    for n in range(61):
        assert pascal_row(n) == tuple(comb(n, k) for k in range(n + 1))


def as_entries(lines):
    """(key, line) pairs of weight lines, keyed (gamma, delta, R), as
    {(a, R - a, gamma, delta): value}, with the zero slots dropped."""
    return {
        (a, r - a, g, e): v
        for (g, e, r), line in lines
        for a, v in enumerate(line) if v
    }


def shift_weight(sigma):
    """The weight a quantum third partial over ``sigma`` takes off a key."""
    sa, sb, sg, se = triple_info(sigma)[0]
    return sa + sb + 2 * sg + 3 * se


def series_entries(psi, sigma1, sigma2, degree):
    """``psi.series`` as ``as_entries``: its lines are those of its output
    weight class, one to one and in the order of ``lines_of_weight``."""
    keys = lines_of_weight(
        4 * degree + 2 - shift_weight(sigma1) - shift_weight(sigma2))
    series = psi.series(sigma1, sigma2, degree)
    return as_entries(zip(keys, series, strict=True))


def naive_series(tables, sigma1, sigma2, degree):
    """The product series straight from its definition: every pair of
    lower-degree keys that dominate the two triples' shifts, weighted by
    binomials from math.comb."""

    def factor(d, sigma):
        shift, n1, _alive = triple_info(sigma)
        return [
            (tuple(k - s for k, s in zip(key, shift)), v * d**n1)
            for key, v in tables[d].items()
            if v and all(k >= s for k, s in zip(key, shift))
        ]

    out = {}
    for d1 in range(1, degree):
        second = factor(degree - d1, sigma2)
        for x1, v1 in factor(d1, sigma1):
            for x2, v2 in second:
                t = tuple(p + q for p, q in zip(x1, x2))
                w = comb(t[0], x1[0]) * comb(t[1], x1[1])
                w *= comb(t[2], x1[2]) * comb(t[3], x1[3])
                out[t] = out.get(t, 0) + w * v1 * v2
    return out


def test_series_matches_naive_convolution():
    # covers the convolved orbit representatives, the series derived
    # from them by the Ta <-> Tb swap, and one pair in unsorted order
    eng = Engine()
    eng.solve_up_to(4)
    tables = eng.store.raw_tables()
    psi = PsiCalculator(tables)
    jobs = sorted({
        (degree, s1, s2)
        for degree in range(2, 6)
        for fam in equation_families() if fam.target_weight(degree) >= 0
        for _coeff, s1, s2 in fam.quantum
    })
    mirrored = [j for j in jobs if dual_pair(j[1], j[2]) < j[1:]]
    assert mirrored and len(mirrored) < len(jobs)
    # the product is symmetric, so an unsorted pair gives the same series
    swapped = next((d, s2, s1) for d, s1, s2 in jobs if s1 != s2)
    for degree, sigma1, sigma2 in jobs + [swapped]:
        assert series_entries(psi, sigma1, sigma2, degree) == naive_series(
            tables, sigma1, sigma2, degree
        ), (degree, sigma1, sigma2)


def full_tables(max_degree, draw):
    """Tables holding every key of degrees 1..max_degree in both
    orientations, with one drawn value per canonical key."""
    tables = {}
    for d in range(1, max_degree + 1):
        table = {}
        for a, b, g, e in tuples_of_weight(4 * d + 1):
            if a >= b:
                table[a, b, g, e] = table[b, a, g, e] = draw()
        tables[d] = table
    return tables


@pytest.mark.parametrize("values", ["random", "ones-1", "ones-400"])
def test_series_exact_at_its_slot_width(values):
    # the packed kernel against the definition, on random values of up to
    # 400 bits and on tables where every value is 2**k - 1: every pair of
    # the relations up to degree 4, and up to degree 6 the shift-free pair
    # (T1,T1,T1)^2, which no relation uses but whose output lines are the
    # longest, so that on these tables its slots reach the width
    rng = random.Random(12)
    draw = {
        "random": lambda: rng.getrandbits(rng.randint(0, 400)),
        "ones-1": lambda: 1,
        "ones-400": lambda: 2**400 - 1,
    }[values]
    tables = full_tables(5, draw)
    psi = PsiCalculator(tables)
    free = (1, 1, 1)
    jobs = [(degree, free, free) for degree in range(2, 7)]
    jobs += sorted({
        (degree, s1, s2)
        for degree in range(2, 5)
        for fam in equation_families() if fam.target_weight(degree) >= 0
        for _coeff, s1, s2 in fam.quantum if (s1, s2) <= dual_pair(s1, s2)
    })
    for degree, sigma1, sigma2 in jobs:
        naive = naive_series(tables, sigma1, sigma2, degree)
        assert series_entries(psi, sigma1, sigma2, degree) == naive, (
            degree, sigma1, sigma2)
        if sigma1 == sigma2 == free and values != "random":
            # on equal values the largest packed slot, comb(R, alpha) times
            # the series, has exactly the width's bits: one fewer overflows
            top = max(comb(a + b, a) * v for (a, b, _g, _e), v in naive.items())
            assert top.bit_length() == psi.slot_width(degree), degree


@pytest.fixture(scope="module")
def tables9():
    eng = Engine()
    eng.solve_up_to(9)
    return eng.store.raw_tables()


def test_slot_width_is_at_most_the_widest_pair_bound(tables9):
    # the width sums the degree pairs d1 + d2 = D, each weighted by the
    # binomial of its longest lines; the bound it replaced took the widest
    # pair and 2**(4D + 2) for the binomials of every pair and line
    psi = PsiCalculator(tables9)
    widths = []
    for degree in range(2, 11):
        v = [d**3 * max(tables9[d].values()) for d in range(1, degree)]
        widest = max(a * b for a, b in zip(v, reversed(v)))
        old = (widest * comb(4 * degree + 2, 2 * degree + 1)).bit_length()
        assert psi.slot_width(degree) <= old + 4 * degree + 2, degree
        widths.append(psi.slot_width(degree))
    assert widths == [16, 33, 50, 69, 89, 110, 132, 154, 177]


@pytest.fixture(scope="module")
def tables5():
    eng = Engine()
    eng.solve_up_to(5)
    return eng.store.raw_tables()


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_at_matches_naive_series(tables5, degree):
    # every quantum pair of every family at every target of its weight
    # class; the mirror of a dual orbit's representative is read from the
    # representative's naive series with alpha and beta swapped, as the
    # tables are symmetric under Ta <-> Tb
    psi = PsiCalculator(tables5)
    pairs = {
        (sigma1, sigma2): fam.target_weight(degree)
        for fam in equation_families()
        if fam.target_weight(degree) >= 0
        for _coeff, sigma1, sigma2 in fam.quantum
    }
    naive = {}
    beta_zero_hits = 0
    for (sigma1, sigma2), w in sorted(pairs.items()):
        rep = min((sigma1, sigma2), dual_pair(sigma1, sigma2))
        if rep not in naive:
            naive[rep] = naive_series(tables5, *rep, degree)
        ref = naive[rep]
        swap = rep != (sigma1, sigma2)
        for target in tuples_of_weight(w):
            a, b, g, e = target
            expected = ref.get((b, a, g, e) if swap else target, 0)
            assert psi.at(((1, sigma1, sigma2),), target, degree) == (
                expected), (sigma1, sigma2, target)
            if sigma1 == (1, 1, 1):
                # the product is symmetric; with the shift-free triple
                # second, only the kernel's cap keeps d1 below ``degree``
                assert psi.at(((1, sigma2, sigma1),), target, degree) == (
                    expected)
            if b == 0 and expected:
                # every window of the kernel is a single element here
                beta_zero_hits += 1
    assert beta_zero_hits


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_at_sums_a_relations_products_in_one_walk(tables5, degree):
    # one call over a relation's products is the sum of one call per
    # product, on a fresh instance, for every family at every target of its
    # weight class; so is one over a tuple that also holds the mirror of
    # each pair with the shift-free triple first, that triple then second:
    # in a group of its own, where only the kernel's cap keeps d1 below
    # ``degree``
    fused = PsiCalculator(tables5)
    single = PsiCalculator(tables5)

    def by_product(products, target):
        return sum(c * single.at(((1, s1, s2),), target, degree)
                   for c, s1, s2 in products)

    mirrored = 0
    for fam in equation_families():
        if fam.target_weight(degree) < 0:
            continue
        mirror = tuple(
            (3 * c, s2, s1) for c, s1, s2 in fam.quantum if s1 == (1, 1, 1))
        for target in tuples_of_weight(fam.target_weight(degree)):
            assert fused.at(fam.quantum, target, degree) == by_product(
                fam.quantum, target), (fam.label(), target)
            if mirror:
                both = fam.quantum + mirror
                expected = by_product(both, target)
                assert fused.at(both, target, degree) == expected, (
                    fam.label(), target)
                mirrored += expected != 0
    assert mirrored


def race(work, count=6):
    """Run ``work()`` in ``count`` threads at once, switching as often as
    the interpreter allows; return the results of the threads, in order."""
    results, errors = {}, []

    def run(k):
        try:
            results[k] = work()
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return [results[k] for k in range(count)]


def test_at_is_safe_to_share_between_threads(tables5):
    # ``at`` fills its plan memo lazily; threads racing on one fresh
    # instance must get the serial answers
    jobs = [
        (((1, sigma1, sigma2),), target, degree)
        for degree in (4, 5, 6)
        for fam in equation_families()[::4] if fam.target_weight(degree) >= 0
        for _c, sigma1, sigma2 in fam.quantum
        for target in tuples_of_weight(fam.target_weight(degree))[::7]
    ]
    serial = PsiCalculator(tables5)
    expected = [serial.at(*job) for job in jobs]
    shared = PsiCalculator(tables5)
    assert race(lambda: [shared.at(*job) for job in jobs]) == [expected] * 6


def test_build_equation_is_safe_to_share_between_threads(tables5):
    # ``constant`` fills its memo lazily and serves a relation from its
    # dual's entry; threads racing on one fresh instance, over a job list
    # closed under the duality, must get the serial relations
    jobs = [
        (fam, target, degree)
        for degree in (4, 5, 6)
        for fam in equation_families()
        for target in tuples_of_weight(fam.target_weight(degree))
        if target[2:] == (1, 0)
    ]
    serial = PsiCalculator(tables5)
    expected = [build_equation(*job, serial) for job in jobs]
    shared = PsiCalculator(tables5)
    assert race(lambda: [build_equation(*job, shared) for job in jobs]
                ) == [expected] * 6


def test_dual_families_are_an_involution():
    # the dual family's pairings are this family's with Ta <-> Tb applied,
    # in the same roles or exchanged as ``dual_sign`` says, so its merged
    # quantum terms are the dual pairs with their coefficients signed
    def image(pairing):
        return tuple(sorted(tuple(sorted(DUAL[i] for i in pair))
                            for pair in pairing))

    fams = equation_families()
    assert [fam.index for fam in fams] == list(range(len(fams)))
    for fam in fams:
        dual = fams[fam.dual]
        assert (dual.dual, dual.dual_sign) == (fam.index, fam.dual_sign)
        assert dual.classes == tuple(sorted(DUAL[c] for c in fam.classes))
        roles = (image(fam.positive), image(fam.negative))
        assert (dual.positive, dual.negative) == (
            roles if fam.dual_sign == 1 else roles[::-1])
        assert {(s1, s2): c for c, s1, s2 in dual.quantum} == {
            dual_pair(s1, s2): fam.dual_sign * c for c, s1, s2 in fam.quantum}
    assert sum(fam.dual == fam.index for fam in fams) == 13
    # so a relation is its dual's at the mirrored target, term by term:
    # the same equation up to the sign
    for d in range(1, 5):
        for fam in fams:
            dual = fams[fam.dual]
            for a, b, g, e in tuples_of_weight(fam.target_weight(d)):
                assert relation_terms(fam, (a, b, g, e), d) == tuple(
                    (key, fam.dual_sign * c)
                    for key, c in relation_terms(dual, (b, a, g, e), d)
                ), (fam.label(), (a, b, g, e), d)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_constants_are_computed_once_per_dual_pair(tables5, degree):
    # the memoized constant of every relation is the direct sum of its
    # products on a fresh instance, and sign times its dual relation's at
    # the mirrored target; the memo computes one relation per dual pair
    fams = equation_families()
    direct = PsiCalculator(tables5)
    expected = {
        (fam.index, target): sum(
            c * direct.at(((1, s1, s2),), target, degree)
            for c, s1, s2 in fam.quantum)
        for fam in fams
        for target in tuples_of_weight(fam.target_weight(degree))
    }
    orbits = set()
    for (idx, (a, b, g, e)), value in expected.items():
        fam = fams[idx]
        mirror = (fam.dual, (b, a, g, e))
        assert value == fam.dual_sign * expected[mirror], (fam.label(), a, b)
        orbits.add(min((idx, (a, b, g, e)), mirror))
    memo = PsiCalculator(tables5)
    for (idx, target), value in expected.items():
        assert memo.constant(fams[idx], target, degree) == value
    assert len(memo._constants) == len(orbits)


def test_shifted_lines_reindex_the_table(tables5):
    # every triple of a relation's cross part, against the keys of the
    # table that dominate its shift, reindexed one by one: every such key
    # in exactly one slice, zeros included, and nothing else
    psi = PsiCalculator(tables5)
    sigmas = sorted({s for f in equation_families() for _c, s, _sh, _n1 in f.cross})
    width = psi.slot_width(6)
    zero_slices = 0
    for degree in range(1, 6):
        for sigma in sigmas:
            shift, n1, _alive = triple_info(sigma)
            naive = {
                tuple(k - s for k, s in zip(key, shift)): v
                for key, v in tables5[degree].items()
                if all(k >= s for k, s in zip(key, shift))
            }
            lines = list(psi.shifted_lines(degree, sigma))
            slots = [
                (a, r - a, g, e)
                for (g, e, r), line in lines
                for a in range(len(line))
            ]
            assert len(slots) == len(set(slots)), (degree, sigma)
            assert as_entries(lines) == {
                t: v for t, v in naive.items() if v}, (degree, sigma)
            assert set(slots) == naive.keys(), (degree, sigma)
            nonzero = [(key, line) for key, line in lines if any(line)]
            zero_slices += len(lines) - len(nonzero)
            # packed: exactly the nonzero slices, slot a holding
            # comb(r, a) * degree**n1 * N
            packed = psi.packed_lines(degree, sigma, width)
            assert [(g, e, r) for g, e, r, _p in packed] == [
                key for key, _line in nonzero], (degree, sigma)
            for (g, e, r, p), (_key, line) in zip(packed, nonzero):
                assert p >> (r + 1) * width == 0
                assert [(p >> a * width) & ((1 << width) - 1)
                        for a in range(r + 1)] == [
                    comb(r, a) * degree**n1 * v for a, v in enumerate(line)]
    # the test covers slices that hold only zeros
    assert zero_slices


def test_terms_stream_their_family_lines_in_lockstep(tables9):
    # the exhaustive check zips a family's terms line by line, so every
    # cross term's slices are keyed by the family's weight lines, in the
    # order of lines_of_weight, and every series holds one line of r + 1
    # slots per weight line, zero lines and degree 1 included
    psi = PsiCalculator(tables9)
    for degree in range(1, 10):
        read = set()
        for fam in equation_families():
            w = fam.target_weight(degree)
            if w < 0:
                continue
            keys = list(lines_of_weight(w))
            lengths = [r + 1 for _g, _e, r in keys]
            for _c, sigma, _sh, _n1 in fam.cross:
                lines = list(psi.shifted_lines(degree, sigma))
                assert [key for key, _line in lines] == keys, (degree, sigma)
                assert [len(line) for _key, line in lines] == lengths
            for _c, sigma1, sigma2 in fam.quantum:
                series = psi.series(sigma1, sigma2, degree)
                assert [len(line) for line in series] == lengths, (
                    degree, sigma1, sigma2)
                read |= {(sigma1, sigma2), dual_pair(sigma1, sigma2)}
        psi.release(degree, read)
    assert not psi._series


def test_at_reads_only_degrees_below_its_own(tables9):
    # the column map spans every degree of its tables, and the solver's
    # tables may hold the degree it asks for and higher; ``psi`` holds
    # only the degrees below the one asked, where a read of degree
    # ``degree`` or above fails.  Both orders of each pair: with the
    # shift-free triple second, only the kernel's cap keeps d1 below
    # ``degree``
    full = PsiCalculator(tables9)
    calls = 0
    for degree in range(2, 10):
        psi = PsiCalculator({d: tables9[d] for d in range(1, degree)})
        for fam in equation_families()[::4]:
            if fam.target_weight(degree) < 0:
                continue
            for target in tuples_of_weight(fam.target_weight(degree))[::13]:
                for _c, sigma1, sigma2 in fam.quantum:
                    for pair in ((sigma1, sigma2), (sigma2, sigma1)):
                        products = ((1, *pair),)
                        assert psi.at(products, target, degree) == full.at(
                            products, target, degree), (pair, target)
                        calls += 1
    assert len(psi.columns[0][0]) == 9 and len(full.columns[0][0]) == 10
    assert calls > 5000


def test_at_vanishes_at_degree_one(tables5):
    psi = PsiCalculator(tables5)
    for fam in equation_families():
        for _coeff, sigma1, sigma2 in fam.quantum:
            for target in tuples_of_weight(fam.target_weight(1)):
                assert psi.at(((1, sigma1, sigma2),), target, 1) == 0


def test_generate_equations_requires_lower_degrees():
    eng = Engine()
    with pytest.raises(MissingValueError):
        eng.generate_equations(2)


def test_generate_equations_degree_zero_empty():
    eng = Engine()
    assert list(eng.generate_equations(0)) == []


def test_family_labels_name_the_quadruple_in_its_order():
    fams = equation_families()
    assert fams[0].label() == "(T1,T1,Ta,Ta)"
    # the quadruple is an ordering of the classes, not the sorted classes
    assert fams[14].classes == (1, 2, 3, 4)
    assert fams[14].label() == "(T1,Ta,T3,Tb)"
    assert fams[-1].label() == "(T3,T3,T4,T4)"
    assert len({fam.label() for fam in fams}) == len(fams)
