"""Structure of the generated relations, against hand-expanded cases.

The frozen equations below were worked out by hand from the potentials:
third partials of the classical cubic give the linear contractions, a y1
derivative contributes one factor of the curve degree, and products of two
quantum third-partials give binomially weighted splittings over lower
degrees.
"""

from math import comb

import pytest

from gw24.engine import Engine, MissingValueError, _conv_jobs
from gw24.keys import tuples_of_weight
from gw24.wdvv import (
    PsiCalculator,
    build_equation,
    dual_pair,
    equation_families,
    pascal_column,
    pascal_row,
    solve_order,
    triple_info,
)


def family(classes):
    matches = [f for f in equation_families() if f.classes == classes]
    assert len(matches) == 1
    return matches[0]


def test_family_count_regression():
    # one relation per unordered pair of distinct pairings of a unit-free
    # quadruple; regression pin of this generator's own count
    assert len(equation_families()) == 55


def test_family_shapes():
    fams = equation_families()
    # all-distinct quadruples give three relations, xxyz and xxyy one each
    from collections import Counter

    per_multiset = Counter(f.classes for f in fams)
    for classes, count in per_multiset.items():
        distinct = len(set(classes))
        if distinct == 4:
            assert count == 3
        else:
            assert count == 1
    assert sum(1 for f in fams if len(set(f.classes)) == 4) == 15


def test_unit_free():
    for fam in equation_families():
        assert 0 not in fam.classes


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
    assert len(solve_order(1)) <= count1


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
            series = psi.series(sigma1, sigma2, 3)
            for target in tuples_of_weight(w):
                assert psi.at(sigma1, sigma2, target, 3) == series.get(
                    target, 0
                ), (sigma1, sigma2, target)
    assert seen


def test_pascal_tables_match_comb():
    # every binomial comb(n, k) with n <= 60, read as a row and as a column
    for n in range(61):
        assert pascal_row(n) == tuple(comb(n, k) for k in range(n + 1))
        assert pascal_column(n, 60 - n) == tuple(
            comb(n + j, n) for j in range(61 - n)
        )


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
    # covers the convolved orbit representatives and the series derived
    # from them by the Ta <-> Tb swap
    eng = Engine()
    eng.solve_up_to(4)
    tables = eng.store.raw_tables()
    psi = PsiCalculator(tables)
    jobs = _conv_jobs(5)
    mirrored = [j for j in jobs if dual_pair(j[1], j[2]) < j[1:]]
    assert mirrored and len(mirrored) < len(jobs)
    for degree, sigma1, sigma2 in jobs:
        assert psi.series(sigma1, sigma2, degree) == naive_series(
            tables, sigma1, sigma2, degree
        ), (degree, sigma1, sigma2)


def test_generate_equations_requires_lower_degrees():
    eng = Engine()
    with pytest.raises(MissingValueError):
        eng.generate_equations(2)


def test_generate_equations_degree_zero_empty():
    eng = Engine()
    assert list(eng.generate_equations(0)) == []
