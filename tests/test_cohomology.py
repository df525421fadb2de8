import pytest

from gw24 import cohomology
from gw24.cohomology import (
    Basis,
    ClassCombination,
    codim,
    cup,
    cup_combination,
    pairing,
    poincare_dual,
    triple,
)

T0, T1, TA, TB, T3, T4 = Basis


def test_codims():
    assert codim(T0) == 0
    assert codim(T1) == 1
    assert codim(TA) == 2
    assert codim(TB) == 2
    assert codim(T3) == 3
    assert codim(T4) == 4
    assert len(set(Basis)) == 6


def test_pairing_table():
    nonzero = {(i, j) for i in Basis for j in Basis if pairing(i, j) != 0}
    assert nonzero == {
        (T0, T4), (T4, T0), (TA, TA), (TB, TB), (T1, T3), (T3, T1),
    }
    assert pairing(TA, TA) == 1
    assert pairing(T1, T3) == 1
    assert pairing(TA, TB) == 0


def test_pairing_symmetric_and_self_inverse():
    g = [[pairing(i, j) for j in Basis] for i in Basis]
    assert g == [list(col) for col in zip(*g)]
    n = len(g)
    square = [
        [sum(g[i][e] * g[e][j] for e in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert square == [[int(i == j) for j in range(n)] for i in range(n)]


def test_poincare_dual():
    assert poincare_dual(T0) == T4
    assert poincare_dual(TA) == TA
    assert poincare_dual(T1) == T3
    for c in Basis:
        assert pairing(c, poincare_dual(c)) == 1
        assert codim(c) + codim(poincare_dual(c)) == 4


def test_poincare_dual_raises_without_a_dual(monkeypatch):
    # with A(T0, T1, T3) dropped from the T0 slice, T1 pairs to 0 with
    # every class, and the guard names it
    monkeypatch.delitem(cohomology._TRIPLE_NONZERO, (T0, T1, T3))
    with pytest.raises(AssertionError, match="no dual for"):
        poincare_dual(T1)


def test_cup_examples():
    assert cup(T1, T1) == ClassCombination({TA: 1, TB: 1})
    assert cup(T0, T3) == ClassCombination.of(T3)
    assert cup(TA, TB) == ClassCombination.zero()
    # the remaining listed relations
    assert cup(T1, TA) == ClassCombination.of(T3)
    assert cup(T1, TB) == ClassCombination.of(T3)
    assert cup(T1, T3) == ClassCombination.of(T4)
    assert cup(TA, TA) == ClassCombination.of(T4)
    assert cup(TB, TB) == ClassCombination.of(T4)


def test_cup_truncates_above_top_codimension():
    for i in Basis:
        for j in Basis:
            product = cup(i, j)
            if codim(i) + codim(j) > 4:
                assert product == ClassCombination.zero()
            for f, v in product.coeffs.items():
                assert v != 0
                assert codim(f) == codim(i) + codim(j)


def test_triple_examples():
    assert triple(T1, T1, TA) == 1
    assert triple(T0, T0, T4) == 1
    assert triple(T1, TA, TB) == 0


def test_triple_symmetric_and_graded():
    for i in Basis:
        for j in Basis:
            for k in Basis:
                a = triple(i, j, k)
                assert a == triple(j, i, k) == triple(k, j, i) == triple(i, k, j)
                if codim(i) + codim(j) + codim(k) != 4:
                    assert a == 0


def test_triple_equals_cup_paired():
    # ring/tensor consistency over all 216 triples
    for i in Basis:
        for j in Basis:
            for k in Basis:
                contracted = sum(
                    v * pairing(f, k) for f, v in cup(i, j).coeffs.items()
                )
                assert contracted == triple(i, j, k), (i, j, k)


def test_cup_commutative_and_associative():
    for i in Basis:
        for j in Basis:
            assert cup(i, j) == cup(j, i)
            for k in Basis:
                left = cup_combination(cup(i, j), ClassCombination.of(k))
                right = cup_combination(ClassCombination.of(i), cup(j, k))
                assert left == right, (i, j, k)


def test_plucker_degree_of_grassmannian():
    # integral of T1^4 = 2, the classical degree of G(2,4) in P^5
    t1_squared = cup(T1, T1)
    total = sum(
        v1 * v2 * pairing(c1, c2)
        for c1, v1 in t1_squared.coeffs.items()
        for c2, v2 in t1_squared.coeffs.items()
    )
    assert total == 2


def test_class_combination_repr():
    assert repr(ClassCombination.zero()) == "0"
    assert repr(ClassCombination.of(T3)) == "T3"
    # by basis order, and a coefficient of 1 is not written
    assert repr(ClassCombination({TB: 1, TA: 2})) == "2*Ta + Tb"
    assert repr(ClassCombination({T4: -1, T0: 3})) == "3*T0 + -1*T4"
