"""Independent small-scale Schubert calculus for G(2,4).

This module cross-checks the cohomology tables by a different route:
partitions in the 2x2 box with Pieri rules, instead of the hard-wired
tensor tables.  It holds the six degree-1 seeds, checked by the quantum
Pieri q-terms (their scale) and the degree-1 associativity relations.  It
is limited to G(2,4); generality is a non-goal.  Everything is a pure
function over immutable tables.

Partition dictionary (bijection with the basis classes):

    ()     T0        (2,)   Ta  (= c2 of the quotient bundle, sigma_2)
    (1,)   T1        (1,1)  Tb  (= c2 of the tautological bundle, sigma_{1,1})
    (2,1)  T3        (2,2)  T4
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .cohomology import (Basis, ClassCombination, cup, cup_combination,
                         pairing, triple)
from .keys import InvariantKey, SeedSet
from .relations import degree_one_failures

Partition = tuple[int, ...]

PARTITIONS: tuple[Partition, ...] = ((), (1,), (2,), (1, 1), (2, 1), (2, 2))

CLASS_OF_PARTITION = {
    (): Basis.T0,
    (1,): Basis.T1,
    (2,): Basis.TA,
    (1, 1): Basis.TB,
    (2, 1): Basis.T3,
    (2, 2): Basis.T4,
}
PARTITION_OF_CLASS = {c: p for p, c in CLASS_OF_PARTITION.items()}

# Each basis class written as a polynomial in the two special classes
# s1 = sigma_1 and s2 = sigma_2, as {(power of s1, power of s2): coeff}.
_SPECIAL_POLY = {
    (): {(0, 0): 1},
    (1,): {(1, 0): 1},
    (2,): {(0, 1): 1},
    (1, 1): {(2, 0): 1, (0, 1): -1},
    (2, 1): {(1, 1): 1},
    (2, 2): {(0, 2): 1},
}


def _check_partition(lam: Partition) -> None:
    if lam not in CLASS_OF_PARTITION:
        raise ValueError(f"not a partition in the 2x2 box: {lam}")


def _pad(lam: Partition) -> tuple[int, int]:
    return (lam + (0, 0))[:2]


def _unpad(l1: int, l2: int) -> Partition:
    # every caller has added a box, so l1 >= 1
    return (l1, l2) if l2 > 0 else (l1,)


def _add_one_box(lam: Partition) -> list[Partition]:
    """Pieri for sigma_1: partitions obtained by adding one box, inside 2x2."""
    l1, l2 = _pad(lam)
    out = []
    if l1 < 2:
        out.append(_unpad(l1 + 1, l2))
    if l2 < l1 and l2 < 2:
        out.append(_unpad(l1, l2 + 1))
    return out


def _add_row_strip(lam: Partition) -> list[Partition]:
    """Pieri for sigma_2: add a horizontal 2-strip, inside the 2x2 box."""
    l1, l2 = _pad(lam)
    out = []
    # two boxes in the first row
    if l1 + 2 <= 2:
        out.append(_unpad(l1 + 2, l2))
    # one box per row: needs columns to differ, i.e. l2+1 <= l1
    if l1 + 1 <= 2 and l2 + 1 <= l1:
        out.append(_unpad(l1 + 1, l2 + 1))
    # two boxes in the second row: columns l2+1, l2+2 must sit under row one
    if l2 + 2 <= l1:
        out.append(_unpad(l1, l2 + 2))
    return out


def classical_pieri(lam: Partition) -> ClassCombination:
    """sigma_1 * sigma_lam in the classical ring, expanded in the basis."""
    _check_partition(lam)
    out: dict[Basis, int] = {}
    for mu in _add_one_box(lam):
        c = CLASS_OF_PARTITION[mu]
        out[c] = out.get(c, 0) + 1
    return ClassCombination(out)


def _expand_monomial(lam: Partition, m: int, n: int) -> dict[Partition, int]:
    """Coefficients of sigma_lam * s1^m * s2^n by iterated Pieri expansion."""
    current = {lam: 1}
    for rule in (_add_one_box,) * m + (_add_row_strip,) * n:
        step: dict[Partition, int] = {}
        for mu, coeff in current.items():
            for nu in rule(mu):
                step[nu] = step.get(nu, 0) + coeff
        current = step
    return current


def classical_triple_oracle(l1: Partition, l2: Partition, l3: Partition) -> int:
    """Integral of sigma_l1 * sigma_l2 * sigma_l3, by Pieri expansion.

    The second and third factors are rewritten as polynomials in the special
    classes s1, s2 and the product is pushed onto the first factor box by
    box; the answer is the coefficient of the point class (2,2).  Returns 0
    on codimension mismatch.
    """
    for lam in (l1, l2, l3):
        _check_partition(lam)
    if sum(l1) + sum(l2) + sum(l3) != 4:
        return 0
    total = 0
    for (m2, n2), c2 in _SPECIAL_POLY[l2].items():
        for (m3, n3), c3 in _SPECIAL_POLY[l3].items():
            expansion = _expand_monomial(l1, m2 + m3, n2 + n3)
            total += c2 * c3 * expansion.get((2, 2), 0)
    return total


@dataclass(frozen=True)
class QuantumClassCombination:
    """A class plus its first quantum correction (coefficient of q)."""

    classical_part: ClassCombination
    q_part: ClassCombination


def quantum_pieri(lam: Partition) -> QuantumClassCombination:
    """sigma_1 * sigma_lam in the small quantum ring of G(2,4).

    Only the two top classes acquire q-corrections:
    sigma_1 * sigma_(2,1) = sigma_(2,2) + q and sigma_1 * sigma_(2,2) =
    q sigma_(1).  The q-coefficients are pinned to the degree-1 pencil
    count I_1(T3, T4) = 1 through the divisor rule.
    """
    _check_partition(lam)
    if lam == (2, 1):
        return QuantumClassCombination(
            ClassCombination.of(Basis.T4), ClassCombination.of(Basis.T0)
        )
    if lam == (2, 2):
        return QuantumClassCombination(
            ClassCombination.zero(), ClassCombination.of(Basis.T1)
        )
    return QuantumClassCombination(classical_pieri(lam), ClassCombination.zero())


# Degree-1 seed invariants.  Each is an elementary pencil count: a degree-1
# curve in G(2,4) is the pencil of lines through a point p inside a plane h
# containing p.  See docs/degree_one_counts.md for the derivations.
_SEED_TABLE = {
    (0, 0, 1, 1): 1,  # flag condition plus a fixed line: one pencil
    (1, 1, 0, 1): 1,  # point + plane conditions plus a fixed line
    (2, 0, 0, 1): 0,  # no plane through a fixed line and two general points
    (0, 2, 0, 1): 0,  # symmetric image of the previous entry
    (1, 0, 2, 0): 1,  # two flags and a point condition
    (0, 1, 2, 0): 1,  # symmetric image of the previous entry
}

_SEED_NOTE = "docs/degree_one_counts.md (pencil incidence derivations)"


class SeedTableError(RuntimeError):
    """The seed table fails its cross-checks."""


def _seed_cross_checks() -> None:
    """Raise SeedTableError if the seeds contradict associativity.

    The degree-1 relations are homogeneous (see ``degree_one_failures``):
    among the seed keys alone they force N(2,0,0,1;1) = 0 and
    N(1,0,2,0;1) = N(1,1,0,1;1) = N(0,0,1,1;1), but not the scale.  The
    quantum Pieri q-terms fix it: the divisor rule ties both of them to the
    pencil count I_1(T3, T4) = N(0,0,1,1;1), which must be 1.  Relations read the
    alpha >= beta image of each key; ``SeedSet`` checks the other images.
    """
    pencil = _SEED_TABLE[(0, 0, 1, 1)]
    top = quantum_pieri((2, 1))
    if top.q_part != ClassCombination.of(Basis.T0, pencil):
        raise SeedTableError("quantum Pieri q-term at (2,1) disagrees with seeds")
    point = quantum_pieri((2, 2))
    if point.q_part != ClassCombination.of(Basis.T1, pencil):
        raise SeedTableError("quantum Pieri q-term at (2,2) disagrees with seeds")
    canonical = {t: v for t, v in _SEED_TABLE.items() if t[0] >= t[1]}
    for family, target, residual in degree_one_failures(canonical):
        raise SeedTableError(
            "seed table fails the associativity cross-check: degree-1 "
            f"relation at quadruple {family.quadruple}, monomial {target}, "
            f"has residual {residual}"
        )


def seed_invariants() -> SeedSet:
    """The six degree-1 seeds; a defect in the table raises SeedTableError."""
    _seed_cross_checks()
    entries = {
        InvariantKey(a, b, g, d, 1): v for (a, b, g, d), v in _SEED_TABLE.items()
    }
    try:
        return SeedSet(entries=entries, provenance_note=_SEED_NOTE)
    except ValueError as exc:
        raise SeedTableError(str(exc)) from exc


def classical_consistency_failures() -> list[str]:
    """Cross-check the hard-wired triple tensor against this oracle.

    Covers the 56 stored triples (sorted index triples), the pairing (the
    tensor's T0 slice) being a 0/1 matrix that is its own inverse, and
    associativity of the cup product.  Returns a list of human-readable
    failure descriptions; empty means consistent.
    """
    failures = []
    for i, j, k in combinations_with_replacement(Basis, 3):
        expected = classical_triple_oracle(
            PARTITION_OF_CLASS[i], PARTITION_OF_CLASS[j], PARTITION_OF_CLASS[k]
        )
        got = triple(i, j, k)
        if got != expected:
            failures.append(
                f"triple({i.label},{j.label},{k.label}) = {got}, "
                f"oracle says {expected}"
            )
    square = [
        [
            sum(pairing(i, e) * pairing(e, j) for e in Basis)
            for j in Basis
        ]
        for i in Basis
    ]
    identity = [[1 if i == j else 0 for j in Basis] for i in Basis]
    # cup contracts with the inverse pairing, read as each class's Poincare
    # dual; no other pairing has one for every class
    if square != identity:
        return failures + ["pairing matrix is not its own inverse"]
    if any(pairing(i, j) < 0 for i in Basis for j in Basis):
        return failures + ["pairing matrix has a negative entry"]
    for i, j, k in product(Basis, repeat=3):
        left = cup_combination(cup(i, j), ClassCombination.of(k))
        right = cup_combination(ClassCombination.of(i), cup(j, k))
        if left != right:
            failures.append(
                f"cup not associative at ({i.label},{j.label},{k.label})"
            )
    return failures
