"""Associativity relations for the quantum product on G(2,4).

The quantum product is associative, and associativity written out against
the basis gives, for every ordered quadruple of basis classes (i,j,k,l),

    sum_{e,f} F_{ije} g^{ef} F_{fkl}  =  sum_{e,f} F_{jke} g^{ef} F_{fil},

where F_{xyz} is the third partial of the full (classical + quantum)
potential and g is the intersection form.  Reading off the coefficient of a
fixed monomial ya^a yb^b y3^g y4^e / (a! b! g! e!) times the degree marker
e^{d y1} turns each such identity into one linear equation among the
degree-d counts, with a constant assembled from lower degrees by the
product kernels of ``wdvv``.

Structure exploited throughout this module:

* quadruples containing the unit class are identically satisfied and are
  never generated;
* for a unit-free quadruple of total codimension C, every quantum term of
  its relation (linear and constant alike) sits in the single monomial
  weight class 4d + 4 - C, so targets are enumerated per family rather
  than over a global box;
* a derivative in y1 multiplies a quantum term by its curve degree, and a
  derivative in y0 kills it, so the divisor and fundamental-class rules
  are built into the coefficient extraction;
* G(2,4) is self-dual, and the duality swaps Ta and Tb while fixing the
  other classes, so N(a,b,g,e;d) = N(b,a,g,e;d).  It maps each family's
  relations to those of its dual family (``EquationFamily.dual``) at the
  mirrored target (b, a, g, e), up to the sign ``dual_sign``, so a
  relation's constant is computed once per dual pair of relations.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .cohomology import CODIM, LABELS, triple
from .keys import Tuple4, tuples_of_weight
from .wdvv import PsiCalculator, Triple, dual_pair, triple_info

# Basis indices 0..5 = T0, T1, Ta, Tb, T3, T4.  Quadruples are drawn from
# the five positive-codimension classes.
QUANTUM_CLASSES = (1, 2, 3, 4, 5)

# Oriented index pairs (e, f) with g^{ef} = 1.
ORIENTED_PAIRS = ((0, 5), (5, 0), (1, 4), (4, 1), (2, 2), (3, 3))

Pair = tuple[int, int]
Pairing = tuple[Pair, Pair]


@dataclass(frozen=True)
class EquationFamily:
    """One associativity relation: the difference of two pairings.

    ``classes`` is the sorted index quadruple, ``positive``/``negative``
    the two distinct ways of splitting it into outer pairs, ``quadruple``
    an ordering (i,j,k,l) realizing positive = {ij|kl}, negative = {jk|il}
    (used for reporting), and ``codim_total`` the total codimension, which
    fixes the monomial weight class 4d + 4 - codim_total at degree d.

    The relation's terms, with the pairing's sign folded in, positive
    pairing first:

    * ``cross`` lists the classical-times-quantum contractions, which are
      linear in the degree-d counts, as (sign * A, sigma, shift, n1): the
      classical triple value A times the quantum third partial over the
      sorted index triple ``sigma``, whose key shift and T1 count are
      ``triple_info(sigma)``;
    * ``quantum`` lists the quantum-times-quantum products, built from
      lower degrees only, as (coeff, sigma1, sigma2) with sigma1 <= sigma2.
      The product is symmetric, so the terms of both pairings over the same
      pair of triples are merged into one: ``coeff`` is the sum of their
      signs, +-1 or +-2, and pairs whose signs cancel are dropped.

    ``index`` is the family's place in ``equation_families()``, and
    ``dual`` the place of its image under the Ta <-> Tb duality, whose
    pairings are this family's with Ta and Tb swapped: in the same roles
    when ``dual_sign`` is 1, exchanged when it is -1.  The relation at
    (a, b, g, e) is then ``dual_sign`` times the dual's at (b, a, g, e).
    """

    classes: Tuple4
    positive: Pairing
    negative: Pairing
    quadruple: Tuple4
    codim_total: int
    cross: tuple[tuple[int, Triple, Tuple4, int], ...]
    quantum: tuple[tuple[int, Triple, Triple], ...]
    index: int
    dual: int
    dual_sign: int

    def target_weight(self, degree: int) -> int:
        return 4 * degree + 4 - self.codim_total

    def label(self) -> str:
        return "(" + ",".join(LABELS[c] for c in self.quadruple) + ")"


def _pairing(i: int, j: int, k: int, l: int) -> Pairing:
    """The pairing {ij|kl}, each pair sorted and the two pairs sorted."""
    return tuple(sorted((tuple(sorted((i, j))), tuple(sorted((k, l))))))


def _resolve_quadruple(pos: Pairing, neg: Pairing) -> Tuple4:
    """An ordering (i,j,k,l) with {i,j},{k,l} = pos and {j,k},{i,l} = neg."""
    (i, j), (k, l) = pos
    # the six other orderings of pos give the same two candidates for neg
    for k, l in ((k, l), (l, k)):
        if _pairing(j, k, i, l) == neg:
            return (i, j, k, l)
    raise AssertionError(f"incompatible pairings {pos} / {neg}")


def _pairing_structure(pairing: Pairing, sign: int):
    """The cross and quantum terms of one pairing {ij|kl}, signed."""
    (i, j), (k, l) = pairing
    cross = []
    quantum = []
    for e, f in ORIENTED_PAIRS:
        left = tuple(sorted((i, j, e)))
        right = tuple(sorted((f, k, l)))
        # Basis is an IntEnum, so plain index triples look up A; building
        # enum members here would dominate the cost of equation_families().
        for a_val, sigma in ((triple(*left), right), (triple(*right), left)):
            shift, n1, alive = triple_info(sigma)
            if a_val and alive:
                cross.append((sign * a_val, sigma, shift, n1))
        if e != 0 and f != 0:
            quantum.append((sign, left, right))
    return cross, quantum


def _merge_quantum(terms) -> tuple[tuple[int, Triple, Triple], ...]:
    """Sum the signs of terms over the same unordered pair of triples (the
    product is symmetric) and drop the pairs that cancel."""
    merged: dict[tuple[Triple, Triple], int] = {}
    for sign, sigma1, sigma2 in terms:
        pair = (sigma1, sigma2) if sigma1 <= sigma2 else (sigma2, sigma1)
        merged[pair] = merged.get(pair, 0) + sign
    return tuple((c, s1, s2) for (s1, s2), c in merged.items() if c)


@lru_cache(maxsize=1)
def equation_families() -> tuple[EquationFamily, ...]:
    """All associativity relations, in a fixed deterministic order.

    One family per unordered pair of distinct pairings of each unit-free
    class multiset.  Multisets of shape xxxx or xxxy admit a single pairing
    and contribute nothing.
    """
    relations = [
        (ms, pos, neg)
        for ms in combinations_with_replacement(QUANTUM_CLASSES, 4)
        for pos, neg in combinations(sorted({
            _pairing(*ms), _pairing(ms[0], ms[2], ms[1], ms[3]),
            _pairing(ms[0], ms[3], ms[1], ms[2])}), 2)
    ]
    # (index, sign) of each family by its pairings, in either role
    place = {}
    for idx, (_ms, pos, neg) in enumerate(relations):
        place[pos, neg], place[neg, pos] = (idx, 1), (idx, -1)
    fams = []
    for idx, (ms, pos, neg) in enumerate(relations):
        dual, dual_sign = place[dual_pair(*pos), dual_pair(*neg)]
        cross_pos, quantum_pos = _pairing_structure(pos, 1)
        cross_neg, quantum_neg = _pairing_structure(neg, -1)
        fams.append(
            EquationFamily(
                classes=ms,
                positive=pos,
                negative=neg,
                quadruple=_resolve_quadruple(pos, neg),
                codim_total=sum(CODIM[c] for c in ms),
                cross=tuple(cross_pos + cross_neg),
                quantum=_merge_quantum(quantum_pos + quantum_neg),
                index=idx,
                dual=dual,
                dual_sign=dual_sign,
            )
        )
    return tuple(fams)


@dataclass(frozen=True)
class WdvvEquation:
    """One linear relation among the degree-``degree`` counts.

    ``terms`` pairs canonical (alpha >= beta) exponent tuples of degree
    ``degree`` with their nonzero integer coefficients, sorted by tuple;
    ``constant`` folds in everything built from lower degrees.  The
    relation asserts  sum(c * N(t; degree)) + constant = 0.
    """

    quadruple: Tuple4
    target: Tuple4
    degree: int
    terms: tuple[tuple[Tuple4, int], ...]
    constant: int

    def residual(self, table: dict[Tuple4, int]) -> int:
        """The (should-be-zero) evaluation against one degree's table."""
        return sum(c * table[t] for t, c in self.terms) + self.constant


def relation_terms(family: EquationFamily, target: Tuple4,
                   degree: int) -> tuple[tuple[Tuple4, int], ...]:
    """The cross terms of the relation of ``family`` at one target
    monomial, folded onto canonical (alpha >= beta) keys: the nonzero
    (key, coefficient) pairs, sorted by key."""
    terms: dict[Tuple4, int] = {}
    ta, tb, tg, td = target
    for coeff, _sigma, (sa, sb, sg, se), n1 in family.cross:
        a, b = ta + sa, tb + sb
        if a < b:
            a, b = b, a
        t = (a, b, tg + sg, td + se)
        terms[t] = terms.get(t, 0) + coeff * degree**n1
    return tuple(sorted((k, c) for k, c in terms.items() if c != 0))


def build_equation(
    family: EquationFamily,
    target: Tuple4,
    degree: int,
    psi: PsiCalculator,
) -> WdvvEquation:
    """Assemble the relation of ``family`` at one target monomial; its
    constant comes from ``psi.constant``, which computes it once per dual
    pair of relations."""
    return WdvvEquation(
        quadruple=family.quadruple,
        target=target,
        degree=degree,
        terms=relation_terms(family, target, degree),
        constant=psi.constant(family, target, degree),
    )


def degree_one_failures(values: dict[Tuple4, int]):
    """Yield (family, target, residual) for each degree-1 relation whose
    keys all have a value in ``values`` (keyed canonically) and which those
    values do not satisfy.  A product of quantum terms needs degree 2 or
    more, so these relations have no constant."""
    for family in equation_families():
        for target in tuples_of_weight(family.target_weight(1)):
            terms = relation_terms(family, target, 1)
            if all(t in values for t, _c in terms):
                residual = sum(c * values[t] for t, c in terms)
                if residual:
                    yield family, target, residual
