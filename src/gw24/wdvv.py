"""Associativity relations for the quantum product on G(2,4).

The quantum product is associative, and associativity written out against
the basis gives, for every ordered quadruple of basis classes (i,j,k,l),

    sum_{e,f} F_{ije} g^{ef} F_{fkl}  =  sum_{e,f} F_{jke} g^{ef} F_{fil},

where F_{xyz} is the third partial of the full (classical + quantum)
potential and g is the intersection form.  Reading off the coefficient of a
fixed monomial ya^a yb^b y3^g y4^e / (a! b! g! e!) times the degree marker
e^{d y1} turns each such identity into one linear equation among the
degree-d counts, with a constant assembled from lower degrees.

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
  other classes, so N(a,b,g,e;d) = N(b,a,g,e;d) and a product series
  over the triples (sigma1, sigma2) is the series over their duals with
  the alpha and beta exponents swapped: only one pair of each dual orbit
  is ever convolved.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

from .cohomology import CODIM, LABELS, triple
from .keys import tuples_of_weight

# Basis indices 0..5 = T0, T1, Ta, Tb, T3, T4.  Quadruples are drawn from
# the five positive-codimension classes.
QUANTUM_CLASSES = (1, 2, 3, 4, 5)

# Oriented index pairs (e, f) with g^{ef} = 1.
ORIENTED_PAIRS = ((0, 5), (5, 0), (1, 4), (4, 1), (2, 2), (3, 3))

# The duality of G(2,4) on basis indices: Ta <-> Tb, every other class fixed.
DUAL = (0, 1, 3, 2, 4, 5)

Pair = tuple[int, int]
Pairing = tuple[Pair, Pair]
Triple = tuple[int, int, int]
Tuple4 = tuple[int, int, int, int]


@lru_cache(maxsize=None)
def triple_info(sigma: Triple):
    """(shift, n1, alive) for a sorted index triple.

    ``shift`` counts the (Ta, Tb, T3, T4) insertions the triple adds to a
    key, ``n1`` the number of T1 derivatives (each worth a factor of the
    curve degree), and ``alive`` is False when the triple contains the unit
    class, whose derivative kills every quantum term.
    """
    shift = (sigma.count(2), sigma.count(3), sigma.count(4), sigma.count(5))
    return shift, sigma.count(1), 0 not in sigma


def shift_weight(shift: Tuple4) -> int:
    return shift[0] + shift[1] + 2 * shift[2] + 3 * shift[3]


def dual_pair(sigma1: Triple, sigma2: Triple) -> tuple[Triple, Triple]:
    """The sorted pair of the dual triples of ``sigma1`` and ``sigma2``."""
    dual1 = tuple(sorted(DUAL[i] for i in sigma1))
    dual2 = tuple(sorted(DUAL[i] for i in sigma2))
    return (dual1, dual2) if dual1 <= dual2 else (dual2, dual1)


@lru_cache(maxsize=None)
def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: ``pascal_row(n)[k] == comb(n, k)``."""
    return tuple(comb(n, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def pascal_column(k: int, n: int) -> tuple[int, ...]:
    """Column k of Pascal's triangle down to row k + n:
    ``pascal_column(k, n)[j] == comb(k + j, k)`` for j <= n."""
    return tuple(comb(k + j, k) for j in range(n + 1))


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
      lower degrees only, as (sign, sigma1, sigma2).
    """

    classes: Tuple4
    positive: Pairing
    negative: Pairing
    quadruple: Tuple4
    codim_total: int
    cross: tuple[tuple[int, Triple, Tuple4, int], ...]
    quantum: tuple[tuple[int, Triple, Triple], ...]

    def target_weight(self, degree: int) -> int:
        return 4 * degree + 4 - self.codim_total

    def label(self) -> str:
        return "(" + ",".join(LABELS[c] for c in self.quadruple) + ")"


def _pairings_of(ms: Tuple4) -> list[Pairing]:
    out = set()
    for a, b in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        p1 = tuple(sorted((ms[a[0]], ms[a[1]])))
        p2 = tuple(sorted((ms[b[0]], ms[b[1]])))
        out.add(tuple(sorted((p1, p2))))
    return sorted(out)


def _resolve_quadruple(pos: Pairing, neg: Pairing) -> Tuple4:
    """An ordering (i,j,k,l) with {i,j},{k,l} = pos and {j,k},{i,l} = neg."""
    halves = [pos, (pos[1], pos[0])]
    for first, second in halves:
        for i, j in (first, first[::-1]):
            for k, l in (second, second[::-1]):
                if tuple(sorted((tuple(sorted((j, k))), tuple(sorted((i, l)))))) == neg:
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


@lru_cache(maxsize=1)
def equation_families() -> tuple[EquationFamily, ...]:
    """All associativity relations, in a fixed deterministic order.

    One family per unordered pair of distinct pairings of each unit-free
    class multiset.  Multisets of shape xxxx or xxxy admit a single pairing
    and contribute nothing.
    """
    fams = []
    for ms in combinations_with_replacement(QUANTUM_CLASSES, 4):
        pairings = _pairings_of(ms)
        for pos, neg in combinations(pairings, 2):
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
                    quantum=tuple(quantum_pos + quantum_neg),
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


class PsiCalculator:
    """Degree-shifted views of the solved tables, and the quantum-times-
    quantum constants built from them.

    ``tables`` maps each solved degree to its raw table {(a,b,g,d): value}
    containing every valid exponent tuple of that degree in both symmetry
    orientations, with equal values (the Ta <-> Tb duality).
    ``shifted_items`` reindexes one degree's nonzero values by the target
    monomials a quantum third partial feeds, which is both a factor of the
    products below and a relation's cross part at its own degree.  Two
    evaluation modes for the products: ``at`` enumerates the splittings of
    a single target (cheap for one equation), ``series`` convolves whole
    degree tables (cheap when a family needs every target of its weight
    class) and derives a pair's series from its dual pair's by swapping
    alpha and beta, so each dual orbit is convolved once.  Binomials come
    from the cached Pascal rows and columns.  All are pure given the
    tables and memoized, so instances may be shared by concurrent readers
    once built.
    """

    def __init__(self, tables: dict[int, dict[Tuple4, int]]):
        self.tables = tables
        self._items: dict[tuple[int, Triple], list] = {}
        self._series: dict[tuple[int, Triple, Triple], dict[Tuple4, int]] = {}

    def shifted_items(self, degree: int, sigma: Triple):
        """Nonzero degree-``degree`` values reindexed by target exponents.

        Entry (a, b, g, e, v * degree**n1) stands for the key
        (a,b,g,e) + shift(sigma); keys not dominating the shift contribute
        nothing to any product and are dropped.  ``sigma`` never holds the
        unit class: ``equation_families`` drops those terms.
        """
        memo_key = (degree, sigma)
        cached = self._items.get(memo_key)
        if cached is not None:
            return cached
        (sa, sb, sg, se), n1, _alive = triple_info(sigma)
        items = []
        dpow = degree**n1
        for (a, b, g, e), v in self.tables[degree].items():
            if v and a >= sa and b >= sb and g >= sg and e >= se:
                items.append((a - sa, b - sb, g - sg, e - se, v * dpow))
        self._items[memo_key] = items
        return items

    def at(self, sigma1: Triple, sigma2: Triple, target: Tuple4, degree: int) -> int:
        """Coefficient of the target monomial in the product of the two
        quantum third-partial series, at total curve degree ``degree``."""
        shift1, n1, _alive1 = triple_info(sigma1)
        shift2, n2, _alive2 = triple_info(sigma2)
        if degree < 2:
            return 0
        w1 = shift_weight(shift1)
        ta, tb, tg, td = target
        s1a, s1b, s1g, s1d = shift1
        s2a, s2b, s2g, s2d = shift2
        row_a, row_b = pascal_row(ta), pascal_row(tb)
        row_g, row_d = pascal_row(tg), pascal_row(td)
        # d1**n1 * d2**n2, indexed by the first factor's degree d1.
        dpow = [d1**n1 * (degree - d1) ** n2 for d1 in range(degree)]
        tables = self.tables
        total = 0
        for d1v in range(td + 1):
            for g1 in range(tg + 1):
                wgd = row_g[g1] * row_d[d1v]
                for b1 in range(tb + 1):
                    base = b1 + 2 * g1 + 3 * d1v + w1
                    # a1 must make the first factor a valid key of some
                    # degree in [1, degree-1]: weight = 4 d1 + 1.
                    lo = 5 - base
                    hi = min(ta, 4 * (degree - 1) + 1 - base)
                    start = max(lo, 0)
                    rem = (1 - base - start) % 4
                    start += rem
                    wb = row_b[b1] * wgd
                    for a1 in range(start, hi + 1, 4):
                        d1 = (base + a1 - 1) // 4
                        v1 = tables[d1].get((a1 + s1a, b1 + s1b, g1 + s1g, d1v + s1d))
                        if not v1:
                            continue
                        v2 = tables[degree - d1].get(
                            (ta - a1 + s2a, tb - b1 + s2b, tg - g1 + s2g, td - d1v + s2d)
                        )
                        if not v2:
                            continue
                        total += row_a[a1] * wb * dpow[d1] * v1 * v2
        return total

    def series(self, sigma1: Triple, sigma2: Triple, degree: int) -> dict[Tuple4, int]:
        """The whole product series at total degree ``degree``."""
        if sigma2 < sigma1:
            sigma1, sigma2 = sigma2, sigma1
        memo_key = (degree, sigma1, sigma2)
        cached = self._series.get(memo_key)
        if cached is not None:
            return cached
        dual = dual_pair(sigma1, sigma2)
        if dual < (sigma1, sigma2):
            rep = self.series(*dual, degree)
            out = {(b, a, g, e): v for (a, b, g, e), v in rep.items()}
            self._series[memo_key] = out
            return out
        out: dict[Tuple4, int] = {}
        get = out.get
        # Every exponent of a key below ``degree`` is at most 4 * degree.
        n = 4 * degree
        for d1 in range(1, degree):
            items1 = self.shifted_items(d1, sigma1)
            if not items1:
                continue
            items2 = self.shifted_items(degree - d1, sigma2)
            if not items2:
                continue
            for a1, b1, g1, e1, v1 in items1:
                col_a, col_b = pascal_column(a1, n), pascal_column(b1, n)
                col_g, col_e = pascal_column(g1, n), pascal_column(e1, n)
                for a2, b2, g2, e2, v2 in items2:
                    t = (a1 + a2, b1 + b2, g1 + g2, e1 + e2)
                    out[t] = get(t, 0) + (
                        col_a[a2] * col_b[b2] * col_g[g2] * col_e[e2] * v1 * v2
                    )
        self._series[memo_key] = out
        return out


def build_equation(
    family: EquationFamily,
    target: Tuple4,
    degree: int,
    psi: PsiCalculator,
) -> WdvvEquation:
    """Assemble the relation of ``family`` at one target monomial."""
    terms: dict[Tuple4, int] = {}
    ta, tb, tg, td = target
    for coeff, _sigma, (sa, sb, sg, se), n1 in family.cross:
        a, b = ta + sa, tb + sb
        if a < b:
            a, b = b, a
        t = (a, b, tg + sg, td + se)
        terms[t] = terms.get(t, 0) + coeff * degree**n1
    constant = sum(
        sign * psi.at(sigma1, sigma2, target, degree)
        for sign, sigma1, sigma2 in family.quantum
    )
    clean = tuple(sorted((k, c) for k, c in terms.items() if c != 0))
    return WdvvEquation(
        quadruple=family.quadruple,
        target=target,
        degree=degree,
        terms=clean,
        constant=constant,
    )


def solve_order(degree: int) -> list[tuple[int, int, Tuple4]]:
    """Deterministic assembly order for the solver: cheapest targets first.

    Returns (cost, family index, target) triples sorted so that monomials
    with few splittings (whose constants are cheap and whose unknowns are
    the concentrated ones) are consumed first.  Families with no
    unknown-bearing contraction are left to the verifier.
    """
    items = []
    for idx, fam in enumerate(equation_families()):
        w = fam.target_weight(degree)
        if w < 0:
            continue
        if not fam.cross:
            continue
        for t in tuples_of_weight(w):
            cost = (t[0] + 1) * (t[1] + 1) * (t[2] + 1) * (t[3] + 1)
            items.append((cost, idx, t))
    items.sort()
    return items

