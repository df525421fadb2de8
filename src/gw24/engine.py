"""Degree-by-degree exact solver for the curve counts in G(2,4).

Degrees are solved strictly in ascending order: the degree-d linear system
produced by the associativity relations has constants built from all lower
degrees.  Within a degree the solver runs unit propagation over a
deterministic equation stream, in exact integers: every unit relation
c * N + k = 0 must force a nonnegative integer N, or the relation that
forced it is reported as violated.  The system is heavily over-determined,
and propagation alone has pinned every value of every degree measured
(d <= 20); there is no elimination fallback, so keys it leaves open are
reported as an underdetermined system.  Solved values are committed once,
by a single writer at each degree boundary, and never change; ``verify``
checks a stored table against every relation.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterator, NamedTuple

from .keys import (
    InvariantKey,
    SeedSet,
    Tuple4,
    canonical_keys,
    dimension_valid,
    tuples_of_weight,
)
from .relations import (
    WdvvEquation,
    build_equation,
    degree_one_failures,
    equation_families,
)
from .schubert import seed_invariants
from .verify import WdvvReport, verify_store
from .wdvv import PsiCalculator


class EngineError(Exception):
    """Base class for solver failures."""


class MissingValueError(EngineError):
    """A lower-degree value was needed but not solved (scheduling bug)."""


class UnderdeterminedSystemError(EngineError):
    def __init__(self, degree: int, unsolved):
        self.degree = degree
        self.unsolved = sorted(unsolved)
        preview = ", ".join(str(t) for t in self.unsolved[:6])
        more = "" if len(self.unsolved) <= 6 else f" (+{len(self.unsolved) - 6} more)"
        super().__init__(
            f"degree {degree}: underdetermined system, "
            f"unsolved keys: {preview}{more}"
        )


class InconsistencyError(EngineError):
    def __init__(self, degree: int, quadruple, target, detail: str = ""):
        self.degree = degree
        self.quadruple = quadruple
        self.target = target
        tail = f": {detail}" if detail else ""
        super().__init__(
            f"degree {degree}: violated relation at quadruple {quadruple}, "
            f"monomial {target}{tail}"
        )


class InvariantStore:
    """Exact-integer memo table of solved counts, committed per degree.

    Each degree is held as one table with every key in both alpha <-> beta
    orientations, inserted in sorted canonical order; the canonical view
    is derived from it.  A degree is published by a single assignment, so
    readers need no lock.
    """

    def __init__(self):
        self._raw: dict[int, dict[Tuple4, int]] = {}

    @property
    def max_degree(self) -> int:
        return len(self._raw)

    def degrees(self) -> list[int]:
        return list(range(1, self.max_degree + 1))

    def commit_degree(self, degree: int, values: dict[Tuple4, int]) -> None:
        if degree != self.max_degree + 1:
            raise EngineError(
                f"degrees commit in ascending order; got {degree} after "
                f"{self.max_degree}"
            )
        expected, keys = canonical_keys(degree)[1], values.keys()
        if keys != expected:
            raise EngineError(
                f"degree {degree}: wrong key set: first missing key "
                f"{min(expected - keys, default=None)}, first unexpected key "
                f"{min(keys - expected, default=None)}"
            )
        raw = {}
        for t in canonical_keys(degree)[0]:
            v = values[t]
            if type(v) is not int or v < 0:
                raise EngineError(
                    f"degree {degree}: value at {t} is not a nonnegative "
                    f"integer: {v!r}"
                )
            a, b, g, e = t
            raw[t] = v
            raw[(b, a, g, e)] = v
        self._raw[degree] = raw

    def canonical_table(self, degree: int) -> dict[Tuple4, int]:
        """A fresh {canonical key: value} dict of one degree, sorted."""
        return {t: v for t, v in self.raw_table(degree).items() if t[0] >= t[1]}

    def raw_table(self, degree: int) -> dict[Tuple4, int]:
        if degree not in self._raw:
            raise MissingValueError(f"degree {degree} has not been solved")
        return self._raw[degree]

    def raw_tables(self) -> dict[int, dict[Tuple4, int]]:
        return self._raw

    def value(self, key: InvariantKey) -> int:
        if not dimension_valid(key):
            return 0
        return self.raw_table(key.degree)[key[:4]]


class RuledSurfaceDegree(NamedTuple):
    value: int
    # Below degree 3 the count is not the degree of a variety of ruled
    # surfaces: degree 1 is empty and a quadric carries two rulings, so the
    # degree-2 count double-counts surfaces.
    caveat: bool


def solve_order(degree: int) -> list[tuple[int, int, list[Tuple4]]]:
    """Deterministic assembly order for the solver: cheapest targets first.

    Returns (cost, family index, targets) groups in (cost, index) order,
    where the cost (a + 1)(b + 1)(g + 1)(e + 1) of a target counts its
    splittings and ``targets`` lists, sorted, the targets of that cost in
    the family's weight class.  Flattened, the groups are every
    (cost, index, target) sorted, so monomials with few splittings (whose
    constants are cheap and whose unknowns are the concentrated ones) are
    consumed first.  Families with no unknown-bearing contraction are left
    to the verifier.

    Each distinct target weight is split into its cost groups once, and
    every family of that weight shares the group lists.
    """
    by_weight: dict[int, list[tuple[int, list[Tuple4]]]] = {}
    groups = []
    for fam in equation_families():
        if not fam.cross:
            continue
        w = fam.target_weight(degree)
        runs = by_weight.get(w)
        if runs is None:
            by_cost: dict[int, list[Tuple4]] = {}
            # tuples_of_weight is sorted, so each cost's list is too
            for t in tuples_of_weight(w):
                a, b, g, e = t
                by_cost.setdefault((a + 1) * (b + 1) * (g + 1) * (e + 1),
                                   []).append(t)
            runs = by_weight[w] = sorted(by_cost.items())
        groups += [(cost, fam.index, targets) for cost, targets in runs]
    # (cost, index) pairs are distinct, so the target lists never compare
    groups.sort()
    return groups


def solve_values(
    tables: dict[int, dict[Tuple4, int]],
    degree: int,
    seed_set: SeedSet | None,
) -> dict[Tuple4, int]:
    """Solve one degree from the raw tables of the degrees below it.

    Returns the value of every canonical key of ``degree``.  ``tables``
    may also hold ``degree`` and higher degrees, which are never read;
    ``seed_set`` supplies the degree-1 seeds and is read at degree 1 only.

    Seeds and assembled relations alike go through ``settle``; one with
    several open keys waits on the watch list of each.  Every assigned key
    is drained before the next relation is read, and the drain that leaves
    a relation one open key settles it, so none is open at return.  The
    loop skips relations whose keys the seeds settled, so at degree 1 the
    full table must then satisfy every relation (``degree_one_failures``).
    """
    unknowns = canonical_keys(degree)[1]
    assigned: dict[Tuple4, int] = {}
    # The assigned keys in both alpha <-> beta orientations, coded as
    # ((a*k + b)*k + g)*k + e; a target plus a shift has entries below k.
    k = 4 * degree + 8
    known: set[int] = set()
    queue: deque[Tuple4] = deque()
    # watch[t]: the parked relations [open terms, constant, (quadruple,
    # target)] that hold the open key t, in parking order.
    watch: dict[Tuple4, list] = {}

    def settle(terms: dict[Tuple4, int], const: int, src) -> None:
        """Act on the relation sum(c * N(t)) + const = 0 over its open keys:
        check it with none open, force the one open key, else watch each."""
        if not terms:
            if const != 0:
                raise InconsistencyError(degree, *src)
        elif len(terms) == 1:
            ((t, coeff),) = terms.items()
            value, rem = divmod(-const, coeff)
            if rem or value < 0:
                shown = f"{-const}/{coeff}" if rem else value
                raise InconsistencyError(
                    degree, src[0], src[1],
                    f"key {t} forced to {shown}, not a nonnegative integer",
                )
            if t not in assigned:
                assigned[t] = value
                a, b, g, e = t
                known.add(((a * k + b) * k + g) * k + e)
                known.add(((b * k + a) * k + g) * k + e)
                queue.append(t)
            elif assigned[t] != value:
                raise InconsistencyError(
                    degree, src[0], src[1],
                    f"key {t} forced to both {assigned[t]} and {value}",
                )
        else:
            eq = [terms, const, src]
            for t in terms:
                watch.setdefault(t, []).append(eq)

    def drain() -> None:
        while queue:
            t = queue.popleft()
            value = assigned[t]
            for eq in watch.pop(t, ()):
                terms = eq[0]
                if len(terms) > 1:  # else it is settled already
                    eq[1] += terms.pop(t) * value
                    if len(terms) == 1:
                        settle(*eq)

    if degree == 1:
        for key, v in seed_set.canonical_entries().items():
            settle({key[:4]: 1}, -v, (("seed",), key[:4]))
    drain()

    psi = PsiCalculator(tables)
    families = equation_families()
    # The distinct key shifts of each family's cross terms, as codes.
    shifts = [tuple(dict.fromkeys(
        ((sa * k + sb) * k + sg) * k + se
        for _c, _s, (sa, sb, sg, se), _n1 in fam.cross)) for fam in families]
    for _cost, fam_idx, targets in solve_order(degree):
        if len(assigned) == len(unknowns):
            break
        family, fam_shifts = families[fam_idx], shifts[fam_idx]
        for target in targets:
            # Constants are the expensive part of assembly; skip relations
            # that cannot assign anything new.  Redundant relations are
            # still checked wholesale by the verifier.
            ta, tb, tg, td = target
            code = ((ta * k + tb) * k + tg) * k + td
            for shift in fam_shifts:
                if code + shift not in known:
                    break
            else:
                continue
            eq = build_equation(family, target, degree, psi)
            terms: dict[Tuple4, int] = {}
            const = eq.constant
            for t, coeff in eq.terms:
                if t in assigned:
                    const += coeff * assigned[t]
                else:
                    terms[t] = coeff
            settle(terms, const, (eq.quadruple, target))
            drain()

    missing = unknowns - assigned.keys()
    if missing:
        raise UnderdeterminedSystemError(degree, missing)
    if degree == 1:
        for family, target, residual in degree_one_failures(assigned):
            raise InconsistencyError(1, family.quadruple, target,
                                     f"residual {residual}")
    return assigned


class Engine:
    """Solves, stores and serves the counts N(alpha,beta,gamma,delta;d)."""

    def __init__(self, seed_set: SeedSet | None = None):
        self.seed_set = seed_set if seed_set is not None else seed_invariants()
        self.store = InvariantStore()
        # Serializes the lazy solve: concurrent queries may both find a
        # degree missing, but only one may solve and commit it.
        self._solve_lock = threading.Lock()

    # -- solving ---------------------------------------------------------

    def solve_up_to(self, degree: int) -> None:
        for d in range(self.store.max_degree + 1, degree + 1):
            self.solve_degree(d)

    def solve_degree(self, degree: int) -> dict[Tuple4, int]:
        """Solve one degree and commit it.  Lower degrees must be solved."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
        with self._solve_lock:
            if degree <= self.store.max_degree:
                return self.store.canonical_table(degree)
            if degree != self.store.max_degree + 1:
                raise MissingValueError(
                    f"solve_degree({degree}) needs degree "
                    f"{self.store.max_degree + 1} first (e.g. key "
                    f"{canonical_keys(self.store.max_degree + 1)[0][0]})"
                )
            values = solve_values(self.store.raw_tables(), degree, self.seed_set)
            self.store.commit_degree(degree, values)
            return self.store.canonical_table(degree)

    # -- queries ---------------------------------------------------------

    def invariant(self, alpha: int, beta: int, gamma: int, delta: int,
                  degree: int) -> int:
        """N(alpha,beta,gamma,delta;degree); 0 for dimension-invalid keys."""
        key = InvariantKey(alpha, beta, gamma, delta, degree)
        if min(key) < 0:
            raise ValueError(f"key entries must be nonnegative: {key}")
        if not dimension_valid(key):
            return 0
        self.solve_up_to(key.degree)
        return self.store.value(key)

    def q_number(self, degree: int) -> int:
        """Count of degree-d rational curves in G(2,4) through 4d+1
        general codimension-2 point conditions (rational ruled surfaces in
        P^3 through 4d+1 general points, for degree >= 3)."""
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return self.invariant(4 * degree + 1, 0, 0, 0, degree)

    def ruled_surface_degree(self, degree: int) -> RuledSurfaceDegree:
        """d^3 * Q_d: the count with three added divisor insertions."""
        return RuledSurfaceDegree(
            value=degree**3 * self.q_number(degree), caveat=degree < 3
        )

    # -- equation access and verification --------------------------------

    def generate_equations(self, degree: int) -> Iterator[WdvvEquation]:
        """Yield every degree-``degree`` relation, family by family and
        target by target in lexicographic order.  Lower degrees must be
        solved already."""
        if self.store.max_degree < degree - 1:
            missing = self.store.max_degree + 1
            raise MissingValueError(
                f"generate_equations({degree}) needs degree {missing} solved "
                f"(e.g. key {canonical_keys(missing)[0][0]})"
            )
        psi = PsiCalculator(self.store.raw_tables())
        return (
            build_equation(fam, target, degree, psi)
            for fam in equation_families()
            for target in tuples_of_weight(fam.target_weight(degree))
        )

    def verify_wdvv(
        self, max_degree: int, exhaustive: bool = True, workers: int = 1
    ) -> WdvvReport:
        self.solve_up_to(max_degree)
        return verify_store(
            self.store, max_degree, exhaustive=exhaustive, workers=workers
        )

