"""Degree-by-degree exact solver for the curve counts in G(2,4).

Degrees are solved strictly in ascending order: the degree-d linear system
produced by the associativity relations has constants built from all lower
degrees.  Within a degree the solver runs unit propagation over a
deterministic equation stream, in exact integers: every unit relation
c * N + k = 0 must force a nonnegative integer N, or the relation that
forced it is reported as violated.  The system is heavily over-determined,
and propagation alone has pinned every value of every degree measured
(d <= 17); there is no elimination fallback, so keys it leaves open are
reported as an underdetermined system.  Solved values are committed once
and never change.

Equation generation and ``solve_values`` are pure given a read-only
snapshot of the lower degrees, so the lean verifier re-solves each degree
straight from a stored table and verification work can be split across
processes; commits happen on a single writer at each degree boundary.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .keys import (
    InvariantKey,
    SeedSet,
    canonical_tuples,
    dimension_valid,
    tuples_of_weight,
)
from .schubert import seed_invariants
from .wdvv import (
    PsiCalculator,
    Tuple4,
    WdvvEquation,
    build_equation,
    dual_pair,
    equation_families,
    solve_order,
)


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
        expected = set(canonical_tuples(degree))
        if set(values) != expected:
            raise EngineError(f"degree {degree}: incomplete value set")
        for t, v in values.items():
            if not isinstance(v, int) or v < 0:
                raise EngineError(
                    f"degree {degree}: value at {t} is not a nonnegative "
                    f"integer: {v!r}"
                )
        raw = {}
        for (a, b, g, e), v in sorted(values.items()):
            raw[(a, b, g, e)] = v
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

    def copy(self) -> "InvariantStore":
        out = InvariantStore()
        for d in self.degrees():
            out.commit_degree(d, self.canonical_table(d))
        return out


@dataclass(frozen=True)
class Violation:
    degree: int
    quadruple: Tuple4
    target: Tuple4
    residual: int


@dataclass(frozen=True)
class WdvvReport:
    max_degree: int
    equations_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class RuledSurfaceDegree(NamedTuple):
    value: int
    # Below degree 3 the count is not the degree of a variety of ruled
    # surfaces: degree 1 is empty and a quadric carries two rulings, so the
    # degree-2 count double-counts surfaces.
    caveat: bool


def _seed_assignments(seed_set: SeedSet) -> dict[Tuple4, int]:
    out: dict[Tuple4, int] = {}
    for key, value in seed_set.canonical_entries().items():
        if key.degree != 1:
            raise EngineError(f"seed {key} is not a degree-1 key")
        if not dimension_valid(key):
            raise EngineError(f"seed {key} violates the dimension condition")
        out[key[:4]] = value
    return out


def solve_values(
    tables: dict[int, dict[Tuple4, int]],
    degree: int,
    seed_set: SeedSet | None,
) -> tuple[dict[Tuple4, int], int]:
    """Solve one degree from the raw tables of the degrees below it.

    Returns the value of every canonical key of ``degree`` and the number
    of relations assembled.  ``tables`` may also hold ``degree`` and
    higher degrees, which are never read.  ``seed_set`` supplies the
    degree-1 seeds and is not read at higher degrees.
    """
    unknowns = set(canonical_tuples(degree))
    assigned: dict[Tuple4, int] = {}
    queue: deque[Tuple4] = deque()
    # pending[i] = [open terms, constant, (quadruple, target)]; an entry is
    # replaced by None once it has at most one open key left.
    pending: list = []
    index: dict[Tuple4, set[int]] = {}

    def put(t: Tuple4, value: int, src) -> None:
        if t in assigned:
            if assigned[t] != value:
                raise InconsistencyError(
                    degree, src[0], src[1],
                    f"key {t} forced to both {assigned[t]} and {value}",
                )
            return
        assigned[t] = value
        queue.append(t)

    def settle(terms: dict[Tuple4, int], const: int, src) -> None:
        """Act on the relation sum(c * N(t)) + const = 0 over its open keys:
        check it when none is open, force the one open key, else park it."""
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
            put(t, value, src)
        else:
            eid = len(pending)
            pending.append([terms, const, src])
            for t in terms:
                index.setdefault(t, set()).add(eid)

    def drain() -> None:
        while queue:
            t = queue.popleft()
            value = assigned[t]
            for eid in sorted(index.pop(t, ())):
                eq = pending[eid]
                if eq is None:
                    continue
                coeff = eq[0].pop(t, None)
                if coeff is None:
                    continue
                eq[1] += coeff * value
                if len(eq[0]) <= 1:
                    pending[eid] = None
                    settle(*eq)

    if degree == 1:
        for t, v in _seed_assignments(seed_set).items():
            put(t, v, (("seed",), t))
    drain()

    psi = PsiCalculator(tables)
    families = equation_families()
    assembled = 0
    for _cost, fam_idx, target in solve_order(degree):
        if len(assigned) == len(unknowns):
            break
        # Constants are the expensive part of assembly; skip relations
        # that cannot assign anything new.  Redundant relations are still
        # checked wholesale by the verifier.
        fam = families[fam_idx]
        ta, tb, tg, td = target
        for _c, _sigma, (sa, sb, sg, se), _n1 in fam.cross:
            a, b = ta + sa, tb + sb
            if a < b:
                a, b = b, a
            if (a, b, tg + sg, td + se) not in assigned:
                break
        else:
            continue
        eq = build_equation(fam, target, degree, psi)
        assembled += 1
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

    for eq in pending:
        if eq is not None:
            residual = eq[1] + sum(c * assigned[t] for t, c in eq[0].items())
            if residual != 0:
                raise InconsistencyError(degree, *eq[2])
    return assigned, assembled


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
                    f"{canonical_tuples(self.store.max_degree + 1)[0]})"
                )
            values, _assembled = solve_values(
                self.store.raw_tables(), degree, self.seed_set
            )
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
        if degree < 1:
            raise ValueError("degree must be >= 1")
        return RuledSurfaceDegree(
            value=degree**3 * self.q_number(degree), caveat=degree < 3
        )

    # -- equation access and verification --------------------------------

    def generate_equations(self, degree: int) -> Iterator[WdvvEquation]:
        """Yield every degree-``degree`` relation, family by family and
        target by target in lexicographic order.  Lower degrees must be
        solved already."""
        if degree < 1:
            return iter(())
        if self.store.max_degree < degree - 1:
            missing = self.store.max_degree + 1
            raise MissingValueError(
                f"generate_equations({degree}) needs degree {missing} solved "
                f"(e.g. key {canonical_tuples(missing)[0]})"
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


def _conv_jobs(max_degree: int):
    """Distinct lower-degree product series the exhaustive check needs."""
    jobs = set()
    for degree in range(2, max_degree + 1):
        for fam in equation_families():
            if fam.target_weight(degree) < 0:
                continue
            for _sign, sigma1, sigma2 in fam.quantum:
                jobs.add((degree, *sorted((sigma1, sigma2))))
    return sorted(jobs)


_WORKER_PSI: PsiCalculator | None = None


def _worker_init(tables):
    global _WORKER_PSI
    _WORKER_PSI = PsiCalculator(tables)


def _worker_series(job):
    degree, sigma1, sigma2 = job
    return job, _WORKER_PSI.series(sigma1, sigma2, degree)


def _prefill_series(psi: PsiCalculator, max_degree: int, workers: int) -> None:
    """Compute the product series on a process pool (pure, read-only).

    Only the representative of each dual orbit goes to the pool; the
    serial check derives the mirrored series from it on first use.
    """
    import multiprocessing as mp

    jobs = [
        (degree, s1, s2)
        for degree, s1, s2 in _conv_jobs(max_degree)
        if (s1, s2) <= dual_pair(s1, s2)
    ]
    ctx = mp.get_context()
    with ctx.Pool(workers, initializer=_worker_init,
                  initargs=(psi.tables,)) as pool:
        for (degree, s1, s2), series in pool.imap_unordered(
            _worker_series, jobs, chunksize=4
        ):
            psi._series[(degree, s1, s2)] = series


def verify_store(
    store: InvariantStore,
    max_degree: int,
    exhaustive: bool = True,
    workers: int = 1,
) -> WdvvReport:
    """Re-generate the relations for every degree <= max_degree and check
    them against the stored values.

    With ``exhaustive`` the full equation set is re-derived family by
    family (constants re-convolved from the stored lower degrees, so a
    perturbed store cannot satisfy them).  Otherwise each degree is
    re-solved from the stored degrees below it and compared table against
    table (degree 1, whose solve needs the seeds, is replayed relation by
    relation instead); a mismatching degree is then escalated to the full
    per-relation check so the report still names violated relations.
    ``workers`` > 1 spreads the series convolutions over processes;
    results are identical to the serial run.
    """
    if store.max_degree < max_degree:
        raise MissingValueError(
            f"verify needs degrees up to {max_degree} solved, "
            f"have {store.max_degree}"
        )
    checked = 0
    violations: list[Violation] = []
    psi = PsiCalculator(store.raw_tables())
    if exhaustive and workers > 1:
        _prefill_series(psi, max_degree, workers)
    for degree in range(1, max_degree + 1):
        if not exhaustive and degree > 1:
            try:
                rederived, assembled = solve_values(
                    store.raw_tables(), degree, None
                )
            except EngineError:
                rederived, assembled = None, 0
            checked += assembled
            if rederived == store.canonical_table(degree):
                continue
        count, found = _check_degree_relations(degree, psi)
        checked += count
        violations.extend(found)
    return WdvvReport(
        max_degree=max_degree,
        equations_checked=checked,
        violations=tuple(violations),
    )


def _check_degree_relations(degree: int, psi: PsiCalculator):
    """Every relation of one degree, as aggregated residual series."""
    checked = 0
    violations = []
    for fam in equation_families():
        w = fam.target_weight(degree)
        if w < 0:
            continue
        residual: dict[Tuple4, int] = {}
        get = residual.get
        for coeff, sigma, _shift, _n1 in fam.cross:
            for a, b, g, e, v in psi.shifted_items(degree, sigma):
                t = (a, b, g, e)
                residual[t] = get(t, 0) + coeff * v
        for sign, sigma1, sigma2 in fam.quantum:
            for t, v in psi.series(sigma1, sigma2, degree).items():
                residual[t] = get(t, 0) + sign * v
        checked += len(tuples_of_weight(w))
        for t, v in sorted(residual.items()):
            if v:
                violations.append(Violation(degree, fam.quadruple, t, v))
    return checked, violations
