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

Equation generation is pure given a read-only snapshot of the lower
degrees, so verification work can be split across processes; solving and
commits happen on a single writer at each degree boundary.
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
    normalize,
    tuples_of_weight,
)
from .schubert import seed_invariants
from .wdvv import (
    PsiCalculator,
    Tuple4,
    WdvvEquation,
    build_equation,
    equation_families,
    exhaustive_order,
    pairing_structure,
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
    """Exact-integer memo table of solved counts, committed per degree."""

    def __init__(self):
        self._canonical: dict[int, dict[Tuple4, int]] = {}
        self._raw: dict[int, dict[Tuple4, int]] = {}
        self._nonzero: dict[int, list[tuple[Tuple4, int]]] = {}

    @property
    def max_degree(self) -> int:
        # Degrees commit contiguously from 1, and ``_canonical`` gains its
        # entry last, so this read needs no lock.
        return len(self._canonical)

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
        canonical = dict(sorted(values.items()))
        raw = {}
        for (a, b, g, e), v in canonical.items():
            raw[(a, b, g, e)] = v
            raw[(b, a, g, e)] = v
        self._raw[degree] = raw
        self._nonzero[degree] = [(t, v) for t, v in sorted(raw.items()) if v]
        self._canonical[degree] = canonical

    def canonical_table(self, degree: int) -> dict[Tuple4, int]:
        self._require(degree)
        return self._canonical[degree]

    def raw_table(self, degree: int) -> dict[Tuple4, int]:
        self._require(degree)
        return self._raw[degree]

    def raw_tables(self) -> dict[int, dict[Tuple4, int]]:
        return self._raw

    def nonzero_items(self, degree: int) -> list[tuple[Tuple4, int]]:
        self._require(degree)
        return self._nonzero[degree]

    def value(self, key: InvariantKey) -> int:
        if not dimension_valid(key):
            return 0
        canon = normalize(key)
        self._require(key.degree)
        return self._canonical[key.degree][canon[:4]]

    def copy(self) -> "InvariantStore":
        out = InvariantStore()
        for d in self.degrees():
            out.commit_degree(d, dict(self._canonical[d]))
        return out

    def _require(self, degree: int) -> None:
        if degree not in self._canonical:
            raise MissingValueError(f"degree {degree} has not been solved")


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


class Engine:
    """Solves, stores and serves the counts N(alpha,beta,gamma,delta;d)."""

    def __init__(self, seed_set: SeedSet | None = None):
        self.seed_set = seed_set if seed_set is not None else seed_invariants()
        self.store = InvariantStore()
        self.equations_used: dict[int, int] = {}
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
            values = self._solve_degree_values(degree)
            self.store.commit_degree(degree, values)
            return self.store.canonical_table(degree)

    def _solve_degree_values(self, degree: int) -> dict[Tuple4, int]:
        unknowns = set(canonical_tuples(degree))
        assigned: dict[Tuple4, int] = {}
        queue: deque[Tuple4] = deque()

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

        def put_unit(t: Tuple4, coeff: int, const: int, src) -> None:
            """Assign t from the unit relation coeff * N(t) + const = 0."""
            value, rem = divmod(-const, coeff)
            if rem or value < 0:
                shown = f"{-const}/{coeff}" if rem else value
                raise InconsistencyError(
                    degree, src[0], src[1],
                    f"key {t} forced to {shown}, not a nonnegative integer",
                )
            put(t, value, src)

        if degree == 1:
            for t, v in _seed_assignments(self.seed_set).items():
                put(t, v, (("seed",), t))

        # pending[i] = [terms dict, constant, (quadruple, target)]; an entry
        # is replaced by None once consumed as a unit or fully checked.
        pending: list = []
        index: dict[Tuple4, set[int]] = {}

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
                    if len(eq[0]) == 1:
                        ((u, cu),) = eq[0].items()
                        pending[eid] = None
                        put_unit(u, cu, eq[1], eq[2])
                    elif not eq[0]:
                        pending[eid] = None
                        if eq[1] != 0:
                            raise InconsistencyError(degree, *eq[2])

        drain()
        psi = PsiCalculator(self.store.raw_tables())
        families = equation_families()
        fam_shifts: dict[int, tuple] = {}
        assembled = 0
        for _cost, fam_idx, target in solve_order(degree):
            if len(assigned) == len(unknowns):
                break
            # Constants are the expensive part of assembly; skip relations
            # that cannot assign anything new.  Redundant relations are
            # still checked wholesale by the verifier.
            shifts = fam_shifts.get(fam_idx)
            if shifts is None:
                fam = families[fam_idx]
                collected = set()
                for pairing in (fam.positive, fam.negative):
                    for _a, s, _n1 in pairing_structure(pairing)[0]:
                        collected.add(s)
                shifts = fam_shifts[fam_idx] = tuple(collected)
            ta, tb, tg, td = target
            for sa, sb, sg, se in shifts:
                a, b = ta + sa, tb + sb
                if a < b:
                    a, b = b, a
                if (a, b, tg + sg, td + se) not in assigned:
                    break
            else:
                continue
            eq = build_equation(families[fam_idx], target, degree, psi)
            assembled += 1
            terms: dict[Tuple4, int] = {}
            const = eq.constant
            for key, coeff in eq.terms:
                t = key[:4]
                if t in assigned:
                    const += coeff * assigned[t]
                else:
                    terms[t] = coeff
            src = (eq.quadruple, target)
            if not terms:
                if const != 0:
                    raise InconsistencyError(degree, *src)
            elif len(terms) == 1:
                ((u, cu),) = terms.items()
                put_unit(u, cu, const, src)
                drain()
            else:
                eid = len(pending)
                pending.append([terms, const, src])
                for u in terms:
                    index.setdefault(u, set()).add(eid)

        missing = unknowns - assigned.keys()
        if missing:
            raise UnderdeterminedSystemError(degree, missing)

        for eq in pending:
            if eq is None:
                continue
            residual = eq[1] + sum(c * assigned[t] for t, c in eq[0].items())
            if residual != 0:
                raise InconsistencyError(degree, *eq[2])

        self.equations_used[degree] = assembled
        return assigned

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

    def generate_equations(
        self, degree: int, policy: str = "solve"
    ) -> Iterator[WdvvEquation]:
        """Yield the degree-``degree`` relations under a generation policy.

        ``solve`` streams cheapest-constant-first and skips relations with
        no unknown-bearing term; ``exhaustive`` yields every relation of
        every quadruple in lexicographic order.  Lower degrees must be
        solved already.
        """
        if degree < 1:
            return iter(())
        if self.store.max_degree < degree - 1:
            missing = self.store.max_degree + 1
            raise MissingValueError(
                f"generate_equations({degree}) needs degree {missing} solved "
                f"(e.g. key {canonical_tuples(missing)[0]})"
            )
        return self._equations(degree, policy)

    def _equations(self, degree: int, policy: str) -> Iterator[WdvvEquation]:
        psi = PsiCalculator(self.store.raw_tables())
        families = equation_families()
        if policy == "solve":
            order = ((i, t) for _c, i, t in solve_order(degree))
        elif policy == "exhaustive":
            order = iter(exhaustive_order(degree))
        else:
            raise ValueError(f"unknown generation policy: {policy!r}")
        for fam_idx, target in order:
            yield build_equation(families[fam_idx], target, degree, psi)

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
            for pairing in (fam.positive, fam.negative):
                for sigma1, sigma2 in pairing_structure(pairing)[1]:
                    if sigma2 < sigma1:
                        sigma1, sigma2 = sigma2, sigma1
                    jobs.add((degree, sigma1, sigma2))
    return sorted(jobs)


_WORKER_PSI: PsiCalculator | None = None


def _worker_init(tables):
    global _WORKER_PSI
    _WORKER_PSI = PsiCalculator(tables)


def _worker_series(job):
    degree, sigma1, sigma2 = job
    return job, _WORKER_PSI.series(sigma1, sigma2, degree)


def _prefill_series(psi: PsiCalculator, max_degree: int, workers: int) -> None:
    """Compute the product series on a process pool (pure, read-only)."""
    import multiprocessing as mp

    jobs = _conv_jobs(max_degree)
    ctx = mp.get_context("fork")
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
        if exhaustive or degree == 1:
            count, found = _check_degree_relations(store, degree, psi)
            checked += count
            violations.extend(found)
        else:
            scratch = Engine()
            for d in range(1, degree):
                scratch.store.commit_degree(d, dict(store.canonical_table(d)))
            try:
                rederived = scratch.solve_degree(degree)
            except EngineError:
                rederived = None
            checked += scratch.equations_used.get(degree, 0)
            if rederived != store.canonical_table(degree):
                count, found = _check_degree_relations(store, degree, psi)
                checked += count
                violations.extend(found)
    return WdvvReport(
        max_degree=max_degree,
        equations_checked=checked,
        violations=tuple(violations),
    )


def _check_degree_relations(store: InvariantStore, degree: int,
                            psi: PsiCalculator):
    """Every relation of one degree, as aggregated residual series."""
    checked = 0
    violations = []
    for fam in equation_families():
        w = fam.target_weight(degree)
        if w < 0:
            continue
        residual: dict[Tuple4, int] = {}
        get = residual.get
        for sign, pairing in ((1, fam.positive), (-1, fam.negative)):
            cross, quantum = pairing_structure(pairing)
            for a_val, (sa, sb, sg, se), n1 in cross:
                c = sign * a_val * degree**n1
                for (a, b, g, e), v in store.nonzero_items(degree):
                    if a >= sa and b >= sb and g >= sg and e >= se:
                        t = (a - sa, b - sb, g - sg, e - se)
                        residual[t] = get(t, 0) + c * v
            for sigma1, sigma2 in quantum:
                series = psi.series(sigma1, sigma2, degree)
                for t, v in series.items():
                    residual[t] = get(t, 0) + sign * v
        checked += len(tuples_of_weight(w))
        for t, v in sorted(residual.items()):
            if v:
                violations.append(Violation(degree, fam.quadruple, t, v))
    return checked, violations
