"""The checks of a stored table against the associativity relations.

``verify_store`` checks every relation of every degree up to a bound, with
constants re-convolved from the stored lower degrees so that a perturbed
store cannot satisfy them: relation by relation by default
(``exhaustive=True``), or first at one random point modulo a random prime
(``degrees_failing_at_a_point``; the CLI's default, and ``cache import``
runs it too), and then relation by relation only at the degrees that fail
there.  The relations are pure given a read-only snapshot of the tables, so
the degrees checked relation by relation can be split across processes;
the report is the serial one.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from math import factorial
from operator import attrgetter, itemgetter, mul

from .keys import Tuple4, lines_of_weight
from .relations import QUANTUM_CLASSES, equation_families
from .wdvv import PsiCalculator, Triple, dual_pair, triple_info

# The (Ta, Tb) parts of the shifts: sa + sb <= 3.
_AB_SHIFTS = tuple((sa, s - sa) for s in range(4) for sa in range(s + 1))


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


def verify_store(store, max_degree: int, exhaustive: bool = True,
                 workers: int = 1) -> WdvvReport:
    """Check every relation of every degree <= max_degree of ``store`` (an
    ``InvariantStore``) against its stored values.

    With ``exhaustive`` every degree is checked relation by relation.
    Otherwise only the degrees that ``degrees_failing_at_a_point`` flags
    are, which gives the same report unless that check misses (see there).
    ``workers`` > 1 spreads the degrees checked relation by relation over
    processes, under the rule of ``_check_degrees``; results are identical
    to the serial run.  A degree not solved raises ``MissingValueError``.
    """
    tables = {d: store.raw_table(d) for d in range(1, max_degree + 1)}
    # One relation per family and target of its weight class.
    checked = sum(r + 1 for degree in tables
                  for fam in equation_families()
                  for _g, _e, r in lines_of_weight(fam.target_weight(degree)))
    degrees = (range(1, max_degree + 1) if exhaustive
               else sorted(degrees_failing_at_a_point(tables, max_degree)))
    return WdvvReport(
        max_degree=max_degree,
        equations_checked=checked,
        violations=tuple(_check_degrees(tables, degrees, workers)),
    )


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    # n - 1 = odd * 2**twos
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> twos
    return all(
        pow(a, odd, n) == 1
        or any(pow(a, odd << r, n) == n - 1 for r in range(twos))
        for a in bases
    )


def point_factors(
    tables: dict[int, dict[Tuple4, int]], max_degree: int, p: int,
    point: tuple[int, int, int, int],
) -> dict[Triple, list[int]]:
    """Every factor F(d, sigma) = d**n1 sum_k N(k) x^(k - s) / (k - s)!
    modulo ``p`` at ``point`` = x = (xa, xb, xg, xe), over the keys k of
    degree d that dominate s, where (s, n1) = ``triple_info(sigma)``:
    {sigma: [0, F(1, sigma), ..., F(max_degree, sigma)]} for each of the
    35 triples of positive-codimension classes.

    One pass over each degree's weight lines, read from its raw table,
    gives all 35: per line (gamma, delta, R), the ten dot products
    line[sa:R+1-sb] . ab[R-sa-sb] with ab[r][a] = xa^a/a! xb^(r-a)/(r-a)!,
    one per sa + sb <= 3 (zero when R < sa + sb); then, per delta, their
    sums over gamma >= sg weighted by xg^(gamma-sg)/(gamma-sg)!, and per
    degree, those over delta >= se weighted by xe^(delta-se)/(delta-se)!.
    """
    n = 4 * max_degree + 2
    # x**k / k! mod p for each coordinate x; exponents are at most 4d + 1.
    pa, pb, pg, pe = ([pow(x, k, p) * pow(factorial(k), -1, p) % p
                       for k in range(n)] for x in point)
    ab = [[pa[a] * pb[r - a] % p for a in range(r + 1)] for r in range(n)]
    sigmas = list(combinations_with_replacement(QUANTUM_CLASSES, 3))
    factors: dict[Triple, list[int]] = {sigma: [0] for sigma in sigmas}
    for degree in range(1, max_degree + 1):
        raw = tables[degree]
        # sums[sa, sb, sg][delta]: the weighted sum over gamma at delta
        sums = {(sa, sb, sg): [] for sa, sb in _AB_SHIFTS
                for sg in range(4 - sa - sb)}
        for e, lines in groupby(lines_of_weight(4 * degree + 1),
                                itemgetter(1)):
            dots = {shift: [] for shift in _AB_SHIFTS}
            for g, _e, r in lines:
                line = [raw[(a, r - a, g, e)] for a in range(r + 1)]
                for (sa, sb), column in dots.items():
                    column.append(
                        sum(map(mul, line[sa:r + 1 - sb], ab[r - sa - sb]))
                        if sa + sb <= r else 0)
            for (sa, sb, sg), column in sums.items():
                column.append(sum(map(mul, dots[sa, sb][sg:], pg)))
        for sigma in sigmas:
            (sa, sb, sg, se), n1, _alive = triple_info(sigma)
            factors[sigma].append(
                degree**n1 * sum(map(mul, sums[sa, sb, sg][se:], pe)) % p)
    return factors


def degrees_failing_at_a_point(
    tables: dict[int, dict[Tuple4, int]], max_degree: int
) -> set[int]:
    """Degrees where some family's relations fail at a random point.

    The relations of one family at degree d are the coefficients of one
    polynomial: its terms with each factor F(d, sigma) of
    ``point_factors``; the binomials of ``series`` are ratios of its
    factorials.  Modulo a random 61-bit prime p, a family whose residual
    is nonzero mod p vanishes at a random point with probability at most
    (4d + 4) / p (Schwartz-Zippel).

    The factors form one table, built in one pass over each degree's
    weight lines (ten dot products a line for all 35 sigmas), and each
    family then reads its cross factors at d and the products
    F(d1, s1) F(d - d1, s2) of its quantum terms from it.
    """
    p = 0
    while not _is_prime(p):
        p = secrets.randbits(60) | (1 << 60) | 1
    point = tuple(secrets.randbelow(p) for _ in range(4))
    factors = point_factors(tables, max_degree, p, point)
    failing = set()
    for degree in range(1, max_degree + 1):
        # F(d1, sigma) for d1 = 1..degree-1, and F(degree - d1, sigma)
        low = {sigma: f[1:degree] for sigma, f in factors.items()}
        high = {sigma: f[degree - 1:0:-1] for sigma, f in factors.items()}
        for fam in equation_families():
            total = sum(c * factors[sigma][degree]
                        for c, sigma, _s, _n1 in fam.cross)
            total += sum(coeff * sum(map(mul, low[s1], high[s2]))
                         for coeff, s1, s2 in fam.quantum)
            if total % p:
                failing.add(degree)
    return failing


_WORKER_PSI: PsiCalculator | None = None


def _worker_init(tables):
    global _WORKER_PSI
    _WORKER_PSI = PsiCalculator(tables)


def _worker_check(degree: int):
    return degree, _check_degree_relations(degree, _WORKER_PSI)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (``os.cpu_count`` ignores affinity), else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_degrees(
    tables: dict[int, dict[Tuple4, int]], degrees, workers: int
) -> list[Violation]:
    """The violations of ``degrees``, checked relation by relation, in
    ascending degree order.

    The one pool rule of ``verify``: at most ``workers`` processes, one per
    CPU it may use (``_usable_cpus``) and one per degree, and no pool if
    that leaves one.  A job is one degree, handed out largest first; the
    pool's report is the serial one.  A worker that fails, in its
    initializer too, breaks the pool, and the check raises
    ``BrokenProcessPool`` (a ``multiprocessing.Pool`` would replace such
    workers forever).  The serial loop and each worker keep one calculator
    across degrees, and ``_check_degree_relations`` releases each degree's
    series from it, so only one degree's are held at a time.  No degree to
    check builds no calculator.
    """
    if not degrees:
        return []
    workers = min(workers, _usable_cpus(), len(degrees))
    if workers < 2:
        psi = PsiCalculator(tables)
        return [v for d in degrees for v in _check_degree_relations(d, psi)]
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=mp.get_context(),
                             initializer=_worker_init,
                             initargs=(tables,)) as pool:
        found = dict(pool.map(_worker_check, sorted(degrees, reverse=True)))
    return [v for d in sorted(found) for v in found[d]]


def _check_degree_relations(degree: int, psi: PsiCalculator) -> list[Violation]:
    """Every relation of one degree, as residual weight lines: slot a of
    line (gamma, delta, R) is the residual at target (a, R - a, gamma,
    delta).  Every term of a family streams the lines of the family's
    weight class in the order of ``lines_of_weight``, the cross terms'
    ``shifted_lines`` slices with coefficient c * degree**n1 and the
    quantum terms' series with coefficient c, so the family zips its
    terms' streams with those lines, strictly, and computes each slot
    once, as the sum of the coefficients times that slot of the lines.

    The degree's series are released from ``psi`` as the check goes: each
    dual orbit's after the last family that reads the pair or its mirror,
    and the packed lines at the end, as no other degree reads them.  The
    weight lines stay for the degrees above.
    """
    families = [fam for fam in equation_families()
                if fam.target_weight(degree) >= 0]
    # The family after which each dual orbit of pairs is read no more, and
    # the orbits (both pairs of each) that each family is the last to read.
    last = {min((s1, s2), dual_pair(s1, s2)): i
            for i, fam in enumerate(families) for _c, s1, s2 in fam.quantum}
    done: list[list[tuple[Triple, Triple]]] = [[] for _ in families]
    for pair, i in last.items():
        done[i] += (pair, dual_pair(*pair))
    violations = []
    for fam, pairs in zip(families, done):
        coeffs = [c * degree**n1 for c, _s, _sh, n1 in fam.cross]
        coeffs += [c for c, _s1, _s2 in fam.quantum]
        found = []
        # a term stream that ends early or late raises
        for (g, e, r), *lines in zip(
                lines_of_weight(fam.target_weight(degree)),
                *(map(itemgetter(1), psi.shifted_lines(degree, s))
                  for _c, s, _sh, _n1 in fam.cross),
                *(psi.series(s1, s2, degree) for _c, s1, s2 in fam.quantum),
                strict=True):
            for a, column in enumerate(zip(*lines)):
                v = sum(map(mul, coeffs, column))
                if v:
                    found.append(
                        Violation(degree, fam.quadruple, (a, r - a, g, e), v))
        psi.release(degree, pairs)
        found.sort(key=attrgetter("target"))
        violations += found
    psi.release(degree)
    return violations
