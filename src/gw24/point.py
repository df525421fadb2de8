"""The random-point check of the associativity relations, which ``verify``
(by default) and ``cache import`` run over every degree of a table."""

from __future__ import annotations

import secrets
from itertools import combinations_with_replacement, groupby
from math import factorial
from operator import itemgetter, mul

from .keys import Tuple4, lines_of_weight
from .wdvv import QUANTUM_CLASSES, Triple, equation_families, triple_info

# The (Ta, Tb) parts of the shifts: sa + sb <= 3.
_AB_SHIFTS = tuple((sa, s - sa) for s in range(4) for sa in range(s + 1))


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
