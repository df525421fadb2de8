"""Product kernels for the associativity relations of G(2,4).

The relations, and the families they come in, are in ``relations``.  A
relation's constant sums products of two quantum third-partial series
over lower degrees, and this module evaluates them from the solved tables.

Structure exploited throughout this module:

* G(2,4) is self-dual, and the duality swaps Ta and Tb while fixing the
  other classes, so a product series over the triples (sigma1, sigma2) is
  the series over their duals with every weight line (below) reversed:
  only one pair of each dual orbit is ever convolved, and a relation's
  constant is computed once per dual pair of relations;
* the weight condition ties alpha to beta once (gamma, delta) and the
  degree are fixed, so a degree's table splits into weight lines indexed
  by alpha, which ``PsiCalculator`` indexes once, by (delta, gamma,
  degree), when it is built.  The splittings of one target that share
  (gamma, delta) in each factor and the first factor's degree form one
  contiguous window of two lines: a single product constant is a sum of
  such dot products;
* a whole product series is a sum of products of weight lines.  When the
  two factors of a splitting (a1, b1) + (a2, b2) = (A, B) lie on lines
  with alpha + beta = r1 and r2, then A + B = R = r1 + r2, and the
  identity comb(A, a1) comb(B, b1) = comb(r1, a1) comb(r2, a2)
  comb(R, r1) / comb(R, A) splits its binomials into one per factor
  entry, one per pair of lines and one per output entry.  So each line,
  scaled by its Pascal row, is packed into one integer with a fixed slot
  width (Kronecker substitution), one integer product convolves two
  lines, and slot A of the summed products is comb(R, A) times the
  series.  The values must be nonnegative (the store enforces it), so no
  slot borrows, and the width bounds the final slots (see
  ``PsiCalculator.slot_width``).  R is fixed by (gamma, delta) within a
  weight class, so a series is one weight line per (gamma, delta, R) of
  its class, in the order of ``lines_of_weight``, and so are the slices a
  relation's cross terms read: every term of a family streams the same
  lines in the same order, and the family's residual at (alpha, R -
  alpha, gamma, delta) is one sum, over its terms' lines at that place
  in the stream, of slot alpha times the term's coefficient.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .cohomology import CODIM
from .keys import Tuple4, lines_of_weight

# The duality of G(2,4) on basis indices: Ta <-> Tb, every other class fixed.
DUAL = (0, 1, 3, 2, 4, 5)

Triple = tuple[int, int, int]
# The weight lines (gamma, delta, R) of one weight class, in the order of
# ``lines_of_weight``: each the values at (a, R - a, gamma, delta).
Lines = list[tuple[int, ...]]


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


@lru_cache(maxsize=None)
def dual_pair(sigma1: Triple, sigma2: Triple) -> tuple[Triple, Triple]:
    """The sorted pair of the dual triples of ``sigma1`` and ``sigma2``;
    of a pairing's two index pairs, the dual pairing."""
    dual1 = tuple(sorted(DUAL[i] for i in sigma1))
    dual2 = tuple(sorted(DUAL[i] for i in sigma2))
    return (dual1, dual2) if dual1 <= dual2 else (dual2, dual1)


@lru_cache(maxsize=None)
def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle: ``pascal_row(n)[k] == comb(n, k)``."""
    return tuple(comb(n, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def pascal_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n-1 of Pascal's triangle, one tuple that ``at`` and
    ``series`` index by n."""
    return tuple(map(pascal_row, range(n)))


class PsiCalculator:
    """Degree-shifted views of the solved tables, and the quantum-times-
    quantum constants built from them.

    ``tables`` maps each solved degree to its raw table {(a,b,g,d): value}
    containing every valid exponent tuple of that degree in both symmetry
    orientations, with equal values (the Ta <-> Tb duality).  The
    constructor reads every table once into ``columns``, the one index of
    weight lines: ``columns[delta][gamma][d]`` is the line (gamma, delta)
    of degree d as a tuple of values indexed by alpha, with beta = 4d + 1 -
    2 gamma - 3 delta - alpha, None where d has none.  It is a snapshot of
    the degrees the tables hold then.  ``shifted_lines`` slices those lines
    by the targets a quantum third partial feeds, for a relation's cross
    part at its own degree and for ``series``.  Two evaluation modes for the
    products: ``at`` sums all the products of one relation at a single
    target in one walk over its splittings, as dot products over windows of
    weight lines and Pascal rows (cheap for one equation), from
    ``columns``, a plan that ``_plan`` builds once per (products, degree)
    and the binomial windows of the target's (ta, tb), built on each call;
    ``series`` computes every target of a weight class at once (cheap when
    a family needs them all), as the lines of ``shifted_lines`` without
    their keys: every line of the class, in the order of
    ``lines_of_weight``.  It multiplies the ``packed_lines`` of the
    two factors pairwise, one integer product per pair of lines, into one
    packed accumulator per output line, and divides slot alpha of each by
    comb(R, alpha); ``slot_width`` derives the slot width that keeps this
    exact, which needs every value to be nonnegative.  A pair's series is
    its dual pair's with every line reversed (alpha and beta swapped), so
    each dual orbit is computed once.  Both kernels read the binomials from
    ``pascal_rows``.
    ``constant`` takes a relation's constant from one ``at`` call and
    memoizes it per (family, target, degree), so the dual relation reads it
    instead of summing its own.  All are pure given the tables, and the
    series and the constants are memoized; ``shifted_lines`` slices the
    index afresh on each call.  ``release`` forgets series and packed
    lines, which only the sole user of an instance may do: the verifier, on
    its own instance.  An instance that nothing releases from may be shared
    by concurrent readers from construction.
    """

    def __init__(self, tables: dict[int, dict[Tuple4, int]]):
        self.tables = tables
        top = max(tables, default=0)
        # 2 gamma + 3 delta <= 4 top + 1, so gamma <= 2 top - delta
        self.columns = cols = [
            [[None] * (top + 1) for _g in range(2 * top + 1 - e)]
            for e in range(2 * top + 1)]
        for d, raw in tables.items():
            for g, e, r in lines_of_weight(4 * d + 1):
                cols[e][g][d] = tuple(
                    raw[(a, r - a, g, e)] for a in range(r + 1))
        self._series: dict[tuple[int, Triple, Triple], Lines] = {}
        self._packed: dict[tuple[int, Triple, int], list] = {}
        self._widths: dict[int, int] = {}
        self._plans: dict[tuple[tuple, int], tuple] = {}
        self._constants: dict[tuple[int, Tuple4, int], int] = {}

    def shifted_lines(self, degree: int, sigma: Triple):
        """Yield, for each weight line of ``degree`` that can carry the
        shift of a quantum third partial over ``sigma``, its slice keyed by
        the targets it feeds: ((gamma - sg, delta - se, r), L) with L[a] =
        N(a + shift) at (a, r - a, gamma, delta), in the order of
        ``lines_of_weight``.  Slices may be all zero, and callers apply
        degree**n1 (see ``triple_info``); ``sigma`` never holds the unit
        class (``equation_families`` drops those terms)."""
        (sa, sb, sg, se), _n1, _alive = triple_info(sigma)
        cols = self.columns
        for g, e, r in lines_of_weight(
                4 * degree + 1 - sa - sb - 2 * sg - 3 * se):
            yield (g, e, r), cols[e + se][g + sg][degree][sa:sa + r + 1]

    def _plan(self, products, degree: int):
        """What ``at`` needs of one relation's products at ``degree``,
        whatever the target: the products grouped by w1 (the first factor's
        shift weight), as (w1, members), each member the shift fields ``at``
        reads and cdpow[d1] = coeff * d1**n1 * (degree - d1)**n2.
        (The plan stays on the calculator: a module-level table of these
        lists, filled during a cache load and kept, held pymalloc arenas
        and raised peak RSS.)"""
        groups: dict[int, list] = {}
        for coeff, sigma1, sigma2 in products:
            (s1a, s1b, s1g, s1d), n1, _alive1 = triple_info(sigma1)
            (_s2a, s2b, s2g, s2d), n2, _alive2 = triple_info(sigma2)
            groups.setdefault(s1a + s1b + 2 * s1g + 3 * s1d, []).append((
                s1a, s1g, s1d, s2b, s2g, s2d,
                [coeff * d1**n1 * (degree - d1) ** n2
                 for d1 in range(degree)]))
        plan = tuple(groups.items())
        self._plans[products, degree] = plan
        return plan

    @staticmethod
    def _binomial_windows(row_a, row_b):
        """The binomials of ``at``'s windows for a target (ta, tb), from
        its Pascal rows: indexed by r1 = a1 + b1, (lo, b, n, w), where a1
        runs over the n values from lo (a1 <= ta, b1 <= tb), b2 = tb - b1
        from b, and w lists comb(ta, a1) comb(tb, b1), or is that one
        number when n == 1."""
        ta, tb = len(row_a) - 1, len(row_b) - 1
        windows = []
        for r1 in range(ta + tb + 1):
            lo = r1 - tb if r1 > tb else 0
            hi = r1 if r1 < ta else ta
            # comb(tb, b1) = row_b[tb - b1], which rises with a1
            off = tb - r1
            windows.append((lo, lo + off, hi - lo + 1, list(map(
                mul, row_a[lo:hi + 1], row_b[lo + off:hi + off + 1]))
                if lo < hi else row_a[lo] * row_b[lo + off]))
        return windows

    def at(self, products, target: Tuple4, degree: int) -> int:
        """Coefficient of the target monomial in sum coeff * (the product
        of the two quantum third-partial series over sigma1 and sigma2) at
        total curve degree ``degree``, over the (coeff, sigma1, sigma2) of
        ``products``: a relation's ``EquationFamily.quantum``.

        The splits (gamma1, delta1) of the target are walked once.  In a
        split, the products of one ``_plan`` group share the d1 range, and
        each d1 is one window: dot products of two line slices, one pair
        per product, with binomials that ``_binomial_windows`` builds for
        the target's (ta, tb) on each call.  comb(tg, gamma1) comb(td,
        delta1) multiplies a split's sum once.  Only degrees below
        ``degree`` are read, and results are not memoized: few targets
        repeat."""
        plan = self._plans.get((products, degree))
        if plan is None:
            plan = self._plan(products, degree)
        cols = self.columns
        ta, tb, tg, td = target
        # A target's entries are at most its weight, 4*degree + 1 or less.
        rows = pascal_rows(4 * degree + 2)
        row_g, row_d = rows[tg], rows[td]
        windows = self._binomial_windows(rows[ta], rows[tb])
        total = 0
        for d1v in range(td + 1):
            d2v = td - d1v
            for g1 in range(tg + 1):
                g2 = tg - g1
                part = 0
                for w1, members in plan:
                    # The first factor's key (a1, b1, g1, d1v) + shift1 has
                    # weight 4*d1 + 1, so a1 + b1 = r1 = 4*d1 - base; the
                    # second factor takes the rest, so 0 <= r1 <= ta + tb
                    # bounds d1, and both factors' lines exist at every d1
                    # of the range.
                    base = w1 + 2 * g1 + 3 * d1v - 1
                    d1_lo = -(-base // 4) or 1
                    d1_hi = (ta + tb + base) // 4
                    if d1_hi >= degree:
                        d1_hi = degree - 1
                    for d1 in range(d1_lo, d1_hi + 1):
                        # a1 runs over the window of r1 from lo; the second
                        # factor's b2 rises with a1, and line2 is read at
                        # beta = b2 + s2b, so both lines are slices.
                        lo, b2, n, binomials = windows[4 * d1 - base]
                        d2 = degree - d1
                        if n == 1:
                            for s1a, s1g, s1d, s2b, s2g, s2d, cdpow in members:
                                line1 = cols[d1v + s1d][g1 + s1g][d1]
                                line2 = cols[d2v + s2d][g2 + s2g][d2]
                                part += cdpow[d1] * binomials * line1[
                                    lo + s1a] * line2[b2 + s2b]
                            continue
                        for s1a, s1g, s1d, s2b, s2g, s2d, cdpow in members:
                            line1 = cols[d1v + s1d][g1 + s1g][d1]
                            line2 = cols[d2v + s2d][g2 + s2g][d2]
                            a1, a2 = lo + s1a, b2 + s2b
                            part += cdpow[d1] * sum(map(mul, binomials, map(
                                mul, line1[a1:a1 + n], line2[a2:a2 + n])))
                if part:
                    total += row_g[g1] * row_d[d1v] * part
        return total

    def constant(self, family, target: Tuple4, degree: int) -> int:
        """The constant of the relation of ``family``, a
        ``relations.EquationFamily``, at one target: the sum of its quantum
        products there, from one ``at`` call.

        It is ``family.dual_sign`` times the constant of the dual family at
        the mirrored target, so that one is returned when it is memoized;
        otherwise the sum is computed and memoized.  Callers assemble each
        relation once, so only the dual's entry is looked up."""
        a, b, g, e = target
        known = self._constants.get((family.dual, (b, a, g, e), degree))
        if known is not None:
            return family.dual_sign * known
        total = self.at(family.quantum, target, degree)
        self._constants[family.index, target, degree] = total
        return total

    def slot_width(self, degree: int) -> int:
        """Bits per slot of the packed lines that ``series`` multiplies at
        total degree D = ``degree``: S = bits(comb(n, 2D + 1) sum_d1
        V_d1 V_(D - d1) comb(n, 4 d1 + 1)) over 0 < d1 < D, with n = 4D + 2,
        where V_d = d**3 * max N(d) bounds every value d**n1 * N of a
        degree-d line.

        Slot alpha of the accumulator of output line (gamma, delta, R) ends
        at comb(R, alpha) times the series there: the sum, over d1 and the
        line pairs of that output, one per (gamma1, delta1), of
        comb(gamma, gamma1) comb(delta, delta1) comb(R, r1) sum_a comb(r1,
        a) comb(r2, alpha - a) L1[a] L2[alpha - a].  The inner sum is at
        most V_d1 V_(D - d1) comb(R, alpha) (Vandermonde).  A degree-d line
        has at most 4d + 2 entries, so r1 <= 4 d1 + 1 and r2 = R - r1 <=
        4 (D - d1) + 1, and comb(R, r1) <= comb(n, 4 d1 + 1), as comb(r1 +
        r2, r1) grows with r1 and with r2.  The binomials in gamma1 and
        delta1 sum to 2**(gamma + delta), so the slot is at most
        comb(R, alpha) 2**(gamma + delta) sum_d1 V_d1 V_(D - d1) comb(n,
        4 d1 + 1).  Every line has R + 2 gamma + 3 delta <= n, and
        comb(R + 2, (R + 2) // 2) >= 2 comb(R, R // 2): raising gamma or
        delta by one lowers R by 2 or 3, which at least halves the largest
        comb(R, alpha), while it doubles 2**(gamma + delta).  So the line
        gamma = delta = 0, R = n bounds every line, and the slot is below
        2**S.  The bound is reached: where each degree's values are equal,
        the shift-free pair (T1,T1,T1)**2 has slot 2D + 1 of that line at
        exactly it.  Every value is nonnegative, so no partial sum exceeds
        the final slot and no slot borrows from or carries into its
        neighbours.
        """
        width = self._widths.get(degree)
        if width is None:
            v = [d**3 * max(self.tables[d].values()) for d in range(1, degree)]
            row = pascal_row(4 * degree + 2)
            total = sum(v1 * v2 * row[4 * d1 + 1] for d1, v1, v2 in zip(
                range(1, degree), v, reversed(v)))
            width = (total * row[2 * degree + 1]).bit_length()
            self._widths[degree] = width
        return width

    def packed_lines(self, degree: int, sigma: Triple, width: int):
        """The nonzero ``shifted_lines`` of ``series``' factors, each packed
        into one integer: entry (gamma, delta, r, P) packs degree**n1 *
        comb(r, a) * L[a] into the slot of ``width`` bits at index a."""
        memo_key = (degree, sigma, width)
        cached = self._packed.get(memo_key)
        if cached is not None:
            return cached
        dpow = degree ** triple_info(sigma)[1]
        packed = []
        for (g, e, r), line in self.shifted_lines(degree, sigma):
            if not any(line):
                continue
            p = 0
            for c, v in zip(reversed(pascal_row(r)), reversed(line)):
                p = (p << width) + c * v
            packed.append((g, e, r, p * dpow))
        self._packed[memo_key] = packed
        return packed

    def release(self, degree: int, pairs=None) -> None:
        """Forget the series of ``pairs`` at ``degree``, or by default every
        packed line; a later ``series`` call builds them again.  The
        weight-line index ``columns`` is built with the calculator and
        stays."""
        for pair in pairs or ():
            self._series.pop((degree, *pair), None)
        if pairs is None:
            self._packed.clear()

    def series(self, sigma1: Triple, sigma2: Triple, degree: int) -> Lines:
        """The whole product series at total degree ``degree``, as one
        weight line per (gamma, delta, R) of ``lines_of_weight(W)``, in that
        order and zero lines included, with W = 4 degree + 2 minus the
        shift weights of the two triples; every caller passes ``sigma1 <=
        sigma2``, the order of the memo keys.

        For each d1, every packed line of the first factor meets every
        packed line of the second in one integer product, scaled by
        comb(gamma, gamma1) comb(delta, delta1) comb(R, r1), read from the
        ``pascal_rows`` of the output line's gamma, delta and R.  R is fixed
        by (gamma, delta), so the accumulators are a list indexed by gamma
        k + delta with k = 4 degree + 3 (gamma and delta stay below k)."""
        memo_key = (degree, sigma1, sigma2)
        cached = self._series.get(memo_key)
        if cached is not None:
            return cached
        dual = dual_pair(sigma1, sigma2)
        if dual < (sigma1, sigma2):
            out = [line[::-1] for line in self.series(*dual, degree)]
            self._series[memo_key] = out
            return out
        width = self.slot_width(degree)
        k = 4 * degree + 3
        rows = pascal_rows(k)
        # Slot alpha of accumulator gamma k + delta sums to comb(R, alpha)
        # * series(alpha, R - alpha, gamma, delta).
        acc = [0] * (k * k)
        for d1 in range(1, degree):
            lines1 = self.packed_lines(d1, sigma1, width)
            if not lines1:
                continue
            lines2 = self.packed_lines(degree - d1, sigma2, width)
            for g1, e1, r1, p1 in lines1:
                for g2, e2, r2, p2 in lines2:
                    g, e = g1 + g2, e1 + e2
                    acc[g * k + e] += (rows[g][g1] * rows[e][e1]
                                       * rows[r1 + r2][r1] * p1 * p2)
        out = []
        mask = (1 << width) - 1
        # a triple's shift weight is its codimension less 3
        for g, e, r in lines_of_weight(
                4 * degree + 8 - sum(CODIM[c] for c in sigma1 + sigma2)):
            total = acc[g * k + e]
            line = []
            for c in rows[r]:
                line.append((total & mask) // c)
                total >>= width
            out.append(tuple(line))
        self._series[memo_key] = out
        return out
