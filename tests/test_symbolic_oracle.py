"""Independent symbolic oracle for the relation generator.

Builds the full potential (classical cubic plus quantum terms truncated at
degree 2) as a sympy expression, forms the associativity difference of a
family literally by differentiation and contraction, and compares every
monomial coefficient with the generator's assembled relations.  Degree-2
counts enter as opaque symbols, so the comparison checks linear
coefficients and folded constants separately.
"""

from math import factorial

import pytest
import sympy as sp

from gw24.engine import Engine
from gw24.keys import tuples_of_weight, valid_tuples
from gw24.relations import ORIENTED_PAIRS, build_equation, equation_families
from gw24.wdvv import PsiCalculator

y0, y1, ya, yb, y3, y4 = sp.symbols("y0 y1 ya yb y3 y4")
Q = sp.Symbol("Q", positive=True)
VARS = (y0, y1, ya, yb, y3, y4)

# deterministic spread over family shapes (xxyy, xxyz and all-distinct)
SAMPLED_FAMILIES = (0, 3, 9, 14, 23, 28, 36, 42, 49, 54)


def classical_cubic():
    return y0 * (y4 * y0 + ya**2 + yb**2) / 2 + y1**2 * (ya + yb) / 2 + y0 * y1 * y3


def plain_monomial(t):
    a, b, g, e = t
    return (
        ya**a / factorial(a)
        * yb**b / factorial(b)
        * y3**g / factorial(g)
        * y4**e / factorial(e)
    )


@pytest.fixture(scope="module")
def setup():
    eng = Engine()
    eng.solve_up_to(2)
    raw1 = eng.store.raw_table(1)
    symbols2 = {}
    for t in valid_tuples(2):
        canon = t if t[0] >= t[1] else (t[1], t[0], t[2], t[3])
        symbols2[t] = symbols2.get(
            canon, sp.Symbol("N2_" + "_".join(map(str, canon)))
        )
    potential = classical_cubic()
    for t, v in sorted(raw1.items()):
        potential += v * plain_monomial(t) * sp.exp(y1)
    for t in valid_tuples(2):
        potential += symbols2[t] * plain_monomial(t) * sp.exp(2 * y1)
    psi = PsiCalculator(eng.store.raw_tables())
    return eng, potential, symbols2, psi


_partial_cache = {}


def third_partial(potential, i, j, k):
    """The third partial, split by its power of Q = exp(y1): parts[n] is
    the coefficient of Q**n, n = 0, 1, 2."""
    key = tuple(sorted((i, j, k)))
    if key not in _partial_cache:
        partial = sp.expand(
            sp.diff(potential, VARS[key[0]], VARS[key[1]], VARS[key[2]])
        )
        partial = sp.expand(partial.subs(y1, sp.log(Q)))
        parts = [partial.coeff(Q, n) for n in range(3)]
        assert sp.expand(partial - sum(p * Q**n for n, p in enumerate(parts))) == 0
        _partial_cache[key] = parts
    return _partial_cache[key]


def contraction(potential, pairing):
    """The contraction through Q**2: products of parts whose powers of Q
    sum to more than 2 are left out."""
    (i, j), (k, l) = pairing
    total = sp.Integer(0)
    for e, f in ORIENTED_PAIRS:
        left = third_partial(potential, i, j, e)
        right = third_partial(potential, f, k, l)
        total += sum(
            sp.expand(left[n1] * right[n2]) * Q**(n1 + n2)
            for n1 in range(3)
            for n2 in range(3 - n1)
        )
    return total


@pytest.mark.parametrize("fam_idx", SAMPLED_FAMILIES)
def test_generator_matches_symbolic_expansion(setup, fam_idx):
    eng, potential, symbols2, psi = setup
    fam = equation_families()[fam_idx]
    diff = contraction(potential, fam.positive) - contraction(potential, fam.negative)
    diff = sp.expand(diff)

    # classical associativity: no Q-free part survives
    assert sp.expand(diff.coeff(Q, 0)) == 0

    for degree in (1, 2):
        expected = sp.Integer(0)
        w = fam.target_weight(degree)
        if w >= 0:
            for target in tuples_of_weight(w):
                eq = build_equation(fam, target, degree, psi)
                residual = sp.Integer(eq.constant)
                for key, coeff in eq.terms:
                    if degree == 1:
                        residual += coeff * eng.store.raw_table(1)[key[:4]]
                    else:
                        residual += coeff * symbols2[key[:4]]
                expected += residual * plain_monomial(target)
        # the full coefficient of Q^degree must match target by target,
        # including the absence of monomials outside the weight class
        assert sp.expand(diff.coeff(Q, degree) - expected) == 0
