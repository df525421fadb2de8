import random
from math import factorial

import pytest

from gw24.engine import Engine
from gw24.relations import equation_families
from gw24.verify import _is_prime, point_factors
from gw24.wdvv import triple_info


@pytest.fixture(scope="module")
def raw5():
    eng = Engine()
    eng.solve_up_to(5)
    return eng.store.raw_tables()


def oracle_factor(raw, degree, sigma, p, point):
    """d**n1 sum_k N(k) prod_i x_i^(k_i - s_i) / (k_i - s_i)! mod p, key by
    key over the raw table (every tuple of the degree, both orientations)."""
    shift, n1, _alive = triple_info(sigma)
    total = 0
    for key, value in raw[degree].items():
        t = [k - s for k, s in zip(key, shift)]
        if min(t) < 0:
            continue
        term = value
        for x, m in zip(point, t):
            term = term * pow(x, m, p) * pow(factorial(m), -1, p) % p
        total += term
    return degree**n1 * total % p


def test_point_factors_match_a_per_key_oracle(raw5):
    rng = random.Random(31)
    # lines of degrees 1 and 2 include some shorter than a shift: a slice
    # past a line's end must count as zero, not wrap around
    for p in (2**61 - 1, 1000003):
        assert _is_prime(p)
        point = tuple(rng.randrange(p) for _ in range(4))
        factors = point_factors(raw5, 5, p, point)
        # every triple a relation family reads, and only the 35 triples
        assert len(factors) == 35
        for fam in equation_families():
            for _c, sigma, _s, _n1 in fam.cross:
                assert sigma in factors
            for _c, sigma1, sigma2 in fam.quantum:
                assert sigma1 in factors and sigma2 in factors
        for sigma, column in factors.items():
            assert column[0] == 0 and len(column) == 6
            for degree in range(1, 6):
                assert column[degree] == oracle_factor(
                    raw5, degree, sigma, p, point), (p, sigma, degree)
