"""Invariant keys and the counting axioms that act on them.

A key (alpha, beta, gamma, delta; degree) indexes the number of degree-d
rational curves in G(2,4) meeting alpha cycles of type Ta, beta of type Tb,
gamma of type T3 and delta of type T4.  A key can be nonzero only when

    alpha + beta + 2*gamma + 3*delta = 4*degree + 1,   degree >= 1,

and the count is symmetric under swapping alpha and beta (projective duality
of P^3 exchanges the two codimension-2 conditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

Tuple4 = tuple[int, int, int, int]


class InvariantKey(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int
    degree: int

    @property
    def weight(self) -> int:
        return self.alpha + self.beta + 2 * self.gamma + 3 * self.delta


def dimension_valid(key: InvariantKey) -> bool:
    """True iff the key satisfies the dimension condition at degree >= 1.

    Degree-0 keys are never valid here: the degree-0 counts are classical
    intersection numbers carried by the triple tensor, not by this table.
    """
    return key.degree >= 1 and key.weight == 4 * key.degree + 1


def normalize(key: InvariantKey) -> InvariantKey:
    """Canonical representative under the alpha <-> beta symmetry."""
    if key.alpha < key.beta:
        return InvariantKey(key.beta, key.alpha, key.gamma, key.delta, key.degree)
    return key


def valid_tuples(degree: int) -> list[Tuple4]:
    """All exponent tuples of weight 4*degree+1, in lexicographic order."""
    return tuples_of_weight(4 * degree + 1)


@lru_cache(maxsize=None)
def lines_of_weight(w: int) -> tuple[tuple[int, int, int], ...]:
    """Every (gamma, delta, r) >= 0 with 2gamma + 3delta + r = w, by delta,
    then gamma: the line of keys (alpha, r - alpha, gamma, delta) of weight w.
    One tuple per weight, built on the first call and shared after it."""
    return tuple((gamma, delta, w - 2 * gamma - 3 * delta)
                 for delta in range(w // 3 + 1)
                 for gamma in range((w - 3 * delta) // 2 + 1))


def tuples_of_weight(w: int) -> list[Tuple4]:
    """All (alpha, beta, gamma, delta) >= 0 of weight w, in lexicographic order."""
    return sorted((a, r - a, g, e) for g, e, r in lines_of_weight(w)
                  for a in range(r + 1))


@lru_cache(maxsize=None)
def canonical_keys(degree: int) -> tuple[tuple[Tuple4, ...], frozenset[Tuple4]]:
    """The valid tuples with alpha >= beta, sorted and as a set, built once."""
    keys = tuple(t for t in valid_tuples(degree) if t[0] >= t[1])
    return keys, frozenset(keys)


def canonical_tuples(degree: int) -> list[Tuple4]:
    """A fresh list of ``canonical_keys(degree)``'s sorted keys."""
    return list(canonical_keys(degree)[0])


@dataclass(frozen=True)
class SeedSet:
    """The degree-1 inputs the associativity recursion starts from.

    Entries are raw (non-normalized) keys; symmetric images are listed
    explicitly and must agree.  Construction raises ValueError on a key
    that is not a dimension-valid degree-1 key, on a key with a negative
    entry or on disagreeing images.
    """

    entries: dict[InvariantKey, int]
    provenance_note: str

    def __post_init__(self):
        canonical: dict[InvariantKey, int] = {}
        for key, value in self.entries.items():
            canon = normalize(key)
            if canon.degree != 1:
                raise ValueError(f"seed {canon} is not a degree-1 key")
            if min(canon) < 0:
                raise ValueError(f"seed {canon} has a negative entry")
            if not dimension_valid(canon):
                raise ValueError(
                    f"seed {canon} violates the dimension condition"
                )
            if canonical.setdefault(canon, value) != value:
                raise ValueError(
                    f"seed set inconsistent under symmetry at {canon}: "
                    f"{canonical[canon]} vs {value}"
                )

    def canonical_entries(self) -> dict[InvariantKey, int]:
        return {normalize(key): value for key, value in self.entries.items()}
