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
from typing import NamedTuple


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


def reduce_divisor(t1_count: int, key: InvariantKey) -> tuple[int, InvariantKey]:
    """Strip ``t1_count`` divisor-class insertions from an invariant.

    Each T1 insertion multiplies the count by the curve degree, so the
    reduced invariant is degree**t1_count times the insertion-free one.
    """
    if t1_count < 0:
        raise ValueError("t1_count must be nonnegative")
    if key.degree < 1 and t1_count > 0:
        raise ValueError(
            "divisor reduction needs degree >= 1; degree-0 divisor insertions "
            "are classical products, not handled here"
        )
    return key.degree**t1_count, key


def valid_tuples(degree: int) -> list[tuple[int, int, int, int]]:
    """All exponent tuples of weight 4*degree+1, in lexicographic order."""
    return tuples_of_weight(4 * degree + 1)


def tuples_of_weight(w: int) -> list[tuple[int, int, int, int]]:
    """All (alpha, beta, gamma, delta) >= 0 with alpha+beta+2gamma+3delta = w."""
    out = []
    for alpha in range(w + 1):
        for beta in range(w - alpha + 1):
            rest = w - alpha - beta
            for gamma in range(rest // 2 + 1):
                r3 = rest - 2 * gamma
                if r3 % 3 == 0:
                    out.append((alpha, beta, gamma, r3 // 3))
    return out


def canonical_tuples(degree: int) -> list[tuple[int, int, int, int]]:
    """Valid tuples with alpha >= beta, one per symmetry orbit."""
    return [t for t in valid_tuples(degree) if t[0] >= t[1]]


@dataclass(frozen=True)
class SeedSet:
    """The degree-1 inputs the associativity recursion starts from.

    Entries are raw (non-normalized) keys; symmetric images are listed
    explicitly and must agree after normalization.
    """

    entries: dict[InvariantKey, int]
    provenance_note: str

    def canonical_entries(self) -> dict[InvariantKey, int]:
        out: dict[InvariantKey, int] = {}
        for key, value in self.entries.items():
            canon = normalize(key)
            if canon in out and out[canon] != value:
                raise ValueError(
                    f"seed set inconsistent under symmetry at {canon}: "
                    f"{out[canon]} vs {value}"
                )
            out[canon] = value
        return out

    def serialize(self) -> str:
        lines = [
            f"{k.alpha} {k.beta} {k.gamma} {k.delta} {k.degree} {v}"
            for k, v in sorted(self.entries.items())
        ]
        return "\n".join(lines)
