"""Classical cohomology ring of G(2,4), the Grassmannian of lines in P^3.

The ring has six Schubert basis classes.  Its one table is the
triple-intersection tensor, in exact integers; the Poincare pairing is the
tensor's T0 slice (the fundamental-class axiom), and the cup product is
derived from the two.  All objects are immutable after import and safe for
unrestricted concurrent reads.

Basis classes and their geometric meaning:

    T0  codim 0  fundamental class
    T1  codim 1  lines meeting a given line
    Ta  codim 2  lines containing a given point
    Tb  codim 2  lines contained in a given plane
    T3  codim 3  lines through a given point inside a given plane
    T4  codim 4  a single fixed line (the point class of G(2,4))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum


class Basis(IntEnum):
    """The six Schubert basis classes of H^*(G(2,4))."""

    T0 = 0
    T1 = 1
    TA = 2
    TB = 3
    T3 = 4
    T4 = 5

    @property
    def label(self) -> str:
        return LABELS[self]


CODIM = (0, 1, 2, 2, 3, 4)
LABELS = ("T0", "T1", "Ta", "Tb", "T3", "T4")

# Nonzero orbits of the totally symmetric triple tensor
# A(i,j,k) = integral of T_i cup T_j cup T_k, stored by sorted index triple.
# These are exactly the third partials of the cubic classical potential
# (1/2) y0 (y4 y0 + ya^2 + yb^2) + (1/2) y1^2 (ya + yb) + y0 y1 y3.
_TRIPLE_NONZERO = {
    (Basis.T0, Basis.T0, Basis.T4): 1,
    (Basis.T0, Basis.T1, Basis.T3): 1,
    (Basis.T0, Basis.TA, Basis.TA): 1,
    (Basis.T0, Basis.TB, Basis.TB): 1,
    (Basis.T1, Basis.T1, Basis.TA): 1,
    (Basis.T1, Basis.T1, Basis.TB): 1,
}


def codim(c: Basis) -> int:
    """Complex codimension of a basis class."""
    return CODIM[c]


def pairing(i: Basis, j: Basis) -> int:
    """Intersection form g_ij = A(T0, i, j); on this basis the matrix is
    symmetric and equals its own inverse."""
    return triple(Basis.T0, i, j)


def triple(i: Basis, j: Basis, k: Basis) -> int:
    """Triple intersection number A(i,j,k); zero unless codims sum to 4."""
    key = tuple(sorted((i, j, k)))
    return _TRIPLE_NONZERO.get(key, 0)


def poincare_dual(i: Basis) -> Basis:
    """The unique basis class pairing to 1 with ``i``."""
    for j in Basis:
        if pairing(i, j) == 1:
            return j
    raise AssertionError(f"no dual for {i}")  # pairing is nondegenerate


@dataclass(frozen=True)
class ClassCombination:
    """An integer linear combination of basis classes.

    Graded products in this ring truncate to zero above codimension 4, so a
    combination produced by ``cup`` is homogeneous.
    """

    coeffs: dict[Basis, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {c: v for c, v in self.coeffs.items() if v != 0}
        )

    @staticmethod
    def zero() -> "ClassCombination":
        return ClassCombination({})

    @staticmethod
    def of(c: Basis, coeff: int = 1) -> "ClassCombination":
        return ClassCombination({c: coeff})

    def coefficient(self, c: Basis) -> int:
        return self.coeffs.get(c, 0)

    def __add__(self, other: "ClassCombination") -> "ClassCombination":
        out = dict(self.coeffs)
        for c, v in other.coeffs.items():
            out[c] = out.get(c, 0) + v
        return ClassCombination(out)

    def scaled(self, k: int) -> "ClassCombination":
        return ClassCombination({c: k * v for c, v in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for c in sorted(self.coeffs):
            v = self.coeffs[c]
            parts.append(f"{v}*{c.label}" if v != 1 else c.label)
        return " + ".join(parts)


def cup(i: Basis, j: Basis) -> ClassCombination:
    """Classical product T_i cup T_j expanded in the basis.

    Computed by contracting the triple tensor with the inverse pairing:
    T_i T_j = sum_{e,f} A(i,j,e) g^{ef} T_f.  Products of total codimension
    above 4 come out as the zero combination.
    """
    out: dict[Basis, int] = {}
    for e in Basis:
        a = triple(i, j, e)
        if a == 0:
            continue
        f = poincare_dual(e)
        out[f] = out.get(f, 0) + a
    return ClassCombination(out)


def cup_combination(x: ClassCombination, y: ClassCombination) -> ClassCombination:
    """Bilinear extension of ``cup`` to combinations."""
    out = ClassCombination.zero()
    for c1, v1 in x.coeffs.items():
        for c2, v2 in y.coeffs.items():
            out = out + cup(c1, c2).scaled(v1 * v2)
    return out
