"""A look inside the associativity machinery.

The quantum product on G(2,4) is associative; written against the six-class
basis this produces a family of relations, one per way of regrouping a
quadruple of classes.  Fixing a monomial in the deformation variables turns
each relation into a linear equation among same-degree counts whose
constant term mixes products of lower-degree counts.  This script shows the
relation that pins the 9-point conic count, solves it, and then replays the
whole over-determined system as a consistency check.

Run:  python demos/wdvv_relations_walkthrough.py
"""

from gw24 import Engine
from gw24.relations import build_equation, equation_families
from gw24.wdvv import PsiCalculator

engine = Engine()
engine.solve_up_to(2)

families = equation_families()
print(f"{len(families)} relation families over the five positive-codimension "
      "classes\n")

# The family regrouping (T1, T1, Ta, Ta), read at the monomial ya^6 q^2,
# relates the degree-2 counts with 9, 8+1, 7 and 6 point-type conditions.
fam = next(f for f in families if f.classes == (1, 1, 2, 2))
psi = PsiCalculator(engine.store.raw_tables())
eq = build_equation(fam, (6, 0, 0, 0), 2, psi)

print(f"quadruple {fam.label()} at monomial ya^6 q^2:")
for (a, b, g, e), coeff in eq.terms:
    print(f"  {coeff:+d} * N(alpha={a}, beta={b}, gamma={g}, delta={e}; "
          f"d={eq.degree})")
print(f"  {eq.constant:+d}  (from products of degree-1 counts)")
print("  = 0")

print("\nwith the stored values:")
table = engine.store.raw_table(eq.degree)
for t, _coeff in eq.terms:
    print(f"  N{(*t, eq.degree)} = {table[t]}")
print(f"so N(9,0,0,0;2) = {engine.q_number(2)}: one quadric through nine "
      "points, counted once per ruling.")

# Every relation, including all the redundant ones, must hold.
report = engine.verify_wdvv(3, exhaustive=True)
print(f"\nexhaustive re-check of degrees 1..3: "
      f"{report.equations_checked} relations, "
      f"{len(report.violations)} violations")

# The six seeds are themselves over-determined: drop one and the system
# re-derives it.
from gw24.keys import SeedSet
from gw24.schubert import seed_invariants

full = seed_invariants()
removed = sorted(full.entries)[0]
reduced = SeedSet(
    entries={k: v for k, v in full.entries.items() if k != removed},
    provenance_note="demo",
)
rederived = Engine(seed_set=reduced)
rederived.solve_degree(1)
assert rederived.store.canonical_table(1) == engine.store.canonical_table(1)
print(f"\ndropping seed {tuple(removed)} changes nothing: the relations "
      "re-derive it")
