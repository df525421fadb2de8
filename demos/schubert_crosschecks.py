"""The independent Schubert-calculus oracle, and what it checks.

The engine's classical ring is one table, the triple-intersection tensor
over six classes (its T0 slice is the Poincare pairing), and a typo in it
could hide forever.  This oracle recomputes everything from a different starting
point: partitions in the 2x2 box, multiplied by the Pieri rule (sigma_1 or
sigma_2 adds a horizontal strip).  It also carries Bertram's quantum Pieri
rule for multiplication by the hyperplane class, whose q-terms fix the
scale of the six seed counts, and the seeds' consistency checks.

Run:  python demos/schubert_crosschecks.py
"""

from gw24.cohomology import Basis, triple
from gw24.schubert import (
    PARTITION_OF_CLASS,
    PARTITIONS,
    classical_pieri,
    classical_triple_oracle,
    quantum_pieri,
    seed_invariants,
)

print("Pieri products by the hyperplane class (add one box in the 2x2 box):")
for lam in PARTITIONS:
    print(f"  sigma_{lam or '()'} -> {classical_pieri(lam)}")

print("\nTriple integrals, oracle vs stored tensor, all 216:")
mismatches = 0
for i in Basis:
    for j in Basis:
        for k in Basis:
            oracle = classical_triple_oracle(
                PARTITION_OF_CLASS[i], PARTITION_OF_CLASS[j], PARTITION_OF_CLASS[k]
            )
            if oracle != triple(i, j, k):
                mismatches += 1
print(f"  mismatches: {mismatches}")

print("\nQuantum Pieri corrections (q tracks the curve degree):")
for lam in ((2, 1), (2, 2)):
    q = quantum_pieri(lam)
    print(f"  sigma_1 * sigma_{lam} = {q.classical_part} + q * ({q.q_part})")
print("  all shorter partitions receive no q-term")

print("\nSeed counts (each an elementary pencil count, see "
      "docs/degree_one_counts.md):")
seeds = seed_invariants()  # raises if the cross-checks fail
for key in sorted(seeds.entries):
    print(f"  N(alpha={key.alpha}, beta={key.beta}, gamma={key.gamma}, "
          f"delta={key.delta}; d=1) = {seeds.entries[key]}")
print("\ncross-checks passed: the q-coefficients fix the scale "
      "N(0,0,1,1;1) = 1 by the")
print("divisor rule, and every degree-1 associativity relation among the "
      "seed keys holds")
