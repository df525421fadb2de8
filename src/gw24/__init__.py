"""Exact counts of rational curves in G(2,4) and of rational ruled
surfaces in P^3, reconstructed from the classical cohomology ring plus a
six-entry seed set via the associativity of the quantum product."""

from .cache import CacheError, load_store, save_store
from .cohomology import (
    Basis,
    ClassCombination,
    codim,
    cup,
    pairing,
    poincare_dual,
    triple,
)
from .engine import (
    Engine,
    EngineError,
    InconsistencyError,
    InvariantStore,
    MissingValueError,
    RuledSurfaceDegree,
    UnderdeterminedSystemError,
)
from .keys import (
    InvariantKey,
    SeedSet,
    canonical_tuples,
    dimension_valid,
    valid_tuples,
)
from .relations import WdvvEquation, equation_families
from .schubert import (
    QuantumClassCombination,
    classical_pieri,
    classical_triple_oracle,
    quantum_pieri,
    seed_invariants,
)
from .table import GOLDEN_Q, DegreeTableRow, build_rows
from .verify import Violation, WdvvReport, verify_store

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CacheError",
    "ClassCombination",
    "DegreeTableRow",
    "GOLDEN_Q",
    "Engine",
    "EngineError",
    "InconsistencyError",
    "InvariantKey",
    "InvariantStore",
    "MissingValueError",
    "QuantumClassCombination",
    "RuledSurfaceDegree",
    "SeedSet",
    "UnderdeterminedSystemError",
    "Violation",
    "WdvvEquation",
    "WdvvReport",
    "build_rows",
    "canonical_tuples",
    "classical_pieri",
    "classical_triple_oracle",
    "codim",
    "cup",
    "dimension_valid",
    "equation_families",
    "load_store",
    "pairing",
    "poincare_dual",
    "quantum_pieri",
    "save_store",
    "seed_invariants",
    "triple",
    "valid_tuples",
    "verify_store",
]
