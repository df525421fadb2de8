import json
from itertools import product

import pytest

from gw24 import cohomology, schubert
from gw24.cli import main
from gw24.cohomology import Basis, ClassCombination, codim, triple
from gw24.keys import InvariantKey
from gw24.relations import equation_families
from gw24.schubert import (
    CLASS_OF_PARTITION,
    PARTITION_OF_CLASS,
    PARTITIONS,
    SeedTableError,
    _add_row_strip,
    classical_consistency_failures,
    classical_pieri,
    classical_triple_oracle,
    quantum_pieri,
    seed_invariants,
)

T0, T1, TA, TB, T3, T4 = Basis


def test_partition_bijection():
    assert len(PARTITIONS) == 6
    assert CLASS_OF_PARTITION[()] == T0
    assert CLASS_OF_PARTITION[(1,)] == T1
    assert CLASS_OF_PARTITION[(2,)] == TA
    assert CLASS_OF_PARTITION[(1, 1)] == TB
    assert CLASS_OF_PARTITION[(2, 1)] == T3
    assert CLASS_OF_PARTITION[(2, 2)] == T4
    for lam, c in CLASS_OF_PARTITION.items():
        assert sum(lam) == codim(c)
        assert PARTITION_OF_CLASS[c] == lam


def test_classical_pieri_examples():
    assert classical_pieri((1,)) == ClassCombination({TA: 1, TB: 1})
    assert classical_pieri((2, 2)) == ClassCombination.zero()
    assert classical_pieri((2,)) == ClassCombination.of(T3)
    assert classical_pieri((1, 1)) == ClassCombination.of(T3)
    assert classical_pieri((2, 1)) == ClassCombination.of(T4)


def test_row_strip_one_box_per_row():
    # sigma2 * sigma1 = sigma21: the strip puts one box in each row, the
    # only way for it to fit the 2x2 box
    assert _add_row_strip((1,)) == [(2, 1)]


def test_classical_pieri_stays_in_box():
    for lam in PARTITIONS:
        for c, v in classical_pieri(lam).coeffs.items():
            assert v == 1
            mu = PARTITION_OF_CLASS[c]
            assert len(mu) <= 2 and all(part <= 2 for part in mu)
            assert sum(mu) == sum(lam) + 1


def test_classical_pieri_rejects_bad_partition():
    with pytest.raises(ValueError):
        classical_pieri((3,))


def test_triple_oracle_examples():
    assert classical_triple_oracle((1,), (1,), (2,)) == 1
    assert classical_triple_oracle((2,), (1, 1), ()) == 0
    assert classical_triple_oracle((2, 2), (), ()) == 1


def test_triple_oracle_matches_tensor_on_all_216():
    for i in Basis:
        for j in Basis:
            for k in Basis:
                expected = triple(i, j, k)
                got = classical_triple_oracle(
                    PARTITION_OF_CLASS[i],
                    PARTITION_OF_CLASS[j],
                    PARTITION_OF_CLASS[k],
                )
                assert got == expected, (i, j, k)


def test_classical_consistency_helper_is_clean():
    assert classical_consistency_failures() == []


def labels(key):
    return ",".join(c.label for c in key)


@pytest.mark.parametrize(
    "key", [(T0, T0, T4), (T0, T1, T3), (T0, TA, TA), (T0, TB, TB)], ids=labels
)
@pytest.mark.parametrize("value", [2, 0, -1])
def test_mistyped_pairing_entry_fails_the_check(monkeypatch, key, value):
    # the pairing is the tensor's T0 slice: a wrong entry there is one
    # oracle line plus the pairing line, and stops before cup, which needs
    # each class's Poincare dual; the relation families are built (and
    # cached) from the true table first
    equation_families()
    if value:
        monkeypatch.setitem(cohomology._TRIPLE_NONZERO, key, value)
    else:
        monkeypatch.delitem(cohomology._TRIPLE_NONZERO, key)
    assert classical_consistency_failures() == [
        f"triple({labels(key)}) = {value}, oracle says 1",
        "pairing matrix has a negative entry" if value < 0
        else "pairing matrix is not its own inverse",
    ]


def test_verify_reports_a_mistyped_pairing(monkeypatch, capsys):
    equation_families()
    monkeypatch.setitem(cohomology._TRIPLE_NONZERO, (T0, T1, T3), 2)
    code = main(["verify", "--max-degree", "1", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    failed = [c["check"] for c in json.loads(captured.out)["checks"]
              if not c["ok"]]
    assert failed == ["classical-ring-vs-oracle"]


def test_mistyped_product_entry_is_one_line(monkeypatch):
    equation_families()
    monkeypatch.setitem(cohomology._TRIPLE_NONZERO, (T1, T1, TA), 2)
    assert classical_consistency_failures() == [
        "triple(T1,T1,Ta) = 2, oracle says 1"]


def test_mistyped_entry_off_the_pairing_breaks_cup_associativity(monkeypatch):
    # (T1,T1,T4) lies off the T0 slice, so the pairing stays right and the
    # associativity sub-check runs: T1 cup T1 gains 2 T0, which breaks the
    # eight triples below
    equation_families()
    monkeypatch.setitem(cohomology._TRIPLE_NONZERO, (T1, T1, T4), 2)
    assert classical_consistency_failures() == [
        "triple(T1,T1,T4) = 2, oracle says 0",
        *(f"cup not associative at ({labels(key)})" for key in (
            (T1, T1, TA), (T1, T1, TB), (T1, TA, TA), (T1, TB, TB),
            (TA, T1, T1), (TA, TA, T1), (TB, T1, T1), (TB, TB, T1))),
    ]


def test_wrong_point_q_term_fails_its_own_check(monkeypatch):
    # both q-term checks read N(0,0,1,1;1), so a wrong seed fails the (2,1)
    # check first; a wrong (2,2) q-term of quantum_pieri fails the (2,2)
    # check alone
    pieri = schubert.quantum_pieri

    def wrong_point(lam):
        q = pieri(lam)
        if lam == (2, 2):
            return schubert.QuantumClassCombination(
                q.classical_part, ClassCombination.of(T1, 2))
        return q

    monkeypatch.setattr(schubert, "quantum_pieri", wrong_point)
    with pytest.raises(SeedTableError) as exc:
        seed_invariants()
    assert str(exc.value) == "quantum Pieri q-term at (2,2) disagrees with seeds"


def test_quantum_pieri_table():
    q = quantum_pieri((1,))
    assert q.classical_part == ClassCombination({TA: 1, TB: 1})
    assert q.q_part == ClassCombination.zero()

    q = quantum_pieri((2, 1))
    assert q.classical_part == ClassCombination.of(T4)
    assert q.q_part == ClassCombination.of(T0)

    q = quantum_pieri((2, 2))
    assert q.classical_part == ClassCombination.zero()
    assert q.q_part == ClassCombination.of(T1)

    for lam in ((), (2,), (1, 1)):
        assert quantum_pieri(lam).q_part == ClassCombination.zero()


def test_quantum_pieri_grading():
    # classical terms gain one codimension; q terms lose three (one
    # codimension up, minus the degree-1 curve class worth four)
    for lam in PARTITIONS:
        c_in = sum(lam)
        q = quantum_pieri(lam)
        for c, _ in q.classical_part.coeffs.items():
            assert codim(c) == c_in + 1
        for c, _ in q.q_part.coeffs.items():
            assert codim(c) == c_in + 1 - 4


def test_seed_invariants():
    seeds = seed_invariants()
    assert len(seeds.entries) == 6
    assert seeds.entries[InvariantKey(0, 0, 1, 1, 1)] == 1
    assert seeds.entries[InvariantKey(2, 0, 0, 1, 1)] == 0
    assert seeds.entries[InvariantKey(1, 0, 2, 0, 1)] == 1
    assert seeds.entries[InvariantKey(1, 1, 0, 1, 1)] == 1
    # symmetric images agree
    canon = seeds.canonical_entries()
    assert len(canon) == 4
    assert seeds.provenance_note.startswith("docs/")


def test_every_wrong_seed_table_is_rejected(monkeypatch):
    # every table with values 0..3 at the four canonical seed keys, mirror
    # images equal: the q-term scale and the degree-1 relations accept
    # only the true one
    images = [[(0, 0, 1, 1)], [(1, 1, 0, 1)], [(2, 0, 0, 1), (0, 2, 0, 1)],
              [(1, 0, 2, 0), (0, 1, 2, 0)]]
    accepted = []
    for values in product(range(4), repeat=len(images)):
        for keys, v in zip(images, values):
            for key in keys:
                monkeypatch.setitem(schubert._SEED_TABLE, key, v)
        try:
            seed_invariants()
        except SeedTableError:
            continue
        accepted.append(values)
    assert accepted == [(1, 1, 0, 1)]


def test_seed_entries_all_dimension_valid():
    from gw24.keys import dimension_valid

    for key in seed_invariants().entries:
        assert key.degree == 1
        assert dimension_valid(key)
