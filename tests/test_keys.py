import re

import pytest

from gw24.keys import (
    InvariantKey,
    SeedSet,
    canonical_keys,
    canonical_tuples,
    dimension_valid,
    normalize,
    tuples_of_weight,
    valid_tuples,
)


def test_dimension_valid_examples():
    assert dimension_valid(InvariantKey(13, 0, 0, 0, 3))
    assert dimension_valid(InvariantKey(5, 0, 0, 0, 1))
    assert not dimension_valid(InvariantKey(1, 0, 0, 0, 1))
    # degree 0 keys are invalid by convention even at weight 1
    assert not dimension_valid(InvariantKey(1, 0, 0, 0, 0))


def test_normalize():
    assert normalize(InvariantKey(0, 5, 0, 0, 1)) == InvariantKey(5, 0, 0, 0, 1)
    assert normalize(InvariantKey(5, 0, 0, 0, 1)) == InvariantKey(5, 0, 0, 0, 1)
    assert normalize(InvariantKey(2, 2, 1, 2, 3)) == InvariantKey(2, 2, 1, 2, 3)
    assert normalize(InvariantKey(1, 3, 2, 0, 2)).gamma == 2


def test_valid_tuples_weight_and_counts():
    for d in (1, 2, 3):
        for t in valid_tuples(d):
            a, b, g, e = t
            assert a + b + 2 * g + 3 * e == 4 * d + 1
    assert len(valid_tuples(1)) == 16
    assert len(valid_tuples(2)) == 53
    # canonical orbit counts seen by the solver
    assert len(canonical_tuples(1)) == 9
    assert len(canonical_tuples(2)) == 29


def test_tuples_of_weight_small():
    assert tuples_of_weight(0) == [(0, 0, 0, 0)]
    assert sorted(tuples_of_weight(2)) == [
        (0, 0, 1, 0), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0),
    ]


def test_tuples_of_weight_is_the_sorted_brute_force_filter():
    for w in range(26):
        brute = sorted(
            (a, b, g, e)
            for a in range(w + 1) for b in range(w + 1)
            for g in range(w // 2 + 1) for e in range(w // 3 + 1)
            if a + b + 2 * g + 3 * e == w
        )
        assert tuples_of_weight(w) == brute, w


def test_canonical_tuples_returns_a_fresh_list():
    from gw24.engine import EngineError, InvariantStore

    expected = canonical_tuples(1)
    handed_out = canonical_tuples(1)
    dropped = handed_out.pop()
    handed_out.append((9, 9, 9, 9))
    assert canonical_tuples(1) == expected
    assert canonical_keys(1)[1] == set(expected)
    # the store still wants exactly the canonical keys
    store = InvariantStore()
    with pytest.raises(EngineError, match=re.escape(
            f"first missing key {dropped}, first unexpected key (9, 9, 9, 9)")):
        store.commit_degree(1, dict.fromkeys(handed_out, 0))
    store.commit_degree(1, dict.fromkeys(expected, 0))
    assert list(store.canonical_table(1)) == expected


def test_canonical_tuples_are_canonical():
    for d in (1, 2, 3):
        for a, b, _g, _e in canonical_tuples(d):
            assert a >= b


@pytest.mark.parametrize("entries, message", [
    ({InvariantKey(9, 0, 0, 0, 2): 2}, "is not a degree-1 key"),
    ({InvariantKey(1, 0, 0, 0, 1): 1}, "violates the dimension condition"),
    ({InvariantKey(2, 0, 0, 1, 1): 0, InvariantKey(0, 2, 0, 1, 1): 1},
     r"inconsistent under symmetry at .*: 0 vs 1"),
    # weight 5, so dimension-valid; the cache's rows have no text for -1
    ({InvariantKey(0, 0, 1, 1, 1): 1, InvariantKey(6, -1, 0, 0, 1): 0},
     re.escape("seed InvariantKey(alpha=6, beta=-1, gamma=0, delta=0, "
               "degree=1) has a negative entry")),
], ids=["degree-2", "dimension-invalid", "asymmetric", "negative-entry"])
def test_seed_set_rejects_bad_keys_at_construction(entries, message):
    with pytest.raises(ValueError, match=message):
        SeedSet(entries=entries, provenance_note="test")

