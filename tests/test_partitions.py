import pytest
from hypothesis import given, strategies as st

from peribrauer.partitions import (
    add_q,
    check_partition,
    conjugate,
    contains,
    format_partition,
    labels_L,
    labels_Lambda,
    parse_partition,
    partitions_of,
    remove_q,
    size,
    subpartitions,
)

partitions = st.lists(st.integers(1, 7), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def brute_add_q(p, q):
    """Independent oracle: try to increment every row (or append a row)
    and keep the results that are partitions with the new box at content
    q - 1."""
    results = []
    for i in range(len(p) + 1):
        rows = list(p) + [0]
        rows[i] += 1
        new_col = rows[i]
        if all(rows[k] >= rows[k + 1] for k in range(len(rows) - 1)):
            if new_col - (i + 1) == q - 1:
                results.append(tuple(x for x in rows if x))
    assert len(results) <= 1
    return results[0] if results else None


def brute_remove_q(p, q):
    results = []
    for i in range(len(p)):
        rows = list(p)
        old_col = rows[i]
        rows[i] -= 1
        if all(rows[k] >= rows[k + 1] for k in range(len(rows) - 1)):
            if old_col - (i + 1) == q:
                results.append(tuple(x for x in rows if x))
    assert len(results) <= 1
    return results[0] if results else None


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@pytest.mark.parametrize(
    "p,expected",
    [((3, 1), (2, 1, 1)), ((), ()), ((2, 1), (2, 1)), ((5,), (1, 1, 1, 1, 1))],
)
def test_conjugate_fixtures(p, expected):
    assert conjugate(p) == expected


@given(partitions)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert size(conjugate(p)) == size(p)


def test_contains():
    assert contains((1,), (3, 1))
    assert not contains((2,), (1, 1))
    assert contains((), (4, 2))
    assert contains((2, 2), (2, 2))


def test_add_q_fixtures():
    assert add_q((), 1) == (1,)
    assert add_q((1,), 2) == (2,)
    assert add_q((1,), 0) == (1, 1)
    assert add_q((2,), 1) is None


def test_remove_q_fixtures():
    assert remove_q((1,), 0) == ()
    assert remove_q((1,), 1) is None
    assert remove_q((3, 1), 2) == (2, 1)
    assert remove_q((3, 1), -1) == (3,)


def test_add_remove_against_oracle():
    for n in range(0, 8):
        for p in partitions_of(n):
            for q in range(-9, 10):
                assert add_q(p, q) == brute_add_q(p, q)
                assert remove_q(p, q) == brute_remove_q(p, q)


def test_add_remove_roundtrip():
    # adding a (q-1)-box and removing a (q-1)-box... stated precisely:
    # p2 = add_q(p, q) iff p = remove_{q-1}(p2), over all small p and q
    for n in range(0, 11):
        for p in partitions_of(n):
            for q in range(-12, 13):
                p2 = add_q(p, q)
                if p2 is not None:
                    assert remove_q(p2, q - 1) == p
                r = remove_q(p, q)
                if r is not None:
                    assert add_q(r, q + 1) == p


def addable_boxes(p):
    """Boxes (row, col) whose addition gives a partition again, top row
    first."""
    out = [(1, p[0] + 1)] if p else [(1, 1)]
    for i in range(1, len(p)):
        if p[i] < p[i - 1]:
            out.append((i + 1, p[i] + 1))
    if p:
        out.append((len(p) + 1, 1))
    return out


def removable_boxes(p):
    """Corner boxes (row, col) whose removal gives a partition again."""
    out = []
    for i in range(len(p)):
        if i + 1 == len(p) or p[i] > p[i + 1]:
            out.append((i + 1, p[i]))
    return out


def test_addable_removable_distinct_contents():
    for n in range(0, 9):
        for p in partitions_of(n):
            adds = [j - i for i, j in addable_boxes(p)]
            rems = [j - i for i, j in removable_boxes(p)]
            assert len(set(adds)) == len(adds)
            assert len(set(rems)) == len(rems)


def test_labels_r2():
    assert set(labels_Lambda(2)) == {(2,), (1, 1)}
    assert set(labels_L(2)) == {(2,), (1, 1), ()}


def test_labels_r3():
    expect = {(3,), (2, 1), (1, 1, 1), (1,)}
    assert set(labels_Lambda(3)) == expect
    assert labels_L(3) == labels_Lambda(3)


def test_labels_r4_count():
    assert len(labels_L(4)) == 8  # five of size 4, two of size 2, plus empty


def test_labels_nesting():
    for r in range(2, 9):
        assert set(labels_L(r)) >= set(labels_Lambda(r))
        assert (set(labels_L(r)) == set(labels_Lambda(r))) == (r % 2 == 1)


def test_labels_reject_small_r():
    with pytest.raises(ValueError):
        labels_Lambda(1)


def test_subpartitions():
    subs = set(subpartitions((2, 1)))
    assert subs == {(), (1,), (2,), (1, 1), (2, 1)}
    assert set(subpartitions(())) == {()}


@given(partitions)
def test_subpartitions_are_contained(p):
    for lam in subpartitions(p):
        assert contains(lam, p)


def test_format_parse_roundtrip():
    for p in [(), (1,), (3, 1), (4, 4, 2)]:
        assert parse_partition(format_partition(p)) == p
    assert format_partition((3, 1)) == "[3,1]"
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
