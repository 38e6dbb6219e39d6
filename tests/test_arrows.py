from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from peribrauer.arrows import (
    ArrowPair,
    WeightDiagram,
    arrow_pairs,
    flip,
    is_arrow_pair,
    partition_of_weight,
    pi_set,
    render_arrow_diagram,
    rim_hook_of_flip,
    wb_pairs,
    weight_of_partition,
)
from peribrauer.partitions import conjugate, partitions_of
from peribrauer.skew import covering, skew_from_pair

partitions = st.lists(st.integers(1, 7), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_weight_fixtures():
    w = weight_of_partition((1,))
    assert w.is_black(1) and w.is_black(-1) and w.is_black(-5)
    assert not w.is_black(0) and not w.is_black(2) and not w.is_black(9)
    w = weight_of_partition((3, 2))
    assert {p for p in range(-4, 5) if w.is_black(p)} == {-4, -3, -2, 1, 3}
    w = weight_of_partition(())
    assert all(w.is_black(p) == (p <= 0) for p in range(-6, 7))


@given(partitions)
def test_weight_roundtrip(p):
    assert partition_of_weight(weight_of_partition(p)) == p


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        partition_of_weight(WeightDiagram(-2, 2, frozenset({1})))
    with pytest.raises(ValueError):
        partition_of_weight(WeightDiagram(-2, 2, frozenset(range(-2, 3))))
    with pytest.raises(ValueError):
        partition_of_weight(WeightDiagram(-2, 2, frozenset({-1})))  # part -1
    with pytest.raises(ValueError, match="inside the window"):
        WeightDiagram(-2, 2, frozenset({3}))


def test_arrow_pair_fixtures():
    assert arrow_pairs(weight_of_partition((1,))) == []
    assert arrow_pairs(weight_of_partition((2, 1))) == []
    assert arrow_pairs(weight_of_partition((3,))) == [ArrowPair(1, 3)]
    assert sorted(arrow_pairs(weight_of_partition((3, 2)))) == [
        ArrowPair(-1, 1),
        ArrowPair(-1, 3),
    ]
    # pairs that are not white-before-black: blacks of (3,) are 3, -1, -2, ...
    w = weight_of_partition((3,))
    assert not is_arrow_pair(w, ArrowPair(-1, 3))  # black source
    assert not is_arrow_pair(w, ArrowPair(1, 2))  # white target
    assert not is_arrow_pair(w, ArrowPair(1, -1))  # target left of source


def test_pairs_match_colour_by_colour_reference():
    # wb pairs and arrow pairs against the definitions, every colour read
    # through is_black
    for n in range(0, 16):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            window = range(w.window_lo, w.window_hi + 1)
            wb = [ArrowPair(s, t) for s in window for t in window
                  if s < t and not w.is_black(s) and w.is_black(t)]
            arrows = []
            for s, t in wb:
                steps = [-1 if w.is_black(c) else 1 for c in range(s, t + 1)]
                prefixes = [sum(steps[1:m]) for m in range(2, len(steps))]
                if sum(steps) == 1 and all(x >= 0 for x in prefixes):
                    arrows.append(ArrowPair(s, t))
            assert wb_pairs(w) == wb, mu
            assert arrow_pairs(w) == arrows, mu


def test_is_arrow_pair_matches_arrow_pairs():
    # both read the one scan, is_arrow_pair stopping it at the target;
    # arrow_pairs keeps the order of wb_pairs
    for n in range(0, 16):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            assert arrow_pairs(w) == [p for p in wb_pairs(w) if is_arrow_pair(w, p)], mu


def test_flip_fixtures():
    w = weight_of_partition((3, 2))
    assert partition_of_weight(flip(w, (-1, 3))) == (1,)
    assert partition_of_weight(flip(w, (-1, 1))) == (3,)
    w3 = weight_of_partition((3,))
    assert partition_of_weight(flip(w3, (1, 3))) == (1,)
    with pytest.raises(ValueError):
        flip(w, (0, 2))  # white-white
    with pytest.raises(ValueError, match="outside window"):
        flip(w, (-1, 8))  # the window of (3, 2) is -7..7


@given(partitions)
def test_flip_involution(p):
    w = weight_of_partition(p)
    for pair in wb_pairs(w):
        flipped = flip(w, pair)
        assert flip(flipped, pair).blacks == w.blacks


def test_pi_fixtures():
    assert pi_set((3, 2)) == {(3, 2), (3,), (1,)}
    assert pi_set((1,)) == {(1,)}
    assert pi_set((2, 1)) == {(2, 1)}
    assert pi_set(()) == {()}


def test_rim_hook_of_flip_fixtures():
    fh = rim_hook_of_flip((3,), (1, 3))
    assert fh.partition == (1,)
    assert (fh.ht, fh.wd) == (1, 2)
    assert fh.anticontent_deltas == (0, 1)
    fh = rim_hook_of_flip((3, 2), (-1, 3))
    assert fh.partition == (1,)
    assert (fh.ht, fh.wd) == (2, 3)


def test_rim_hook_of_flip_matches_dot_counts():
    # the per-prefix definition: ht = #blacks in [s, t] and
    # delta_i = i - 2 * #blacks in (s, s + i]; the partition against the
    # weight-diagram route, `flip` and `partition_of_weight`, which keep
    # their own reading of the colouring
    def blacks(w, lo, hi):
        return sum(w.is_black(c) for c in range(lo, hi + 1))

    pairs = 0
    for n in range(13):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            for s, t in wb_pairs(w):
                pairs += 1
                ht = blacks(w, s, t)
                deltas = tuple(i - 2 * blacks(w, s + 1, s + i) for i in range(t - s))
                fh = rim_hook_of_flip(mu, (s, t))
                assert (fh.ht, fh.wd, fh.anticontent_deltas) == (ht, t - s - ht + 1, deltas)
                assert fh.partition == partition_of_weight(flip(w, (s, t))), (mu, (s, t))
    assert pairs == 2646


def test_rim_hook_of_flip_any_pair_matches_weight_route():
    # every (s, t) in and around the window, black-white pairs included:
    # the same partition or the same refusal
    outcomes = dict.fromkeys(["wb", "bw", "outside window", "not a white-black pair"], 0)
    for n in range(6):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            span = range(w.window_lo - 1, w.window_hi + 2)
            for pair in product(span, span):
                try:
                    want = partition_of_weight(flip(w, pair))
                except ValueError as e:
                    with pytest.raises(ValueError) as got:
                        rim_hook_of_flip(mu, pair)
                    assert str(got.value) == str(e), (mu, pair)
                    outcomes["outside window" if "window" in str(e)
                             else "not a white-black pair"] += 1
                else:
                    assert rim_hook_of_flip(mu, pair).partition == want, (mu, pair)
                    outcomes["bw" if w.is_black(pair[0]) else "wb"] += 1
    assert outcomes == {"wb": 69, "bw": 681, "outside window": 2634,
                        "not a white-black pair": 643}


def test_rim_hook_of_flip_bw_pairs_match_dot_counts():
    # a black-white pair has the same dot-count statistics; when its black
    # end lies below the beta-numbers, they count the black tail above it
    def blacks(w, lo, hi):
        return sum(w.is_black(c) for c in range(lo, hi + 1))

    pairs = from_tail = 0
    for n in range(6):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            for s, t in combinations(range(w.window_lo, w.window_hi + 1), 2):
                if not w.is_black(s) or w.is_black(t):
                    continue
                pairs += 1
                from_tail += s < -len(mu)
                ht = blacks(w, s, t)
                deltas = tuple(i - 2 * blacks(w, s + 1, s + i) for i in range(t - s))
                fh = rim_hook_of_flip(mu, (s, t))
                assert (fh.ht, fh.wd, fh.anticontent_deltas) == (ht, t - s - ht + 1, deltas)
    assert (pairs, from_tail) == (681, 386)


def test_adjacent_pair_removes_single_box():
    for mu in [(1,), (2, 1), (3, 3, 2)]:
        w = weight_of_partition(mu)
        for pair in wb_pairs(w):
            if pair.target == pair.source + 1:
                fh = rim_hook_of_flip(mu, pair)
                assert (fh.ht, fh.wd) == (1, 1)
                assert sum(fh.partition) == sum(mu) - 1


def arrows_cross(a: ArrowPair, b: ArrowPair) -> bool:
    """Neither nested nor disjoint nor sharing their source."""
    if a.source == b.source:
        return False
    (_, t1), (s2, t2) = sorted((a, b))
    return s2 <= t1 <= t2  # overlapping, the second not inside the first


def test_arrows_never_cross():
    for n in range(0, 13):
        for mu in partitions_of(n):
            arrows = arrow_pairs(weight_of_partition(mu))
            for a, b in combinations(arrows, 2):
                assert not arrows_cross(a, b), (mu, a, b)


def test_conjugate_reflection():
    # transposing the partition reflects the diagram between 0 and 1 and
    # swaps the colours
    for n in range(0, 13):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            wc = weight_of_partition(conjugate(mu))
            for pos in range(w.window_lo, w.window_hi + 1):
                assert wc.is_black(1 - pos) == (not w.is_black(pos))


def hooks_in_outer_frame(mu, lam):
    """Covering hooks of mu/lam with coordinates in mu's own frame."""
    k = skew_from_pair(mu, lam)
    inner = list(lam) + [0] * (len(mu) - len(lam))
    occ_rows = [i for i in range(len(mu)) if inner[i] < mu[i]]
    dr = occ_rows[0]
    dc = min(inner[i] for i in occ_rows)
    return [
        frozenset((i + dr, j + dc) for i, j in h.boxes) for h in covering(k)
    ]


def test_nested_flips_remove_nested_hooks():
    # flipping two disjoint pairs removes disjoint hooks; nested pairs
    # remove nested hooks
    from test_skew import hook_nested_in, hooks_disjoint

    for n in range(0, 11):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            arrows = arrow_pairs(w)
            for a, b in combinations(arrows, 2):
                if a.source == b.source:
                    continue
                first = rim_hook_of_flip(mu, a).partition
                final = partition_of_weight(flip(flip(w, a), b))
                (h1,) = hooks_in_outer_frame(mu, first)
                both = hooks_in_outer_frame(mu, final)
                assert len(both) == 2 and h1 in both
                h2 = next(h for h in both if h != h1)
                nested = (a.source < b.source and b.target < a.target) or (
                    b.source < a.source and a.target < b.target
                )
                if nested:
                    assert hook_nested_in(h2, h1) or hook_nested_in(h1, h2)
                else:
                    assert hooks_disjoint(h1, h2)


def test_render_arrow_diagram():
    out = render_arrow_diagram((3,))
    lines = out.splitlines()
    assert lines[0] == "window -5..5"
    assert lines[1] == "xxxxxoooxoo"
    assert lines[-1] == "1 -> 3"
