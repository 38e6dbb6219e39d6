import hashlib
import random
import re
import sys
import tracemalloc
from collections import Counter
from itertools import islice, zip_longest

import pytest
from hypothesis import given, strategies as st

from peribrauer import skew
from peribrauer.partitions import check_partition, partitions_of, subpartitions
from peribrauer.skew import (
    EMPTY,
    Hook,
    SkewDiagram,
    _addable_positions,
    _addable_table,
    _occ_add,
    _occ_remove,
    _removable_positions,
    check_skew,
    components,
    conjugate_skew,
    covering,
    enumerate_skew_diagrams,
    format_skew,
    is_gamma,
    is_gamma0,
    occ_violation,
    parse_skew,
    render,
    skew_from_pair,
)

# the nine connected nonzero members with at most six boxes
DOMINO = SkewDiagram(((0, 2),))
STAIR4 = SkewDiagram(((1, 3), (0, 2)))
HOOK4 = SkewDiagram(((2, 3), (0, 3)))
BLOCK23 = SkewDiagram(((0, 3), (0, 3)))
STAIR6 = SkewDiagram(((2, 4), (1, 3), (0, 2)))
SIX_B = SkewDiagram(((2, 4), (2, 3), (0, 3)))
SIX_C = SkewDiagram(((3, 4), (1, 4), (0, 2)))
SIX_D = SkewDiagram(((3, 4), (2, 4), (0, 3)))
SIX_E = SkewDiagram(((3, 4), (3, 4), (0, 4)))
NINE = {DOMINO, STAIR4, HOOK4, BLOCK23, STAIR6, SIX_B, SIX_C, SIX_D, SIX_E}


def realization(k: SkewDiagram):
    """Partitions (outer, inner) whose difference is k, read off the rows."""
    outer = tuple(r for _, r in k.rows)
    inner = tuple(l for l, _ in k.rows if l > 0)
    return outer, inner


def from_boxes(boxes) -> SkewDiagram:
    """The canonical diagram of a finite box set, read from outside: each
    row must be contiguous, and the rows must pass `check_skew`, which
    names the reason and rows of a refusal.  It canonicalises without
    `SkewDiagram.from_occ`, row by row from the last row up, so it is that
    function's reference: columns shift by the least left end, and an
    empty row is (x, x), x the right end of the nearest occupied row
    below."""
    rows: dict[int, list[int]] = {}
    for i, j in boxes:
        rows.setdefault(i, []).append(j)
    occ = {}
    for i, cols in rows.items():
        lo, hi = min(cols), max(cols)
        if hi - lo + 1 != len(set(cols)):
            raise ValueError(f"row {i} is not contiguous: {sorted(cols)}")
        occ[i] = (lo - 1, hi)
    check_skew(occ, ";".join(f"{i}:{l}..{r}" for i, (l, r) in sorted(occ.items())))
    if not occ:
        return EMPTY
    shift = min(l for l, _ in occ.values())
    out = []
    for i in range(max(occ), min(occ) - 1, -1):
        if i in occ:
            l, r = occ[i]
            fill = r - shift
            out.append((l - shift, fill))
        else:
            out.append((fill, fill))
    return SkewDiagram(tuple(reversed(out)))


def hook_of_boxes(boxes) -> Hook:
    """The hook of a box set, grouped by row through `Hook`'s one ribbon
    check: a missing row between the top and the bottom, or a row with a
    gap, becomes the empty interval (0, 0), which the check refuses."""
    cols: dict[int, list[int]] = {}
    for i, j in boxes:
        cols.setdefault(i, []).append(j)
    top = min(cols, default=0)
    rows = []
    for i in range(top, top + len(cols)):
        js = cols.get(i)
        rows.append((min(js) - 1, max(js)) if js and max(js) - min(js) < len(js) else (0, 0))
    return Hook(top, tuple(rows))


# The box-set decomposition search, the reference for `hook_decompositions`:
# hooks are frozensets of boxes, grown box by box and tested box by box.


def hooks_through(anchor, avail) -> list[frozenset]:
    """All hooks inside `avail` containing `anchor`.

    A hook is a ribbon: walking contents upward moves right or up, walking
    downward moves left or down, one box per content.
    """

    def tails(box, delta):
        yield (box,)
        i, j = box
        steps = ((i, j + 1), (i - 1, j)) if delta > 0 else ((i, j - 1), (i + 1, j))
        for nb in steps:
            if nb in avail:
                for t in tails(nb, delta):
                    yield (box,) + t

    return [frozenset(down) | frozenset(up)
            for down in tails(anchor, -1) for up in tails(anchor, +1)]


def hooks_disjoint(a: frozenset, b: frozenset) -> bool:
    """No box of one shares a side with (or equals) a box of the other."""
    return not any(nb in b for i, j in a
                   for nb in ((i, j), (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)))


def hook_nested_in(a: frozenset, b: frozenset) -> bool:
    """Each lower and right side of a box of `a` is shared with another box
    of `a` or of `b`."""
    u = a | b
    return all((i + 1, j) in u and (i, j + 1) in u for i, j in a)


def box_decompositions(k: SkewDiagram) -> list:
    """Up to two decompositions of k into pairwise disjoint or nested
    hooks, each as a tuple of `Hook`s in the order of `covering`."""
    found = []

    def rec(remaining: frozenset, chosen: tuple):
        if not remaining:
            found.append(tuple(sorted(hook_of_boxes(h) for h in chosen)))
            return
        for hook in hooks_through(min(remaining), remaining):
            if all(hooks_disjoint(hook, c) or hook_nested_in(hook, c) or hook_nested_in(c, hook)
                   for c in chosen):
                rec(remaining - hook, chosen + (hook,))
                if len(found) >= 2:
                    return

    rec(k.boxes(), ())
    return found


def _box_set(occ):
    return {(i, j) for i, (l, r) in occ.items() for j in range(l + 1, r + 1)}


def test_from_boxes_names_the_reason():
    with pytest.raises(ValueError, match=r"^not a skew diagram \(right endpoints increase "
                                         r"from row 1 to row 2\): '1:0..1;2:0..3'$"):
        from_boxes([(1, 1), (2, 1), (2, 2), (2, 3)])


def brute_is_skew(boxes):
    """Oracle from the definition: a finite box set is a skew diagram (up
    to translation) iff it is convex in the product order, i.e. whenever
    a <= b <= c componentwise with a and c in the set, b is in it too.
    lambda/mu is an order ideal minus an order ideal, so it is convex; a
    convex set S is lambda/mu with lambda the down-set of S.  Rows are
    contiguous because a and c may share a row."""
    boxes = set(boxes)
    for i1, j1 in boxes:
        for i2, j2 in boxes:
            if i1 <= i2 and j1 <= j2 and any(
                (i, j) not in boxes for i in range(i1, i2 + 1) for j in range(j1, j2 + 1)
            ):
                return False
    return True


def test_from_pair_example_diagram():
    # the six-row and five-row readings of this shape differ by one
    # content-0 box in the last row; both are kept as fixtures
    k = skew_from_pair((5, 5, 5, 3, 1, 1), (3, 2, 2))
    assert k.size == 13
    assert k.rows == ((3, 5), (2, 5), (2, 5), (0, 3), (0, 1), (0, 1))
    k12 = skew_from_pair((5, 5, 5, 3, 1), (3, 2, 2))
    assert k12.size == 12
    assert k12.rows == k.rows[:5]


def test_from_pair_basics():
    assert skew_from_pair((2,), ()) == DOMINO
    assert skew_from_pair((3, 2), (1,)) == STAIR4
    assert skew_from_pair((4, 4), (2, 2)) == skew_from_pair((2, 2), ())
    for p in [(), (1,), (3, 1)]:
        assert skew_from_pair(p, p) == EMPTY
    assert skew_from_pair((3, 2, 1), (3, 1)).rows == ((1, 2), (0, 1))  # covered top row
    assert skew_from_pair((4, 2, 2), (2, 2, 2)).rows == ((0, 2),)  # covered bottom rows
    # a covered middle row is (fill, fill), fill the right end of the row below
    assert skew_from_pair((3, 1, 1), (1, 1)).rows == ((1, 3), (1, 1), (0, 1))
    with pytest.raises(ValueError, match=r"^\[2\] is not contained in \[1,1\]$"):
        skew_from_pair((1, 1), (2,))
    with pytest.raises(ValueError, match=r"^\[1,1,1\] is not contained in \[3\]$"):
        skew_from_pair((3,), (1, 1, 1))
    # containment is refused before validity, and against the empty outer
    with pytest.raises(ValueError, match=r"^\[1,3\] is not contained in \[3,2\]$"):
        skew_from_pair((3, 2), (1, 3))
    with pytest.raises(ValueError, match=r"^\[1\] is not contained in \[\]$"):
        skew_from_pair((), (1,))


@pytest.mark.parametrize("outer,inner,bad", [
    ((1, 3), (), (1, 3)),  # outer rises
    ((2, 2), (0, 1), (0, 1)),  # inner has a zero part and rises
    ((2,), (-1,), (-1,)),  # inner has a negative part
    ((2, 1, 3), (1, 1, 3), (2, 1, 3)),  # outer rises in a dropped bottom row
    ((3, 3, 5), (3, 3, 5), (3, 3, 5)),  # outer rises, every row dropped
    ((2, 0), (1, 0), (2, 0)),  # outer's last part is zero
    ((3, 2, 2), (1, 2, 2), (1, 2, 2)),  # inner rises into a dropped bottom row
    ((2.5, 1), (), (2.5, 1)),  # outer has a non-integer part
    ((3, 1), (1.5,), (1.5,)),  # inner has a non-integer part
    ((True,), (), (True,)),  # outer has a bool part
])
def test_from_pair_refuses_non_partitions(outer, inner, bad):
    with pytest.raises(ValueError) as want:
        check_partition(bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        skew_from_pair(outer, inner)


def test_from_pair_matches_box_difference():
    # the rows read straight off the two tuples against the box set of
    # outer minus inner, canonicalised from outside
    def boxes(p):
        return {(i, j) for i, part in enumerate(p, 1) for j in range(1, part + 1)}

    pairs = 0
    for n in range(11):
        for mu in partitions_of(n):
            for lam in subpartitions(mu):
                pairs += 1
                want = from_boxes(boxes(mu) - boxes(lam))  # EMPTY if equal
                assert skew_from_pair(mu, lam) == want, (mu, lam)
    assert pairs == 2888


def test_from_pair_disjoint_boxes():
    k = skew_from_pair((3, 1), (2,))
    assert k.boxes() == {(1, 3), (2, 1)}
    assert len(components(k)) == 2


def test_translation_invariance():
    a = from_boxes([(5, 7), (5, 8)])
    assert a == DOMINO


def test_components_offsets():
    k = skew_from_pair((4, 2), (2,))  # two dominoes, adjacent rows
    comps = components(k)
    assert [c.rows for c, _ in comps] == [((0, 2),), ((0, 2),)]
    assert [off for _, off in comps] == [(0, 2), (1, 0)]
    assert components(EMPTY) == []
    assert len(components(BLOCK23)) == 1


def test_components_match_occ_form():
    # each piece cut from the canonical rows against the piece's row
    # intervals canonicalised by `SkewDiagram.from_occ`, placed at its
    # first row and least left end
    for k in enumerate_skew_diagrams(8):
        expected = []
        for piece in skew._pieces(k.rows):
            occ = {i: k.rows[i] for i in piece}
            expected.append((SkewDiagram.from_occ(occ), (piece[0], min(l for l, _ in occ.values()))))
        assert components(k) == expected, k


def positions(k: SkewDiagram, down: bool, add: bool) -> set[tuple[int, int]]:
    """The addable (add=True) or removable boxes of k, d- (down=True) or
    u-, found by the primitives over the content window [min-2, max+2]."""
    lo, hi = k.content_range()
    occ = k.occ()
    fn = _addable_positions if add else _removable_positions
    return {b for c in range(lo - 2, hi + 3) for b in fn(occ, c, down)}


def test_example_removable_contents():
    k = skew_from_pair((5, 5, 5, 3, 1, 1), (3, 2, 2))
    # shifting the anchor so the lowest box has content 0 adds five
    assert sorted(j - i + 5 for i, j in positions(k, down=False, add=False)) == [2, 6, 8]
    assert sorted(j - i + 5 for i, j in positions(k, down=True, add=False)) == [0, 4, 7]


def test_example_addable_boxes():
    k = skew_from_pair((5, 5, 5, 3, 1, 1), (3, 2, 2))
    uadd = {(b, b[1] - b[0] + 5) for b in positions(k, down=False, add=True)}
    dadd = {(b, b[1] - b[0] + 5) for b in positions(k, down=True, add=True)}
    # the connected attachment points on the upper and lower rim
    assert {((0, 5), 10), ((1, 3), 7), ((3, 2), 4), ((6, 0), -1)} <= uadd
    assert {((1, 6), 10), ((4, 4), 5), ((5, 2), 2), ((7, 1), -1)} <= dadd
    # the two X-marked boxes are both u- and d-addable
    assert {((0, 6), 11), ((7, 0), -2)} <= uadd & dadd


def test_domino_addable_removable():
    assert {(j - i, (i, j)) for i, j in positions(DOMINO, down=True, add=True)} == {
        (-1, (2, 1)), (2, (1, 3)), (3, (0, 3)), (-2, (2, 0))
    }
    assert positions(DOMINO, down=False, add=False) == {(1, 1)}
    assert positions(DOMINO, down=True, add=False) == {(1, 2)}


def test_empty_diagram_window():
    # every box of the empty diagram is d- and u-addable, and all its
    # placements are translates of the one in row 1
    for down in (True, False):
        for c in range(-3, 4):
            assert _addable_positions({}, c, down) == [(1, 1 + c)]
        assert _removable_positions({}, 0, down) == []


def test_addable_results_are_skew():
    for k in [DOMINO, STAIR4, HOOK4, SIX_C, skew_from_pair((4, 2), (2,))]:
        added = positions(k, down=True, add=True) | positions(k, down=False, add=True)
        for b in added:
            assert brute_is_skew(set(k.boxes()) | {b})
        lo, hi = k.content_range()
        for c in range(lo - 2, hi + 3):
            for i in range(-3, 8):
                j = i + c
                boxes = set(k.boxes())
                if (i, j) in boxes:
                    continue
                ok = brute_is_skew(boxes | {(i, j)})
                if (i, j) in added:
                    assert ok
                # an addable box failing both side conditions is possible
                # only when boxes block it on both sides, so no converse


def _reference_positions(occ, content, down, add):
    """The addable (add=True) or removable boxes of one content by the
    definition: add or remove the box in a copy of occ, validate every row
    pair with occ_violation, and test the side condition by scanning all
    rows (down: nothing right of or below the box; up: nothing left of or
    above it)."""
    if add:
        mincon = min(l + 1 - i for i, (l, _) in occ.items())
        maxcon = max(r - i for i, (_, r) in occ.items())
        rows = range(min(occ) - 1 - max(0, content - maxcon - 2),
                     max(occ) + 2 + max(0, mincon - content - 2))
    else:
        rows = list(occ)
    out = []
    for i in rows:
        j = i + content
        l, r = occ.get(i, (j - 1, j - 1))
        if add:
            itv = (l - 1, r) if j == l else (l, j) if j == r + 1 else None
        else:
            itv = (j, r) if l + 1 == j <= r else (l, j - 1) if l < j == r else None
        if itv is None:
            continue
        new = dict(occ)
        new[i] = itv
        if occ_violation({a: v for a, v in new.items() if v[0] < v[1]}):
            continue
        if down:
            blocked = any(a == i and r2 > j or a > i and l2 < j <= r2
                          for a, (l2, r2) in occ.items())
        else:
            blocked = any(a == i and l2 + 1 < j or a < i and l2 < j <= r2
                          for a, (l2, r2) in occ.items())
        if not blocked:
            out.append((i, j))
    return out


def _position_grid():
    """Every diagram with at most n = 5 boxes and each of its one-box
    u-extensions within one content of its range (the intermediates of
    an extension, not canonical: a row off the frame, keys out of
    order), with the contents within the span cap n + 1 of the diagram:
    (row intervals, contents) pairs."""
    n = 5
    cap = n + 1
    for k in enumerate_skew_diagrams(n):
        if k.is_empty:
            continue
        lo, hi = k.content_range()
        occ = k.occ()
        inputs = [occ] + [
            _occ_add(occ, i, j)
            for c in range(lo - 1, hi + 2)
            for i, j in _addable_positions(occ, c, down=False)
        ]
        for o in inputs:
            yield o, range(lo - cap - 2, hi + cap + 3)


def test_positions_match_reference():
    # each content's addable and removable boxes, and the addable table of
    # windows of one content, of three, and of the whole grid, which holds
    # the boxes of each content in it that has any
    for o, contents in _position_grid():
        for down in (True, False):
            added = {}
            for c in contents:
                added[c] = _reference_positions(o, c, down, add=True)
                assert _addable_positions(o, c, down) == added[c], (o, c, down)
                assert _removable_positions(o, c, down) == _reference_positions(
                    o, c, down, add=False), (o, c, down)
            windows = [(c, c + w) for w in (0, 2) for c in contents[:len(contents) - w]]
            for lo, hi in windows + [(contents[0], contents[-1])]:
                want = {c: added[c] for c in range(lo, hi + 1) if added[c]}
                assert _addable_table(o, lo, hi, down) == want, (o, lo, hi, down)


def test_from_occ_matches_from_boxes():
    # the operators' intermediates: the u-extensions of the grid, with a
    # row off the frame or keys out of order, and their d-extensions within
    # one content of their range, gap rows among them
    kinds = {"off the frame": 0, "out of order": 0, "gap rows": 0}
    for o, _ in _position_grid():
        lo = min(l + 1 - i for i, (l, _) in o.items())
        hi = max(r - i for i, (_, r) in o.items())
        firsts = _addable_table(o, lo - 1, hi + 1, down=True).values()
        for occ in [o] + [_occ_add(o, *b) for boxes in firsts for b in boxes]:
            assert SkewDiagram.from_occ(occ) == from_boxes(_box_set(occ)), occ
            kinds["off the frame"] += min(occ) < 1 or min(l for l, _ in occ.values()) < 0
            kinds["out of order"] += list(occ) != sorted(occ)
            kinds["gap rows"] += max(occ) - min(occ) + 1 > len(occ)
    assert all(kinds.values()), kinds


def test_occ_remove_matches_box_removal():
    # every removable box on the grid of test_positions_match_reference,
    # one-box rows among them, which no push reaches: the row intervals
    # left are those of the box set without it
    emptied = 0
    for o, contents in _position_grid():
        for c in contents:
            for down in (True, False):
                for b in _removable_positions(o, c, down):
                    rest = _occ_remove(o, *b)
                    assert all(l < r for l, r in rest.values()), (o, b)
                    assert _box_set(rest) == _box_set(o) - {b}, (o, b)
                    assert SkewDiagram.from_occ(rest) == from_boxes(_box_set(rest))
                    emptied += b[0] not in rest
    assert emptied > 0


def test_content_range_matches_boxes():
    with pytest.raises(ValueError, match="no contents"):
        EMPTY.content_range()
    for k in enumerate_skew_diagrams(9):
        if k.is_empty:
            continue
        contents = [j - i for i, j in k.boxes()]
        assert k.content_range() == (min(contents), max(contents))
        assert k.span() == max(contents) - min(contents)


def test_covering_block():
    cov = covering(BLOCK23)
    assert [sorted(h.boxes) for h in cov] == [
        [(1, 1), (1, 2)],
        [(1, 3), (2, 1), (2, 2), (2, 3)],
    ]


def test_covering_hook_is_itself():
    for k in [DOMINO, STAIR4, HOOK4, STAIR6, SIX_E]:
        cov = covering(k)
        assert len(cov) == 1
        assert cov[0].boxes == k.boxes()
    assert covering(EMPTY) == ()


def test_hook_stats():
    h = hook_of_boxes(frozenset(HOOK4.boxes()))
    assert (h.ht, h.wd) == (2, 3)
    assert tuple(h.min_box) == (2, 1)
    with pytest.raises(ValueError):
        hook_of_boxes(frozenset({(1, 1), (2, 2)}))  # disconnected
    with pytest.raises(ValueError):
        hook_of_boxes(frozenset(BLOCK23.boxes()))  # repeated contents


@pytest.mark.parametrize(
    "top,rows",
    [
        (1, ()),  # no rows
        (1, ((2, 2),)),  # an empty row
        (2, ((3, 5), (1, 1))),  # an empty bottom row
        (1, ((2, 4), (0, 2))),  # the lower row ends left of where the upper starts
        (1, ((2, 4), (1, 4))),  # the lower row ends right of it
    ],
)
def test_hook_rows_refusal(top, rows):
    with pytest.raises(ValueError, match=re.escape(f"not a ribbon: {(top, rows)}")):
        Hook(top, rows)


def _is_hook_reference(boxes) -> bool:
    """Nonempty, edge-connected, pairwise distinct contents, and a skew
    shape."""
    if not boxes:
        return False
    seen, frontier = set(), [min(boxes)]
    while frontier:
        i, j = frontier.pop()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        frontier += [b for b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                     if b in boxes]
    if seen != boxes or len({j - i for i, j in boxes}) != len(boxes):
        return False
    try:
        from_boxes(boxes)
    except ValueError:
        return False
    return True


def test_hook_check_matches_reference():
    cells = [(i, j) for i in range(1, 4) for j in range(1, 5)]
    accepted = 0
    for bits in range(2 ** len(cells)):
        boxes = frozenset(c for t, c in enumerate(cells) if bits >> t & 1)
        expected = _is_hook_reference(boxes)
        try:
            hook_of_boxes(boxes)
            ok = True
        except ValueError:
            ok = False
        assert ok == expected, sorted(boxes)
        accepted += ok
    assert accepted == 105  # ribbons inside a 3x4 box


def test_interval_hooks_match_box_form():
    # every covering hook of the universe at N = 8 and of its conjugates
    # against its box set: built again from the boxes, and each statistic
    # by its definition on the boxes
    for k in enumerate_skew_diagrams(8):
        for d in (k, conjugate_skew(k)):
            for h in covering(d):
                boxes = h.boxes
                again = hook_of_boxes(boxes)
                assert again == h and hash(again) == hash(h), d
                ht, wd = len({i for i, _ in boxes}), len({j for _, j in boxes})
                low = min(boxes, key=lambda b: b[1] - b[0])
                assert (h.ht, h.wd, h.min_box) == (ht, wd, low), d
                assert skew.width_condition(h) == (wd == ht + 1), d
                assert skew.diagonal_condition(h) == all(i + j >= sum(low) for i, j in boxes), d


def test_search_answers_in_hooks():
    # a connected diagram's one decomposition is its covering: the same
    # hooks, in the covering's order
    searched = 0
    for k in enumerate_skew_diagrams(7):
        if len(components(k)) == 1:
            searched += 1
            assert skew.hook_decompositions(k) == [covering(k)], k
    assert searched > 0


def _ribbons_in_grid(n: int) -> list[Hook]:
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    out = []
    for bits in range(1, 2 ** len(cells)):
        try:
            out.append(hook_of_boxes([c for t, c in enumerate(cells) if bits >> t & 1]))
        except ValueError:
            pass
    return out


def test_pair_tests_match_box_form():
    # every ordered pair of ribbons inside a 4x4 grid, overlapping pairs too
    ribbons = [(h, h.boxes) for h in _ribbons_in_grid(4)]
    assert len(ribbons) == 226
    for a, a_boxes in ribbons:
        for b, b_boxes in ribbons:
            assert skew._apart(a, b) == hooks_disjoint(a_boxes, b_boxes), (a, b)
            assert skew._nested_in(a, b) == hook_nested_in(a_boxes, b_boxes), (a, b)


def test_search_matches_box_search():
    # every diagram with at most 7 boxes: as many decompositions, and the
    # same one when there is one
    for k in enumerate_skew_diagrams(7):
        got, want = skew.hook_decompositions(k), box_decompositions(k)
        assert len(got) == len(want) and (len(got) != 1 or got == want), k
    # every connected diagram with at most 9 boxes: the same list
    connected = 0
    for k in enumerate_skew_diagrams(9):
        if len(components(k)) == 1:
            connected += 1
            assert skew.hook_decompositions(k) == box_decompositions(k), k
    assert connected > 0


@pytest.mark.parametrize(
    "diagram,expected",
    [
        (DOMINO, True),
        (SkewDiagram(((0, 1), (0, 1))), False),  # vertical domino
        (HOOK4, True),
        (from_boxes([(1, 1), (1, 2), (1, 3), (2, 1)]), False),
    ],
)
def test_gamma0_fixtures(diagram, expected):
    assert is_gamma0(hook_of_boxes(frozenset(diagram.boxes()))) is expected


def test_gamma_fixtures():
    for k in NINE:
        assert is_gamma(k)
    assert is_gamma(EMPTY)
    assert not is_gamma(skew_from_pair((2, 2), ()))
    assert not is_gamma(skew_from_pair((1,), ()))
    assert not is_gamma(skew_from_pair((3, 1), ()))


def test_gamma_componentwise():
    two_dominoes = skew_from_pair((4, 2), (2,))
    assert is_gamma(two_dominoes)
    domino_plus_box = skew_from_pair((4, 1), (2,))
    assert not is_gamma(domino_plus_box)


def test_gamma_matches_hook_form():
    # membership read off the peel's row intervals agrees with testing the
    # covering's hooks one by one, on every diagram with at most 8 boxes
    # and on its conjugate; the hooks come in the order of their sorted
    # box lists
    for k in enumerate_skew_diagrams(8):
        for d in (k, conjugate_skew(k)):
            cov = covering(d)
            assert is_gamma(d) == all(is_gamma0(h) for h in cov), d
            assert [sorted(h.boxes) for h in cov] == sorted(sorted(h.boxes) for h in cov), d


def test_gamma_matches_hook_form_on_pairs():
    # the same agreement on every pair diagram nu/lam with |nu| <= 10 and
    # its conjugate: these have fully covered bottom rows dropped and empty
    # interior rows between their pieces
    pairs = 0
    for n in range(11):
        for nu in partitions_of(n):
            for lam in subpartitions(nu):
                k = skew_from_pair(nu, lam)
                for d in (k, conjugate_skew(k)):
                    assert is_gamma(d) == all(is_gamma0(h) for h in covering(d)), (nu, lam, d)
                pairs += 1
    assert pairs == 2888


def test_gamma_reads_no_covering(monkeypatch):
    # membership is its own oracle: it peels without the covering's helpers
    def refuse(*args):
        raise AssertionError("is_gamma must not call the covering")

    for name in ("_pieces", "covering"):
        monkeypatch.setattr(skew, name, refuse)
    assert sum(map(is_gamma, enumerate_skew_diagrams(8))) == 172


@pytest.mark.parametrize("rows, expected", [
    (((-2, 0), (-3, -1)), True),  # STAIR4, three columns left
    (((-2, -1), (-3, -1)), False),
    (((-1, 1), (-2, 0), (-3, -1)), True),
    (((-1, 1), (-1, -1), (-3, -1)), True),  # two dominoes, an empty row between
    (((-1, 0), (-1, -1), (-3, -1)), False),
    (((-1, 0), (-1, 0), (-4, 0)), True),  # SIX_E, four columns left
    (((-2, 0), (-2, 0)), False),
    (((-3, -1),), True),
])
def test_gamma_off_frame(rows, expected):
    # rows with negative left ends, outside the canonical frame: the last
    # row keeps nothing whatever its left end, so membership agrees with
    # the covering's hooks
    d = SkewDiagram(rows)
    assert is_gamma(d) is expected
    assert all(is_gamma0(h) for h in covering(d)) is expected


def test_gamma_ignores_column_shifts():
    # every diagram with at most 7 boxes moved 1 to 3 columns left keeps
    # its verdict, and the covering's hooks give it too
    for k in enumerate_skew_diagrams(7):
        for s in (1, 2, 3):
            d = SkewDiagram(tuple((l - s, r - s) for l, r in k.rows))
            assert is_gamma(d) == is_gamma(k) == all(is_gamma0(h) for h in covering(d)), d


def test_conjugate_skew():
    assert conjugate_skew(DOMINO) == SkewDiagram(((0, 1), (0, 1)))
    assert conjugate_skew(EMPTY) == EMPTY
    assert conjugate_skew(STAIR4) == skew_from_pair((2, 2, 1), (1,))
    for k in NINE | {skew_from_pair((4, 2), (2,)), EMPTY}:
        assert conjugate_skew(conjugate_skew(k)) == k


def _box_transpose(k):
    return from_boxes((j, i) for i, j in k.boxes())


def test_conjugate_skew_matches_box_transpose():
    # the column sweep against transposing the box set, on every diagram
    # with at most 8 boxes
    n = 0
    for k in enumerate_skew_diagrams(8):
        assert conjugate_skew(k) == _box_transpose(k), k
        n += 1
    assert n == 13046
    # and on random row tuples: empty or reversed rows anywhere (the first
    # row included), frames not starting at column 0, and shapes that are
    # not skew, which both routes must refuse
    rng = random.Random(15)
    refused = 0
    for _ in range(20000):
        rows = []
        for _ in range(rng.randint(0, 5)):
            l = rng.randint(-2, 4)
            rows.append((l, l + rng.randint(-1, 3)))
        k = SkewDiagram(tuple(rows))
        try:
            want = _box_transpose(k)
        except ValueError:
            with pytest.raises(ValueError, match="not a skew diagram") as got:
                conjugate_skew(k)
            # the same refusal as the full check, naming the same rows
            with pytest.raises(ValueError) as full:
                check_skew(k.occ(), k)
            assert str(got.value) == str(full.value), rows
            refused += 1
        else:
            assert conjugate_skew(k) == want, rows
    assert 0 < refused < 20000


def test_conjugate_skew_names_the_violation():
    k = SkewDiagram(((0, 1), (0, 3)))
    with pytest.raises(ValueError) as exc:
        conjugate_skew(k)
    assert str(exc.value) == (
        "not a skew diagram (right endpoints increase from row 1 to row 2): '1:0..1;2:0..3'"
    )


@given(
    st.lists(st.integers(1, 6), max_size=5).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
    st.lists(st.integers(1, 6), max_size=5).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
)
def test_conjugate_commutes_with_difference(outer, other):
    # componentwise minimum of two partitions is a contained partition
    inner = tuple(
        x for x in (min(a, b) for a, b in zip(outer, other)) if x
    )
    from peribrauer.partitions import conjugate

    k = skew_from_pair(outer, inner)
    assert conjugate_skew(k) == skew_from_pair(conjugate(outer), conjugate(inner))
    assert k.size == sum(outer) - sum(inner)


def test_enumerate_counts_small():
    assert [k.size for k in enumerate_skew_diagrams(0)] == [0]
    by_size = {}
    for k in enumerate_skew_diagrams(3, span_cap=4):
        by_size.setdefault(k.size, set()).add(k)
    assert len(by_size[1]) == 1
    # size 2: horizontal, vertical, and the detached pairs within span 4
    assert SkewDiagram(((0, 1), (0, 1))) in by_size[2]
    assert DOMINO in by_size[2]


def test_enumerate_count_eleven():
    assert sum(1 for _ in enumerate_skew_diagrams(11)) == 479627


def test_enumerate_order_is_pinned():
    # the sequence, not just the set: the fault-injection witnesses of
    # equivalence, vertical_dominoes and covering_uniqueness in
    # test_acceptance::test_registry_check_catches_fault are the first
    # violations in this order
    text = "".join("\n".join(map(format_skew, enumerate_skew_diagrams(n, cap))) + "\n\n"
                   for n in range(8) for cap in (None, 0, 2, n + 3))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1ac5b5145ffb8e5fa22f034a818abbe5715893b23a46d90020575ce6a032e886")
    # the larger universes, where the walk's children table has entries
    # that many nodes share
    text = "".join("\n".join(map(format_skew, enumerate_skew_diagrams(n, cap))) + "\n\n"
                   for n in (8, 9, 10) for cap in (None, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "132737d5d2d510219300b2d861c8e7e1d00ba1a588679b55970356a9ae7f6cbb")


def test_enumerate_table_is_per_call():
    # two walks stepped in turn, and one dropped part way, leave no trace
    # in each other or in the next walk
    plain, capped = list(enumerate_skew_diagrams(7)), list(enumerate_skew_diagrams(7, 3))
    stepped = list(zip_longest(enumerate_skew_diagrams(7), enumerate_skew_diagrams(7, 3)))
    assert len(capped) < len(plain) == len(stepped)
    assert [x for x, _ in stepped] == plain
    assert [y for _, y in stepped[:len(capped)]] == capped
    dropped = enumerate_skew_diagrams(7)
    assert list(islice(dropped, 1000)) == plain[:1000]
    assert list(enumerate_skew_diagrams(7)) == plain
    assert list(enumerate_skew_diagrams(7, 3)) == capped


def test_enumerate_is_lazy():
    # neither the first rows nor a key's children are built ahead of the
    # walk: the first items of a huge universe cost little memory
    tracemalloc.start()
    try:
        got = list(islice(enumerate_skew_diagrams(10**5), 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [SkewDiagram(((0, 1),) * m) for m in range(20)]
    assert peak < 2**20, peak


def _universe_counts(max_size: int, span_cap: int) -> Counter:
    """The number of canonical diagrams of each (size, span) with size <=
    max_size and span <= span_cap, counted without enumerating.

    A connected diagram is a parallelogram polyomino, built a column at a
    time from the left: a column of height h2 after one of height h has
    its top d rows above the old top, h2 - h <= d < h2, so that it meets
    the old column and ends no lower.  The state is (last height, area,
    rows + columns), and the span is rows + columns - 2.  A diagram is a
    chain of them (`join_components`)."""
    connected = Counter()
    layer = Counter({(h, h, h + 1): 1 for h in range(1, max_size + 1) if h <= span_cap + 1})
    while layer:
        grown = Counter()
        for (h, area, rc), n in layer.items():
            connected[area, rc - 2] += n
            for h2 in range(1, max_size - area + 1):
                for d in range(max(0, h2 - h), min(h2, span_cap + 2 - rc)):
                    grown[h2, area + h2, rc + d + 1] += n
        layer = grown
    return join_components(connected, max_size, span_cap)


def join_components(connected: Counter, max_size: int, span_cap: int) -> Counter:
    """The number of diagrams of each (size, span) with size <= max_size
    and span <= span_cap whose components are counted by `connected`, a
    histogram of (size, span): the components run from the top right
    down, consecutive ones with a content gap d >= 2, which has d - 1
    placements, and the span is the sum of the components' spans and the
    gaps.  The empty diagram is the chain of none."""
    total, chains = Counter({(0, 0): 1}), connected
    while chains:
        total += chains
        longer = Counter()
        for (a1, s1), n1 in chains.items():
            for (a2, s2), n2 in connected.items():
                if a1 + a2 <= max_size:
                    for d in range(2, span_cap - s1 - s2 + 1):
                        longer[a1 + a2, s1 + d + s2] += n1 * n2 * (d - 1)
        chains = longer
    return total


def test_enumerate_matches_counting_oracle():
    # the (size, span) histogram of every universe up to N = 10, and of
    # tighter and wider caps on the smaller ones, against the oracle
    for n in range(11):
        for cap in (None,) if n > 7 else (None, 0, 2, n + 3):
            got = Counter((k.size, k.span()) for k in enumerate_skew_diagrams(n, cap))
            assert got == _universe_counts(n, n + 1 if cap is None else cap), (n, cap)
    # the frozen universe sizes, and beyond the enumerator's reach
    totals = [sum(_universe_counts(n, n + 1).values()) for n in (8, 10, 11, 12, 14, 16)]
    assert totals == [13046, 144327, 479627, 1594361, 17651748, 196058578]


def test_enumerate_deeper_than_recursion_limit():
    # the first descent runs through the one-column diagrams, one row per level
    n = 2 * sys.getrecursionlimit()
    *_, last = islice(enumerate_skew_diagrams(n), n + 1)
    assert last == SkewDiagram(((0, 1),) * n)


def test_enumerate_span_cap_is_a_filter():
    # a tighter cap prunes the search; it must drop exactly the wider diagrams
    for n in range(8):
        wide = list(enumerate_skew_diagrams(n, n + 4))
        for cap in range(n + 3):
            expected = {k for k in wide if k.span() <= cap}
            assert set(enumerate_skew_diagrams(n, cap)) == expected, (n, cap)


def test_enumerate_realizable_and_unique():
    seen = set()
    for k in enumerate_skew_diagrams(5):
        assert k not in seen
        seen.add(k)
        outer, inner = realization(k)
        assert skew_from_pair(outer, inner) == k


def test_enumeration_matches_brute_validity():
    # every subset of a 3x3 grid: skew iff accepted by from_boxes
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    enumerated = set(enumerate_skew_diagrams(9, span_cap=10))
    for bits in range(1, 2 ** 9):
        boxes = {cells[t] for t in range(9) if bits >> t & 1}
        ok = brute_is_skew(boxes)
        try:
            k = from_boxes(boxes)
        except ValueError:
            k = None
        assert (k is not None) == ok
        if k is not None:
            assert k in enumerated


def test_format_parse_roundtrip():
    for k in list(enumerate_skew_diagrams(5)) + [EMPTY]:
        assert parse_skew(format_skew(k)) == k
    assert format_skew(EMPTY) == "-"
    with pytest.raises(ValueError, match=r"bad row-interval at piece 2 \('x'\)"):
        parse_skew("1:0..2;x")
    with pytest.raises(ValueError):
        parse_skew("1:0..2;2:0..3")  # widens downward


@given(st.sampled_from(list(enumerate_skew_diagrams(6))), st.data())
def test_parse_roundtrip_and_malformed_mutations(k, data):
    text = format_skew(k)
    assert parse_skew(text) == k
    if k.is_empty:
        return
    pieces = text.split(";")
    i = data.draw(st.sampled_from([i for i, (l, r) in enumerate(k.rows) if l < r]))
    (l, r), n, (ln, rn) = k.rows[i], len(k.rows), k.rows[-1]
    mutations = [
        pieces[:i] + [f"{i + 1}:{r}..{l}"] + pieces[i + 1:],  # reversed row
        pieces + [pieces[i]],  # repeated row
        pieces + [f"{n + 1}:{ln}..{rn + 1}"],  # overlaps the last row on the right
        pieces + [f"{n + 2}:{ln}..{ln + 1}"],  # overlaps it across an empty row
    ]
    for mutation in mutations:
        with pytest.raises(ValueError):
            parse_skew(";".join(mutation))


def test_render():
    assert render(STAIR4) == ".##\n##."
    assert render(STAIR4, contents=True) == ".12\n90."
    assert render(skew_from_pair((4, 2), (2,))) == "..##\n##.."
    assert render(EMPTY) == "(empty)"
