from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from peribrauer.partitions import partitions_of
from peribrauer.skew import (
    EMPTY,
    Hook,
    SkewDiagram,
    _addable_positions,
    _occ_add,
    _occ_remove,
    _removable_positions,
    components,
    conjugate_skew,
    covering,
    disjoint_or_nested,
    enumerate_skew_diagrams,
    format_skew,
    is_gamma,
    is_gamma0,
    occ_violation,
    parse_skew,
    render,
    skew_from_pair,
)
from peribrauer.verify import covering_uniqueness, vertical_dominoes

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
    with pytest.raises(ValueError):
        skew_from_pair((1, 1), (2,))


def test_from_pair_disjoint_boxes():
    k = skew_from_pair((3, 1), (2,))
    assert k.boxes() == {(1, 3), (2, 1)}
    assert len(components(k)) == 2


def test_translation_invariance():
    a = SkewDiagram.from_boxes([(5, 7), (5, 8)])
    assert a == DOMINO


def test_components_offsets():
    k = skew_from_pair((4, 2), (2,))  # two dominoes, adjacent rows
    comps = components(k)
    assert [c.rows for c, _ in comps] == [((0, 2),), ((0, 2),)]
    assert [off for _, off in comps] == [(0, 2), (1, 0)]
    assert components(EMPTY) == []
    assert len(components(BLOCK23)) == 1


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
    order), at every content within the span cap n + 1 of the diagram:
    (row intervals, content) pairs."""
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
            for c in range(lo - cap - 2, hi + cap + 3):
                yield o, c


def test_positions_match_reference():
    for o, c in _position_grid():
        for down in (True, False):
            assert _addable_positions(o, c, down) == _reference_positions(
                o, c, down, add=True), (o, c, down)
            assert _removable_positions(o, c, down) == _reference_positions(
                o, c, down, add=False), (o, c, down)


def test_occ_remove_matches_box_removal():
    # every removable box on the grid of test_positions_match_reference,
    # one-box rows among them, which no push reaches: the row intervals
    # left are those of the box set without it
    def box_set(o):
        return {(i, j) for i, (l, r) in o.items() for j in range(l + 1, r + 1)}

    emptied = 0
    for o, c in _position_grid():
        for down in (True, False):
            for b in _removable_positions(o, c, down):
                rest = _occ_remove(o, *b)
                assert all(l < r for l, r in rest.values()), (o, b)
                assert box_set(rest) == box_set(o) - {b}, (o, b)
                assert SkewDiagram.from_occ(rest) == SkewDiagram.from_boxes(box_set(rest))
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
    h = Hook(frozenset(HOOK4.boxes()))
    assert (h.ht, h.wd) == (2, 3)
    assert tuple(h.min_box) == (2, 1)
    with pytest.raises(ValueError):
        Hook(frozenset({(1, 1), (2, 2)}))  # disconnected
    with pytest.raises(ValueError):
        Hook(frozenset(BLOCK23.boxes()))  # repeated contents


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
        SkewDiagram.from_boxes(boxes)
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
            Hook(boxes)
            ok = True
        except ValueError:
            ok = False
        assert ok == expected, sorted(boxes)
        accepted += ok
    assert accepted == 105  # ribbons inside a 3x4 box


@pytest.mark.parametrize(
    "diagram,expected",
    [
        (DOMINO, True),
        (SkewDiagram(((0, 1), (0, 1))), False),  # vertical domino
        (HOOK4, True),
        (SkewDiagram.from_boxes([(1, 1), (1, 2), (1, 3), (2, 1)]), False),
    ],
)
def test_gamma0_fixtures(diagram, expected):
    assert is_gamma0(Hook(frozenset(diagram.boxes()))) is expected


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
    # and on its conjugate
    for k in enumerate_skew_diagrams(8):
        for d in (k, conjugate_skew(k)):
            assert is_gamma(d) == all(is_gamma0(h) for h in covering(d)), d


def test_conjugate_skew():
    assert conjugate_skew(DOMINO) == SkewDiagram(((0, 1), (0, 1)))
    assert conjugate_skew(EMPTY) == EMPTY
    assert conjugate_skew(STAIR4) == skew_from_pair((2, 2, 1), (1,))
    for k in NINE | {skew_from_pair((4, 2), (2,)), EMPTY}:
        assert conjugate_skew(conjugate_skew(k)) == k


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


def test_covering_is_covering():
    # partition into hooks, pairwise disjoint or nested, up to size 10;
    # member hooks always have an even number of boxes
    for k in enumerate_skew_diagrams(10):
        cov = covering(k)
        all_boxes = [b for h in cov for b in h.boxes]
        assert len(all_boxes) == k.size
        assert set(all_boxes) == set(k.boxes())
        for h in cov:
            if is_gamma0(h):
                assert len(h.boxes) % 2 == 0
        for h1, h2 in combinations(cov, 2):
            assert disjoint_or_nested(h1.boxes, h2.boxes)


def test_covering_uniqueness_small():
    rep = covering_uniqueness(6)
    assert rep.ok and rep.checked > 0, rep.violations[:1]


def test_vertical_domino_lemma_small():
    # adding a column pair with nothing above or left never keeps both
    # diagrams members
    rep = vertical_dominoes(6)
    assert rep.ok and rep.checked > 0, rep.violations[:1]


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
            k = SkewDiagram.from_boxes(boxes)
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
