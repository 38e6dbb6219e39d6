import re
from collections import Counter

import pytest

from peribrauer import procedures, skew
from peribrauer.procedures import (
    _op_e_raw,
    equivalence_report,
    generate_upsilon,
    op_E_all,
    op_Ebar_all,
    op_P_all,
    op_Pbar_all,
)
from peribrauer.skew import (
    EMPTY,
    SkewDiagram,
    _addable_positions,
    _addable_table,
    _occ_add,
    components,
    enumerate_skew_diagrams,
    is_gamma,
)

from test_skew import (
    BLOCK23, DOMINO, HOOK4, NINE, SIX_B, SIX_C, STAIR4, STAIR6, brute_is_skew, join_components,
)

# q is relative to the canonical frame, box (1, 1) at content 0: the
# staircase has contents (1,2)/(-1,0), the four-box hook 2/(-1,0,1)


def test_extend_from_empty():
    for q in (-3, 0, 1, 5):
        assert op_E_all(EMPTY, q) == {DOMINO}
        assert op_Ebar_all(EMPTY, q) == {DOMINO}
    assert op_P_all(EMPTY, 0) == set()


def test_extend_domino():
    assert op_E_all(DOMINO, 3) == {STAIR4}
    assert op_E_all(DOMINO, -1) == {STAIR4}
    assert op_Ebar_all(DOMINO, 3) == set()
    assert op_Ebar_all(DOMINO, -1) == {STAIR4}
    assert op_E_all(DOMINO, 0) == set()
    assert op_E_all(DOMINO, 1) == set()


def test_extend_domino_detached():
    assert op_E_all(DOMINO, 4) == {SkewDiagram(((2, 4), (0, 2)))}
    assert op_E_all(DOMINO, 5) == {
        SkewDiagram(((3, 5), (0, 2))),
        SkewDiagram(((2, 4), (2, 2), (0, 2))),
    }


def test_push_staircase():
    assert op_P_all(STAIR4, 1) == {HOOK4}
    assert op_Pbar_all(STAIR4, 1) == {HOOK4}
    for q in range(-8, 8):
        if q != 1:
            assert op_P_all(STAIR4, q) == set(), q


def test_push_hook_always_empty():
    for q in range(-10, 9):
        assert op_P_all(HOOK4, q) == set()


def test_extend_staircase():
    assert op_E_all(STAIR4, 4) == {STAIR6}
    assert op_Ebar_all(STAIR4, 4) == set()
    assert op_E_all(STAIR4, 1) == {BLOCK23}
    assert op_E_all(STAIR4, -2) == {STAIR6}


def test_extend_hook():
    assert op_E_all(HOOK4, 4) == {SIX_B}
    assert op_Ebar_all(HOOK4, -2) == {SIX_C}


def test_barred_subset_of_plain():
    for k in [DOMINO, STAIR4, HOOK4, BLOCK23, SIX_C]:
        lo, hi = k.content_range()
        for q in range(lo - 3, hi + 4):
            assert op_Pbar_all(k, q) <= op_P_all(k, q)
            assert op_Ebar_all(k, q) <= op_E_all(k, q)


def test_operator_size_and_content_effects():
    # pushes keep the content multiset, extensions adjoin {q-1, q}
    for k in [DOMINO, STAIR4, HOOK4, BLOCK23, SIX_C]:
        lo, hi = k.content_range()
        for q in range(lo - 4, hi + 5):
            for res in op_P_all(k, q):
                assert res.size == k.size
                assert res.span() == k.span()
            for res in op_E_all(k, q):
                assert res.size == k.size + 2
                assert res.span() == max(hi, q) - min(lo, q - 1)


def test_every_outcome_is_skew():
    # the primitives trust their skew input and return results they do not
    # re-validate; check every outcome against the convexity oracle, over
    # the q ranges `generate_upsilon` tries with span cap 7, extending every
    # diagram whatever its size
    cap = 7
    outcomes = 0
    for k in enumerate_skew_diagrams(6):
        if k.is_empty:
            results = [op_E_all(k, 0), op_Ebar_all(k, 0)]
        else:
            lo, hi = k.content_range()
            results = [op(k, q) for q in range(lo, hi + 1) for op in (op_P_all, op_Pbar_all)]
            results += [op(k, q) for q in range(hi - cap + 1, lo + cap + 1)
                        for op in (op_E_all, op_Ebar_all)]
        for res in (res for outs in results for res in outs):
            assert brute_is_skew(res.boxes()), (k, res)
            outcomes += 1
    assert outcomes == 2879


def test_generate_trivial():
    assert generate_upsilon(0, barred=False) == {EMPTY}
    assert generate_upsilon(1, barred=True) == {EMPTY}
    assert generate_upsilon(2, barred=False) == {EMPTY, DOMINO}
    assert generate_upsilon(2, barred=True) == {EMPTY, DOMINO}
    with pytest.raises(ValueError, match="max_size must be >= 0"):
        generate_upsilon(-1, barred=False)


@pytest.mark.parametrize("build", [
    lambda n, cap: next(enumerate_skew_diagrams(n, cap)),
    lambda n, cap: generate_upsilon(n, barred=False, span_cap=cap),
    lambda n, cap: equivalence_report(n, cap),
], ids=["enumerate_skew_diagrams", "generate_upsilon", "equivalence_report"])
@pytest.mark.parametrize("max_size,span_cap,message", [
    (-1, None, "max_size must be >= 0, got -1"),
    (4, -2, "span_cap must be >= 0, got -2"),
    # a bound of another type is refused, not rounded or taken as 1
    (2.5, None, "max_size must be an int, got 2.5"),
    (True, None, "max_size must be an int, got True"),
    (4, 2.5, "span_cap must be an int, got 2.5"),
    (4, False, "span_cap must be an int, got False"),
])
def test_negative_universe_bounds_refused(build, max_size, span_cap, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(max_size, span_cap)


def test_second_boxes_match_one_content_lookup():
    # _op_e_raw reads the second boxes off occ's own d-addable boxes or the
    # opened row; after every first box of every diagram with at most six
    # boxes, within 7 contents of its range, they must be what a one-content
    # table of the intermediate diagram holds
    pairs = 0
    for k in enumerate_skew_diagrams(6):
        occ = k.occ()
        lo, hi = k.content_range() if occ else (0, 0)
        seconds = _addable_table(occ, lo - 7, hi + 8, down=True)
        for c, firsts in _addable_table(occ, lo - 7, hi + 7, down=False).items():
            for b in firsts:
                mid = _occ_add(occ, *b)
                want = [_occ_add(mid, *b2) for b2 in _addable_positions(mid, c + 1, down=True)]
                assert _op_e_raw(occ, c + 1, [b], seconds.get(c + 1, [])) == want, (k.rows, b)
                pairs += 1
    assert pairs == 53330


def _reference_E(k, q, barred):
    """E_q (barred: Ebar_q) with the second boxes looked up in each
    intermediate diagram by a one-content table, not by `_op_e_raw`."""
    occ = k.occ()
    out = set()
    for b1 in _addable_positions(occ, q - 1, down=False):
        mid = _occ_add(occ, *b1)
        for b2 in _addable_positions(mid, q, down=True):
            o = _occ_add(mid, *b2)
            if not barred or not _addable_positions(o, q - 1, down=True):
                out.add(SkewDiagram.from_occ(o))
    return out


def _reference_closure(max_size, barred, span_cap=None):
    """The closure by one-content operators: P at every q of the content
    range, E (`_reference_E`) at every q of the extension range."""
    cap = max_size + 1 if span_cap is None else span_cap
    p_all = op_Pbar_all if barred else op_P_all
    seen, frontier = {EMPTY}, [EMPTY]
    while frontier:
        k = frontier.pop()
        produced = set()
        if k.is_empty:
            produced |= _reference_E(k, 0, barred)
        else:
            lo, hi = k.content_range()
            for q in range(lo, hi + 1):
                produced |= p_all(k, q)
            if k.size + 2 <= max_size:
                for q in range(hi - cap + 1, lo + cap + 1):
                    produced |= _reference_E(k, q, barred)
        for res in produced - seen:
            if res.size <= max_size and res.span() <= cap:
                seen.add(res)
                frontier.append(res)
    return frozenset(seen)


@pytest.mark.parametrize("span_cap", [None, 0, 1, 3, 5])
def test_closure_matches_one_content_operators(span_cap):
    # the closure reads its first boxes from one table per diagram and its
    # second boxes off the same tables, and tests the bounds of an outcome
    # only once it is not yet a member (at span cap 0 they reject the
    # domino); operators that look both up one content at a time and
    # bound every outcome must close to the same set
    for barred in (False, True):
        assert generate_upsilon(8, barred, span_cap) == _reference_closure(8, barred, span_cap)


def test_closure_check_catches_opened_row_fault(monkeypatch):
    # without the exception of the opened row, a second box lands under a
    # row's first box across an empty row; the reference must see it
    real = procedures._op_e_raw
    monkeypatch.setattr(procedures, "_op_e_raw", lambda occ, c, firsts, seconds: real(
        occ, c, firsts, seconds) + [occ | {i: (j - 1, j + 1)} for i, j in firsts if i not in occ])
    for barred in (False, True):
        assert generate_upsilon(8, barred) != _reference_closure(8, barred)


def _count_tables(monkeypatch):
    """A one-item list that counts the `_addable_table` calls from now on."""
    calls = [0]
    real = skew._addable_table

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(skew, "_addable_table", counted)
    monkeypatch.setattr(procedures, "_addable_table", counted)
    return calls


def test_closure_builds_two_tables_per_member(monkeypatch):
    # the plain closure builds the d-table and the u-table of each member
    # and no table per first box
    calls = _count_tables(monkeypatch)
    members = generate_upsilon(9, barred=False)
    assert len(members) == 296
    assert calls[0] <= 2 * len(members), calls


def test_barred_closure_filters_only_new_diagrams(monkeypatch):
    # the barred closure adds one filter table per outcome that is not yet
    # a member, not one per outcome: at most three tables per member
    calls = _count_tables(monkeypatch)
    members = generate_upsilon(9, barred=True)
    assert len(members) == 296
    assert calls[0] <= 3 * len(members), calls


def test_closure_reads_the_barred_filter(monkeypatch):
    # the filter runs after the lookup, but its verdict must still decide:
    # with it inverted once the reference is built, the barred closure
    # differs from it (every extension of the empty diagram is refused)
    want = _reference_closure(8, True)
    real = procedures._barred_keeps
    monkeypatch.setattr(procedures, "_barred_keeps", lambda occ, bar: not real(occ, bar))
    got = generate_upsilon(8, barred=True)
    assert got != want
    assert got == {EMPTY}


@pytest.mark.parametrize("n, connected, total", [(6, 9, 33), (8, 27, 172), (10, 86, 892)])
def test_closure_joins_its_connected_members(n, connected, total):
    # a diagram is a member exactly when its components are: the closure's
    # (size, span) histogram is the gap-rule join of its connected members
    for barred in (False, True):
        members = generate_upsilon(n, barred)
        pieces = Counter((k.size, k.span()) for k in members
                         if not k.is_empty and len(components(k)) == 1)
        assert sum(pieces.values()) == connected
        assert Counter((k.size, k.span()) for k in members) == join_components(pieces, n, n + 1)
        assert len(members) == total


def test_generate_six_connected_members():
    for barred in (False, True):
        members = generate_upsilon(6, barred=barred)
        connected = {
            k for k in members if not k.is_empty and len(components(k)) == 1
        }
        assert connected == NINE


def test_generate_flavors_agree():
    for n in (4, 6, 8):
        assert generate_upsilon(n, False) == generate_upsilon(n, True)


def test_members_pass_gamma():
    for k in generate_upsilon(8, barred=False):
        assert is_gamma(k)


def test_equivalence_small():
    rep = equivalence_report(0)
    assert rep.diagrams_checked == 1 and rep.member_count == 1
    rep = equivalence_report(6)
    assert rep.ok
    assert rep.connected_nonzero_members == 9
    assert rep.member_count == 33


def test_equivalence_rejects_workers():
    with pytest.raises(ValueError, match="workers"):
        equivalence_report(2, workers=2)


def test_corrupted_membership_is_caught(monkeypatch):
    # with the diagonal condition dropped, the harness must flag the
    # smallest diagram whose verdict depends on it: the four-box hook of
    # (3,1), which passes the width test but hangs above the diagonal
    from peribrauer import procedures as procedures_mod, skew as skew_mod

    # the fault goes into the membership test the harness calls: a
    # width-only test of the covering's hooks
    monkeypatch.setattr(procedures_mod, "is_gamma",
                        lambda k: all(skew_mod.width_condition(h) for h in skew_mod.covering(k)))
    rep = equivalence_report(4)
    assert not rep.ok
    smallest = min((k for k, *_ in rep.disagreements), key=lambda k: k.size)
    assert smallest == skew_mod.skew_from_pair((3, 1), ())
    assert smallest.size == 4


@pytest.mark.parametrize("side, change, expected", [
    # the barred closure loses the domino, a member of both
    (True, lambda ups: ups - {DOMINO}, (DOMINO, True, True, False)),
    # the plain closure gains the single box, a member of neither
    (False, lambda ups: ups | {SkewDiagram(((0, 1),))}, (SkewDiagram(((0, 1),)), False, True, False)),
])
def test_corrupted_closure_is_caught(monkeypatch, side, change, expected):
    # a fault in one closure reaches the report as exactly one disagreement
    # (diagram, in_gamma, in_ups, in_bar), its verdicts bools in that
    # order, and leaves every tally as it was
    clean = vars(equivalence_report(4))
    generate = procedures.generate_upsilon

    def faulty(max_size, barred, span_cap=None):
        ups = generate(max_size, barred, span_cap)
        return change(ups) if barred == side else ups

    monkeypatch.setattr(procedures, "generate_upsilon", faulty)
    rep = equivalence_report(4)
    assert vars(rep) == {**clean, "disagreements": [expected]}
    assert [type(v) for v in rep.disagreements[0][1:]] == [bool] * 3


def test_every_member_has_barred_preimage():
    # each nonzero member arises from a member two boxes smaller or of the
    # same size under a barred operator
    members = generate_upsilon(6, barred=True)
    by_size = {}
    for k in members:
        by_size.setdefault(k.size, set()).add(k)
    for k in members:
        if k.is_empty:
            continue
        found = False
        for source in by_size.get(k.size, set()) | by_size.get(k.size - 2, set()):
            if source == k:
                continue
            if source.is_empty:
                qs = [0]
            else:
                lo, hi = source.content_range()
                qs = range(hi - 8, lo + 9)
            for q in qs:
                if k in op_Pbar_all(source, q) or k in op_Ebar_all(source, q):
                    found = True
                    break
            if found:
                break
        assert found, k.rows
