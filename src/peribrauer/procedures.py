"""Push-down and extend operators on skew diagrams, and the closures they
generate.

Each operator takes a canonical diagram k and a content q relative to its
canonical frame, where box (1, 1) has content 0, and returns the set of
all its outcomes; the empty set encodes failure.  An extension of the
empty diagram has one outcome for every q: `skew._addable_positions`
places its first box at (1, 1 + content), since all placements are
translates of one another.  A far extension can have several outcomes
(detached placements), and a push of the empty diagram has none.

The operator P_q moves the chain of q-boxes one step down its diagonal:
it needs a d-addable q-box whose addition leaves a u-removable q-box
elsewhere, adds the former and removes the latter.  E_q extends the
diagram by a u-addable (q-1)-box on the upper rim followed by a
d-addable q-box on the lower rim.  The barred variants additionally
require the result to admit no d-addable (q+1)-box (for P) or (q-1)-box
(for E).

Closing {empty} under the plain operators gives one family, under the
barred operators another; `equivalence_report` checks both against the
covering-based membership test over an exhaustive universe of diagrams,
with one lookup per diagram in a dict over the two.  The closure builds
one table of first boxes per diagram and operator
(`skew._addable_table`: the d-addable boxes of every content for P, the
u-addable ones for E) and visits only the contents that have one.  E's
second box needs no third table: after a first box that extends an
occupied row, the d-addable q-boxes are those of P's table, and a first
box that opens an empty row has at most one second box, the next box of
that row (`_op_e_raw`).  So the closure builds two tables per diagram and
copies the row intervals only for a first box with a second box.
Termination of the closure is size-driven: E grows a diagram by two boxes
and P permutes contents, so within a size bound and a content-span bound
the reachable set is finite.
"""

from __future__ import annotations

from typing import Optional

from .skew import (
    EMPTY,
    Occ,
    SkewDiagram,
    _addable_positions,
    _addable_table,
    _occ_add,
    _occ_remove,
    _pieces,
    _removable_positions,
    check_universe,
    enumerate_skew_diagrams,
    is_gamma,
)


def _op_p_raw(occ: Occ, c: int, firsts: list[tuple[int, int]]) -> list[Occ]:
    """All outcomes of the push-down at relative content c (at most one),
    given `firsts`, the d-addable c-boxes of occ.  Every box added or
    removed is one the primitives accepted, so each outcome is skew and
    feeds the next primitive without a second check."""
    out = []
    for b1 in firsts:
        occ2 = _occ_add(occ, *b1)
        for b2 in _removable_positions(occ2, c, down=False):
            if b2 != b1:  # pushing must move a box, not add-and-remove one
                out.append(_occ_remove(occ2, *b2))
    return out


def _op_e_raw(occ: Occ, c: int, firsts: list[tuple[int, int]],
              seconds: list[tuple[int, int]]) -> list[Occ]:
    """All outcomes of the extension at relative content c, given `firsts`,
    the u-addable (c-1)-boxes of occ, and `seconds`, its d-addable c-boxes;
    skew as in `_op_p_raw`.

    A d-candidate depends only on its own row and the nearest occupied row
    above it (`skew._addable_table`), and the contents of a skew rim fall
    strictly from row to row, so the second boxes after a first box (i, j)
    need no table of their own:

    - if it extends occupied row i at its left end l_i = j, they are
      `seconds`: the new left end bounds only the rows below row i, and
      only at contents c - 1 and less;
    - if it opens empty row i, the one second box is (i, j + 1): the
      d-addable c-boxes of occ lie between the occupied rows a above and b
      below row i, and the new row (j - 1, j] leaves only its own right
      end there.  That box is missing when a is two or more rows up and
      l_a = j, since it would sit under row a's first box across an empty
      row.

    occ is copied only for a first box that has a second box.  Its top
    row is row 1, as in `SkewDiagram.occ`, so the row a above an opened
    row i > 1 is the first occupied one up from row i - 1.
    """
    out = []
    for i, j in firsts:
        if i in occ:
            if seconds:
                occ2 = _occ_add(occ, i, j)
                out += [_occ_add(occ2, *b) for b in seconds]
            continue
        a = i - 1  # the nearest occupied row above; none above row 1, the top
        while a > 0 and a not in occ:
            a -= 1
        if a == i - 1 or occ[a][0] != j:
            occ2 = dict(occ)
            occ2[i] = (j - 1, j + 1)
            out.append(occ2)
    return out


def _barred_keeps(occ: Occ, bar: int) -> bool:
    """The barred filter: occ admits no d-addable box of content bar."""
    return not _addable_positions(occ, bar, down=True)


def _outcomes(outs: list[Occ], bar: Optional[int]) -> set[SkewDiagram]:
    """The diagrams of the outcomes; given a content `bar`, only those the
    barred filter keeps."""
    return {SkewDiagram.from_occ(o) for o in outs if bar is None or _barred_keeps(o, bar)}


def op_P_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """Push the q-boxes one step down their diagonal."""
    occ = k.occ()
    return _outcomes(_op_p_raw(occ, q, _addable_positions(occ, q, down=True)), None)


def op_E_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """Extend by a (q-1)-box on the upper rim and a q-box on the lower
    rim."""
    occ = k.occ()
    return _outcomes(_op_e_raw(occ, q, _addable_positions(occ, q - 1, down=False),
                               _addable_positions(occ, q, down=True)), None)


def op_Pbar_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """op_P_all, keeping the outcomes that admit no d-addable (q+1)-box."""
    occ = k.occ()
    return _outcomes(_op_p_raw(occ, q, _addable_positions(occ, q, down=True)), q + 1)


def op_Ebar_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """op_E_all, keeping the outcomes that admit no d-addable (q-1)-box."""
    occ = k.occ()
    return _outcomes(_op_e_raw(occ, q, _addable_positions(occ, q - 1, down=False),
                               _addable_positions(occ, q, down=True)), q - 1)


# ---------------------------------------------------------------------------
# Closure generation


def generate_upsilon(max_size: int, barred: bool,
                     span_cap: Optional[int] = None) -> frozenset[SkewDiagram]:
    """Worklist closure of {empty} under the (barred) operators, keeping
    diagrams with at most `max_size` boxes and content span at most
    `span_cap` (default max_size + 1).

    The q-range tried per step is exactly what can produce a result inside
    those bounds: pushes only act on contents already present, and an
    extension whose new boxes leave the span bound is discarded anyway.
    A push never changes the multiset of contents and the reverse of an
    extension removes boxes, so restricting the closure to the bounded
    universe loses no members of it.

    Each diagram's first boxes come from one table per operator
    (`skew._addable_table`): the d-addable q-boxes of P over the content
    range, and the u-addable (q-1)-boxes of E over the extension range.
    Only the contents with a first box are visited, and for P only those
    of a left end l_i + 1 - i: the u-removable q-box a push takes away is
    a row's left end, which its d-addable box never moves.  E reads its
    second boxes off P's table: a first box at a row's left end has
    content l_i - i, so the q-boxes after it lie in the content range, and
    a first box in an empty row has at most the one next to it
    (`_op_e_raw`).

    Each outcome is canonicalised and looked up first: only a diagram not
    yet in the closure meets the span bound and, if barred, the filter
    (`_barred_keeps`).  An edge into a member adds nothing, and the bound
    and the filter test one edge in either order, so this is the closure
    that filters every outcome first.  {empty} is a member from the start.
    No outcome is tested for size: a push keeps the size, and extensions,
    two boxes each, are tried only when k.size + 2 <= max_size.
    """
    span_cap = check_universe(max_size, span_cap)
    seen = {EMPTY}
    frontier = [EMPTY]
    while frontier:
        k = frontier.pop()
        occ = k.occ()
        # the empty diagram has nothing to push, and its extensions are all
        # translates of the domino: one content is enough
        lo, hi = k.content_range() if occ else (1, 0)
        e_lo, e_hi = (hi - span_cap, lo + span_cap - 1) if occ else (-1, -1)
        lefts = {l + 1 - i for i, (l, _) in occ.items()}  # contents a push can move
        d_table = _addable_table(occ, lo, hi, down=True)
        # each operator's outcomes with the content of its barred filter
        steps = [(_op_p_raw(occ, c, firsts), c + 1) for c, firsts in d_table.items() if c in lefts]
        if k.size + 2 <= max_size:
            steps += [(_op_e_raw(occ, c + 1, firsts, d_table.get(c + 1, [])), c)
                      for c, firsts in _addable_table(occ, e_lo, e_hi, down=False).items()]
        for outs, bar in steps:
            for o in outs:
                res = SkewDiagram.from_occ(o)
                if res in seen or res.span() > span_cap or barred and not _barred_keeps(o, bar):
                    continue
                seen.add(res)
                frontier.append(res)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Three-way equivalence harness


class EquivalenceReport:
    def __init__(self, max_size: int, span_cap: int):
        self.max_size, self.span_cap = max_size, span_cap
        self.diagrams_checked = self.member_count = self.connected_nonzero_members = 0
        self.disagreements: list = []

    @property
    def ok(self) -> bool:
        return not self.disagreements


def equivalence_report(max_size: int, span_cap: Optional[int] = None,
                       workers: int = 1) -> EquivalenceReport:
    """Compare the covering-based membership test with membership in the
    plain and barred closures, over every canonical diagram with at most
    `max_size` boxes and span at most `span_cap`.

    Each diagram on which the three verdicts differ is reported.  The
    universe is streamed; memory holds the disagreements and one dict
    over the union of the closures, a member to 1 (plain) | 2 (barred).
    """
    # accepts only workers=1, the value the benchmark passes; there is no pool
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    span_cap = check_universe(max_size, span_cap)
    closures = dict.fromkeys(generate_upsilon(max_size, barred=False, span_cap=span_cap), 1)
    for k in generate_upsilon(max_size, barred=True, span_cap=span_cap):
        closures[k] = closures.get(k, 0) | 2
    get = closures.get
    checked = members = connected = 0
    disagreements = []
    for k in enumerate_skew_diagrams(max_size, span_cap):
        in_gamma = is_gamma(k)
        checked += 1
        bits = get(k, 0)
        if in_gamma:
            members += 1
            if k.rows and len(_pieces(k.rows)) == 1:
                connected += 1
        if bits != (3 if in_gamma else 0):
            disagreements.append((k, in_gamma, bool(bits & 1), bool(bits & 2)))
    report = EquivalenceReport(max_size=max_size, span_cap=span_cap)
    report.diagrams_checked, report.member_count = checked, members
    report.connected_nonzero_members, report.disagreements = connected, disagreements
    return report
