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
covering-based membership test over an exhaustive universe of diagrams.
Termination of the closure is size-driven: E grows a diagram by two boxes
and P permutes contents, so within a size bound and a content-span bound
the reachable set is finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .skew import (
    EMPTY,
    Occ,
    SkewDiagram,
    _addable_positions,
    _occ_add,
    _occ_remove,
    _removable_positions,
    components,
    is_gamma,
    enumerate_skew_diagrams,
)


def _op_p_raw(occ: Occ, c: int) -> list[Occ]:
    """All outcomes of the push-down at relative content c (at most one).
    Every box added or removed is one the primitives accepted, so each
    outcome is skew and feeds the next primitive without a second check."""
    out = []
    for b1 in _addable_positions(occ, c, down=True):
        occ2 = _occ_add(occ, *b1)
        for b2 in _removable_positions(occ2, c, down=False):
            if b2 != b1:  # pushing must move a box, not add-and-remove one
                out.append(_occ_remove(occ2, *b2))
    return out


def _op_e_raw(occ: Occ, c: int) -> list[Occ]:
    """All outcomes of the extension at relative content c, skew as in
    `_op_p_raw`."""
    mids = [_occ_add(occ, *b2) for b2 in _addable_positions(occ, c - 1, down=False)]
    return [
        _occ_add(occ2, *b1)
        for occ2 in mids
        for b1 in _addable_positions(occ2, c, down=True)
    ]


def op_P_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """Push the q-boxes one step down their diagonal."""
    return {SkewDiagram.from_occ(o) for o in _op_p_raw(k.occ(), q)}


def op_E_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """Extend by a (q-1)-box on the upper rim and a q-box on the lower
    rim."""
    return {SkewDiagram.from_occ(o) for o in _op_e_raw(k.occ(), q)}


def op_Pbar_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """op_P_all, keeping the outcomes that admit no d-addable (q+1)-box."""
    return {
        SkewDiagram.from_occ(o)
        for o in _op_p_raw(k.occ(), q)
        if not _addable_positions(o, q + 1, down=True)
    }


def op_Ebar_all(k: SkewDiagram, q: int) -> set[SkewDiagram]:
    """op_E_all, keeping the outcomes that admit no d-addable (q-1)-box."""
    return {
        SkewDiagram.from_occ(o)
        for o in _op_e_raw(k.occ(), q)
        if not _addable_positions(o, q - 1, down=True)
    }


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
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    if span_cap is None:
        span_cap = max_size + 1
    if span_cap < 0:
        raise ValueError(f"span_cap must be >= 0, got {span_cap}")
    p_all = op_Pbar_all if barred else op_P_all
    e_all = op_Ebar_all if barred else op_E_all

    seen = {EMPTY}
    frontier = [EMPTY]
    while frontier:
        k = frontier.pop()
        produced: set[SkewDiagram] = set()
        if k.is_empty:  # no content range; the size filter drops the domino
            produced |= e_all(k, 0)
        else:
            lo, hi = k.content_range()
            for q in range(lo, hi + 1):
                produced |= p_all(k, q)
            if k.size + 2 <= max_size:
                for q in range(hi - span_cap + 1, lo + span_cap + 1):
                    produced |= e_all(k, q)
        for res in produced:
            if res.is_empty or res in seen:
                continue
            if res.size > max_size or res.span() > span_cap:
                continue
            seen.add(res)
            frontier.append(res)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Three-way equivalence harness


@dataclass
class EquivalenceReport:
    max_size: int
    span_cap: int
    diagrams_checked: int = 0
    member_count: int = 0
    connected_nonzero_members: int = 0
    disagreements: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def equivalence_report(max_size: int, span_cap: Optional[int] = None,
                       workers: int = 1) -> EquivalenceReport:
    """Compare the covering-based membership test with membership in the
    plain and barred closures, over every canonical diagram with at most
    `max_size` boxes and span at most `span_cap`.

    Any diagram on which the three verdicts differ is reported; with a
    correct implementation there are none.  The universe is streamed, so
    memory holds the two closures and the disagreements only.
    """
    # accepts only workers=1, the value the benchmark passes; there is no pool
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    if span_cap is None:
        span_cap = max_size + 1
    upsilon = generate_upsilon(max_size, barred=False, span_cap=span_cap)
    upsilon_bar = generate_upsilon(max_size, barred=True, span_cap=span_cap)
    report = EquivalenceReport(max_size=max_size, span_cap=span_cap)

    for k in enumerate_skew_diagrams(max_size, span_cap):
        in_gamma = is_gamma(k)
        report.diagrams_checked += 1
        in_ups = k in upsilon
        in_bar = k in upsilon_bar
        if in_gamma:
            report.member_count += 1
            if not k.is_empty and len(components(k)) == 1:
                report.connected_nonzero_members += 1
        if not (in_gamma == in_ups == in_bar):
            report.disagreements.append((k, in_gamma, in_ups, in_bar))
    return report
