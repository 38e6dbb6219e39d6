"""Skew Young diagrams up to translation, hooks, and hook coverings.

A skew diagram is stored in a canonical frame: the first occupied row is
row 1 and the leftmost occupied column is column 1.  Row r occupies the
half-open column interval (l, r], i.e. columns l+1..r; interior rows may
be empty (l == r), which happens for diagrams whose connected components
are separated vertically.  Two diagrams are equal exactly when they agree
as translation classes.

The membership test `is_gamma` peels the covering by rim hooks (the
rightmost box of each content off every connected component, recursively)
and checks each hook for two conditions: width = height + 1, and no box
strictly above the diagonal through the box of minimal content.  It reads
each hook off the row intervals and stops at the first failure.

`occ_violation` validates row intervals from outside (`parse_skew`,
`from_boxes`, criterion 6).  The addable/removable primitives behind the operators
require skew row intervals instead, as every `SkewDiagram.occ()` and each
of their own results is, and decide a box from its neighbour rows alone.
`_addable_positions` also places the first box of the empty diagram, at
(1, 1 + content): all its placements are translates of one another.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator, Optional, Sequence

from .partitions import INPUT_LIMIT, Partition, contains, format_partition

# Working form used by the algorithms: {row: (l, r)} with l < r, mapping
# each occupied row (any integer) to its column interval (l, r] = l+1..r.
Occ = dict


def occ_violation(occ: Occ) -> Optional[tuple[str, int, int]]:
    """Why the row intervals fail to form a skew shape, as a reason and the
    pair of rows it concerns, or None.  The reason is a constant:
    `parse_skew` formats it into its message, while `_occ_from_boxes` and
    criterion 6 (`verify.vertical_dominoes`) only test the result."""
    items = sorted(occ.items())
    for (a, (la, ra)), (b, (lb, rb)) in pairwise(items):
        if b == a + 1:
            if la < lb:
                return "left endpoints increase", a, b
            if ra < rb:
                return "right endpoints increase", a, b
        elif la < rb:  # empty rows in between force left-above >= right-below
            return "columns overlap across empty rows", a, b
    return None


def _occ_from_boxes(boxes: Iterable[tuple[int, int]]) -> Occ:
    rows: dict[int, list[int]] = {}
    for i, j in boxes:
        rows.setdefault(i, []).append(j)
    occ = {}
    for i, cols in rows.items():
        lo, hi = min(cols), max(cols)
        if hi - lo + 1 != len(set(cols)):
            raise ValueError(f"row {i} is not contiguous: {sorted(cols)}")
        occ[i] = (lo - 1, hi)
    if occ_violation(occ):
        raise ValueError("box set is not a skew diagram")
    return occ


def _occ_add(occ: Occ, i: int, j: int) -> Occ:
    """occ with box (i, j) added; the box is one `_addable_positions`
    returned for occ."""
    l, r = occ.get(i, (j, j))  # a new row starts as the empty (j, j)
    new = dict(occ)
    new[i] = (j - 1, r) if j == l else (l, j)
    return new


def _occ_remove(occ: Occ, i: int, j: int) -> Occ:
    """occ with box (i, j) removed; the box is one `_removable_positions`
    returned for occ."""
    l, r = occ[i]
    new = dict(occ)
    if l + 1 == r:
        del new[i]
    else:
        new[i] = (j, r) if j == l + 1 else (l, j - 1)
    return new


@dataclass(frozen=True, slots=True)
class SkewDiagram:
    """Canonical translation class of a skew Young diagram.

    rows[k] is the interval of row k+1; the first and last entries are
    nonempty, interior empty rows are normalised to (x, x) with x the
    right endpoint of the nearest occupied row below.
    """

    rows: tuple[tuple[int, int], ...]

    @staticmethod
    def from_occ(occ: Occ) -> "SkewDiagram":
        occupied = {i: itv for i, itv in occ.items() if itv[0] < itv[1]}
        if not occupied:
            return EMPTY
        lo, hi = min(occupied), max(occupied)
        shift = min(l for l, _ in occupied.values())
        out = [None] * (hi - lo + 1)
        fill = None
        for i in range(hi, lo - 1, -1):
            if i in occupied:
                l, r = occupied[i]
                fill = r - shift
                out[i - lo] = (l - shift, fill)
            else:
                out[i - lo] = (fill, fill)
        return SkewDiagram(tuple(out))

    @staticmethod
    def from_boxes(boxes: Iterable[tuple[int, int]]) -> "SkewDiagram":
        return SkewDiagram.from_occ(_occ_from_boxes(boxes))

    def occ(self) -> Occ:
        return {i + 1: itv for i, itv in enumerate(self.rows) if itv[0] < itv[1]}

    def boxes(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, (l, r) in enumerate(self.rows, 1)
                         for j in range(l + 1, r + 1))

    @property
    def size(self) -> int:
        return sum(r - l for l, r in self.rows if l < r)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def content_range(self) -> tuple[int, int]:
        """(min, max) content over boxes, with content(i, j) = j - i.

        Relies on the canonical rows: in a skew shape r - i and l - i fall
        strictly from row to row, so the minimum sits in the last row and
        the maximum in the first, and both of those rows are occupied."""
        rows = self.rows
        if not rows:
            raise ValueError("empty diagram has no contents")
        return rows[-1][0] + 1 - len(rows), rows[0][1] - 1

    def span(self) -> int:
        if self.is_empty:
            return 0
        lo, hi = self.content_range()
        return hi - lo

    def __str__(self) -> str:
        return format_skew(self)


EMPTY = SkewDiagram(())


def skew_from_pair(outer: Partition, inner: Partition) -> SkewDiagram:
    """The canonical skew diagram of outer minus inner."""
    if not contains(inner, outer):
        raise ValueError(
            f"{format_partition(inner)} is not contained in {format_partition(outer)}"
        )
    inner_padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    occ = {
        i + 1: (inner_padded[i], outer[i])
        for i in range(len(outer))
        if inner_padded[i] < outer[i]
    }
    return SkewDiagram.from_occ(occ)


def _pieces(rows: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Indices of the nonempty rows (l, r] of a skew shape, grouped into
    edge-connected pieces: rows i and i + 1 touch exactly when
    l_i < r_{i+1}."""
    pieces: list[list[int]] = []
    for i, (l, r) in enumerate(rows):
        if l < r:
            if pieces and pieces[-1][-1] == i - 1 and rows[i - 1][0] < r:
                pieces[-1].append(i)
            else:
                pieces.append([i])
    return pieces


def components(k: SkewDiagram) -> list[tuple[SkewDiagram, tuple[int, int]]]:
    """Maximal edge-connected components with their placement offsets.

    Boxes are adjacent when they share a side.  Each component is returned
    canonicalised, together with the offset (dr, dc) such that a canonical
    box (i, j) sits at (i + dr, j + dc) in the frame of k, in ascending
    offset order.
    """
    out = []
    for piece in _pieces(k.rows):
        occ = {i: k.rows[i] for i in piece}
        out.append((SkewDiagram.from_occ(occ), (piece[0], min(l for l, _ in occ.values()))))
    return out


# ---------------------------------------------------------------------------
# Addable / removable boxes


def _side_blocked(occ: Occ, i: int, j: int, down: bool) -> bool:
    """Whether occ has a box right of or below (i, j) (down=True), or left
    of or above it, where (i, j) is a box of occ or one whose addition
    keeps it skew.  A skew set is convex in the product order, so a box in
    column j below row i means one in row i + 1, and one above means one
    in row i - 1: row i and that neighbour row decide.  A missing row
    reads as the empty interval (j, j)."""
    l, r = occ.get(i, (j, j))
    l2, r2 = occ.get(i + 1 if down else i - 1, (j, j))
    return (r > j if down else l + 1 < j) or l2 < j <= r2


def _pair_fits(a: int, itv_a: tuple[int, int], b: int, itv_b: tuple[int, int]) -> bool:
    """`occ_violation`'s rule for occupied rows a < b with no occupied row
    between them: adjacent rows have both endpoints weakly decreasing, and
    across empty rows the left endpoint above is at least the right
    endpoint below.  It is written out again here so that `occ_violation`
    stays an independent reference for the primitives."""
    if b == a + 1:
        return itv_a[0] >= itv_b[0] and itv_a[1] >= itv_b[1]
    return itv_a[0] >= itv_b[1]


def _fits_between(occ: Occ, keys: list[int], i: int, itv: tuple[int, int]) -> bool:
    """Whether row i with interval itv fits (`_pair_fits`) with the nearest
    occupied rows above and below it, other than i itself; `keys` is
    sorted(occ)."""
    k = bisect_left(keys, i)
    if k and not _pair_fits(keys[k - 1], occ[keys[k - 1]], i, itv):
        return False
    if k < len(keys) and keys[k] == i:
        k += 1
    return k == len(keys) or _pair_fits(i, itv, keys[k], occ[keys[k]])


def _addable_positions(occ: Occ, content: int, down: bool) -> list[tuple[int, int]]:
    """Addable boxes of the given content (content = j - i) of the skew
    occ, restricted to d-addable (down=True: nothing right of or below) or
    u-addable ones.

    A box separated from the diagram by g empty rows differs in content
    from the nearest extreme content by at least g + 2, which bounds the
    rows that can carry a candidate.  The extreme contents are read off
    the top and bottom rows: in a skew shape r - i and l - i fall strictly
    from row to row.

    Skew means every pair of consecutive occupied rows fits (`_pair_fits`),
    and a box in row i changes only the pairs that involve row i.  So
    testing its new interval against the nearest occupied rows above and
    below decides whether the result is skew, and `_side_blocked` then
    reads the side condition off one neighbour row.  Every box of the
    empty diagram is both d- and u-addable, and its one placement is
    (1, 1 + content).
    """
    if not occ:
        return [(1, 1 + content)]
    keys = sorted(occ)
    lo_row, hi_row = keys[0], keys[-1]
    maxcon = occ[lo_row][1] - lo_row
    mincon = occ[hi_row][0] + 1 - hi_row
    above = 1 + max(0, content - maxcon - 2)
    below = 1 + max(0, mincon - content - 2)
    out = []
    for i in range(lo_row - above, hi_row + below + 1):
        j = i + content
        itv = occ.get(i)
        if itv is None:
            new = (j - 1, j)
        elif j == itv[0]:
            new = (j - 1, itv[1])
        elif j == itv[1] + 1:
            new = (itv[0], j)
        else:
            continue  # occupied, or would break row contiguity
        if _fits_between(occ, keys, i, new) and not _side_blocked(occ, i, j, down):
            out.append((i, j))
    return out


def _removable_positions(occ: Occ, content: int, down: bool) -> list[tuple[int, int]]:
    """Removable boxes of the given content of the skew occ, restricted to
    d-removable (down=True) or u-removable ones.  As in
    `_addable_positions`, the neighbouring occupied rows decide whether
    the result is skew; when the box's row empties, the rows above and
    below it become consecutive and are tested against each other."""
    keys = sorted(occ)
    out = []
    for i, (l, r) in occ.items():
        j = i + content
        if j == l + 1:
            new = (j, r)
        elif j == r:
            new = (l, j - 1)
        else:
            continue
        if new[0] < new[1]:
            fits = _fits_between(occ, keys, i, new)
        else:
            k = bisect_left(keys, i)
            fits = not 0 < k < len(keys) - 1 or _pair_fits(
                keys[k - 1], occ[keys[k - 1]], keys[k + 1], occ[keys[k + 1]])
        if fits and not _side_blocked(occ, i, j, down):
            out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# Hooks and coverings


@dataclass(frozen=True, slots=True)
class Hook:
    """A ribbon fixed in space (absolute box coordinates): ordered by
    content, each box lies right of or above the one before, so it is a
    connected skew diagram with pairwise distinct contents."""

    boxes: frozenset[tuple[int, int]]

    def __post_init__(self):
        walk = sorted(self.boxes, key=lambda b: b[1] - b[0])
        if not walk or any(b not in ((i, j + 1), (i - 1, j)) for (i, j), b in pairwise(walk)):
            raise ValueError(f"not a ribbon: {sorted(self.boxes)}")

    @property
    def ht(self) -> int:
        return len({i for i, _ in self.boxes})

    @property
    def wd(self) -> int:
        return len({j for _, j in self.boxes})

    @property
    def min_box(self) -> tuple[int, int]:
        return min(self.boxes, key=lambda b: b[1] - b[0])


Covering = tuple


def _peel(rows: Sequence[tuple[int, int]]) -> Iterator[tuple[list, list[list[int]], list[int]]]:
    """The passes of the covering: the rows, their pieces and the cuts; a
    piece's rim hook is columns cuts[i] + 1..r_i of each of its rows i."""
    rows = list(rows)
    while pieces := _pieces(rows):
        # the rightmost box of a content has no box below and to its right;
        # r never increases down the rows, so row i's rim starts at column
        # max(l_i + 1, r_{i+1}), and the last row is all rim
        cuts = [below - 1 if below > l else l for (l, _), (_, below) in pairwise(rows)]
        cuts.append(rows[-1][0])
        yield rows, pieces, cuts
        rows = [(l, cut) for (l, _), cut in zip(rows, cuts)]


def covering(k: SkewDiagram) -> Covering:
    """The covering of k: per connected component, repeatedly strip the
    outer rim hook made of the rightmost box of each content.

    Hooks are returned with absolute coordinates in k's canonical frame,
    ordered by their box lists, each sorted by (row, column).
    """
    hooks = [Hook(frozenset((i + 1, j) for i in piece for j in range(cuts[i] + 1, rows[i][1] + 1)))
             for rows, pieces, cuts in _peel(k.rows) for piece in pieces]
    hooks.sort(key=lambda h: sorted(h.boxes))
    return tuple(hooks)


def hooks_disjoint(a: frozenset, b: frozenset) -> bool:
    """No box of one shares a side with (or equals) a box of the other."""
    for i, j in a:
        if (i, j) in b:
            return False
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in b:
                return False
    return True


def hook_nested_in(a: frozenset, b: frozenset) -> bool:
    """Each lower and right side of a box of `a` is shared with another box
    of `a` or of `b`."""
    u = a | b
    return all((i + 1, j) in u and (i, j + 1) in u for i, j in a)


def disjoint_or_nested(a: frozenset, b: frozenset) -> bool:
    return hooks_disjoint(a, b) or hook_nested_in(a, b) or hook_nested_in(b, a)


def width_condition(h: Hook) -> bool:
    """Width equals height plus one."""
    return h.wd == h.ht + 1


def diagonal_condition(h: Hook) -> bool:
    """No box lies strictly above the diagonal through the minimal box:
    the minimal box attains the minimal anticontent of the hook."""
    a = sum(h.min_box)
    return all(i + j >= a for i, j in h.boxes)


def is_gamma0(h: Hook) -> bool:
    """Both hook conditions; the diagonal is tested only if the width
    condition holds."""
    return width_condition(h) and diagonal_condition(h)


def is_gamma(k: SkewDiagram) -> bool:
    """True iff every hook of the covering of k passes `is_gamma0`; the
    empty diagram is a member.  The peel's hooks are read off their rows
    (height len(piece), width r_top - cut_bottom, the minimal box first in
    the bottom row), and the first failing one ends it."""
    for rows, pieces, cuts in _peel(k.rows):
        for piece in pieces:
            a = piece[-1] + cuts[piece[-1]]
            if rows[piece[0]][1] - cuts[piece[-1]] != len(piece) + 1 or any(
                    i + cuts[i] < a for i in piece):
                return False
    return True


def conjugate_skew(k: SkewDiagram) -> SkewDiagram:
    """Transpose of the box set, re-canonicalised."""
    return SkewDiagram.from_boxes((j, i) for i, j in k.boxes())


# ---------------------------------------------------------------------------
# Exhaustive decomposition search (used to certify covering uniqueness)


def _hooks_through(anchor: tuple[int, int], avail: frozenset) -> list[frozenset]:
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

    out = []
    for down in tails(anchor, -1):
        for up in tails(anchor, +1):
            out.append(frozenset(down) | frozenset(up))
    return out


def hook_decompositions(k: SkewDiagram) -> list[frozenset]:
    """Up to two decompositions of k into hooks that are pairwise disjoint
    or nested, enough to tell whether it has exactly one.  Each
    decomposition is a frozenset of hook box sets."""
    found: list[frozenset] = []

    def rec(remaining: frozenset, chosen: tuple):
        if len(found) >= 2:
            return
        if not remaining:
            found.append(frozenset(chosen))
            return
        anchor = min(remaining)
        for hook in _hooks_through(anchor, remaining):
            if all(disjoint_or_nested(hook, c) for c in chosen):
                rec(remaining - hook, chosen + (hook,))
                if len(found) >= 2:
                    return

    rec(k.boxes(), ())
    return found


# ---------------------------------------------------------------------------
# Enumeration of canonical diagrams


def enumerate_skew_diagrams(max_size: int, span_cap: Optional[int] = None
                            ) -> Iterator[SkewDiagram]:
    """All canonical skew diagrams with at most `max_size` boxes and content
    span at most `span_cap` (default max_size + 1).

    The span cap is what makes the family finite: connected components may
    sit arbitrarily far apart in general, and every extra row or column of
    separation costs content span.
    """
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    if span_cap is None:
        span_cap = max_size + 1
    if span_cap < 0:
        raise ValueError(f"span_cap must be >= 0, got {span_cap}")
    yield EMPTY

    def rec(rows: list, row_idx: int, used: int, maxcon: int):
        l_prev, r_prev = rows[-1]
        if l_prev == 0:
            # rows is canonical: row 1 first, last row at column 0, empty
            # rows (r, r) with r from the occupied row below
            yield SkewDiagram(tuple(rows))
        budget = max_size - used
        # every later row t has l >= maxcon - span_cap + t - 1 >= 1 once
        # maxcon + row_idx > span_cap, so no descendant reaches column 0
        if budget == 0 or maxcon + row_idx > span_cap:
            return
        for g in range(0, span_cap + 2):  # g empty rows before the next one
            t = row_idx + g + 1
            r_hi = r_prev if g == 0 else l_prev
            if r_hi < 1:
                break
            feasible = False
            for r2 in range(r_hi, 0, -1):
                # row t occupies (l2, r2]; its lowest content is l2 + 1 - t
                l_lo = max(0, r2 - budget, maxcon - span_cap + t - 1)
                l_hi = min(l_prev, r2 - 1) if g == 0 else r2 - 1
                for l2 in range(l_lo, l_hi + 1):
                    feasible = True
                    rows2 = rows + [(r2, r2)] * g + [(l2, r2)]
                    yield from rec(rows2, t, used + (r2 - l2), maxcon)
            if not feasible and g > 0:
                break

    # first occupied row: interval (l1, r1], contents [l1, r1 - 1]
    for l1 in range(0, span_cap + 1):
        for r1 in range(l1 + 1, l1 + max_size + 1):
            if (r1 - 1) - l1 > span_cap:
                break
            yield from rec([(l1, r1)], 1, r1 - l1, r1 - 1)


# ---------------------------------------------------------------------------
# Text forms


def format_skew(k: SkewDiagram) -> str:
    """Compact row-interval syntax `1:l..r;2:l..r;...`; `-` for the empty
    diagram."""
    if k.is_empty:
        return "-"
    return ";".join(f"{i + 1}:{l}..{r}" for i, (l, r) in enumerate(k.rows))


def check_input_limit(occ: Occ) -> None:
    """Raise ValueError if the row intervals hold more than INPUT_LIMIT
    boxes or span more than INPUT_LIMIT contents."""
    size = sum(r - l for l, r in occ.values())
    span = (max((r - i for i, (_, r) in occ.items()), default=0)
            - min((l + 1 - i for i, (l, _) in occ.items()), default=0))
    if size > INPUT_LIMIT or span > INPUT_LIMIT:
        raise ValueError(
            f"diagram has {size} boxes and content span {span}; the input "
            f"limit is {INPUT_LIMIT} boxes and content span {INPUT_LIMIT}"
        )


def parse_skew(s: str) -> SkewDiagram:
    """Parse the row-interval syntax of `format_skew`, rejecting reversed
    intervals, repeated rows, shapes that are not skew and diagrams over
    INPUT_LIMIT."""
    t = s.strip()
    if t == "-":
        return EMPTY
    occ = {}
    for pos, piece in enumerate(t.split(";"), start=1):
        try:
            head, itv = piece.split(":")
            l, r = itv.split("..")
            i, l, r = int(head), int(l), int(r)
        except ValueError:
            raise ValueError(
                f"bad row-interval at piece {pos} ({piece!r}) of {s!r}"
            ) from None
        if l > r or i in occ:
            problem = "reversed interval" if l > r else f"row {i} given twice"
            raise ValueError(f"{problem} at piece {pos} ({piece!r}) of {s!r}")
        occ[i] = (l, r)
    occ = {i: v for i, v in occ.items() if v[0] < v[1]}
    problem = occ_violation(occ)
    if problem:
        reason, a, b = problem
        raise ValueError(f"not a skew diagram ({reason} from row {a} to row {b}): {s!r}")
    check_input_limit(occ)
    return SkewDiagram.from_occ(occ)


def render(k: SkewDiagram, contents: bool = False) -> str:
    """ASCII picture: one line per row, `#` per box (or the content mod 10
    with contents=True), `.` elsewhere in the bounding box."""
    if k.is_empty:
        return "(empty)"
    width = max(r for _, r in k.rows)
    lines = []
    for i, (l, r) in enumerate(k.rows, 1):
        chars = []
        for j in range(1, width + 1):
            if l < j <= r:
                chars.append(str((j - i) % 10) if contents else "#")
            else:
                chars.append(".")
        lines.append("".join(chars))
    return "\n".join(lines)
