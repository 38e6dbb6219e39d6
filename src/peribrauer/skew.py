"""Skew Young diagrams up to translation, hooks, and hook coverings.

A skew diagram is stored in a canonical frame: the first occupied row is
row 1 and the leftmost occupied column is column 1.  Row r occupies the
half-open column interval (l, r], i.e. columns l+1..r; interior rows may
be empty (l == r), which happens for diagrams whose connected components
are separated vertically.  Two diagrams are equal exactly when they agree
as translation classes.  `SkewDiagram`'s constructor checks nothing, so
every `SkewDiagram` is built with `tuple.__new__`.

The covering peels rim hooks (the rightmost box of each content off every
connected component, recursively) in one sweep over the row intervals per
pass, and gives each hook as its top row and its row intervals, from which
height, width, the minimal box and both hook conditions are read without
a box set.  The membership test `is_gamma` peels by the same cut rule and
checks each hook for two conditions: width = height + 1, and no box
strictly above the diagonal through the box of minimal content.  It tests
a hook as soon as its bottom row is read, returns at the first failing
one, and builds the next pass's rows only once every hook has passed.  It
builds no hooks and does not call `covering`, so the two stay
independent.  The exhaustive decomposition search grows its hooks as row
intervals from the least remaining box, answers in the covering's order,
and calls neither `covering` nor `components`.

`enumerate_skew_diagrams` walks the universe depth first and visits no
node that is neither a diagram nor the parent of one.  It reads a node's
children from a table that lives for one call, keyed by (l, r, budget,
slack): the last row, the boxes left and the span room; the table holds
at most one entry per visited node.

`occ_violation` validates row intervals from outside (`parse_skew` through
`check_skew`, criterion 6).  `conjugate_skew` tests its three conditions
while it collects the occupied rows, and reaches `check_skew` only on a
fault, for the refusal's text.  The addable/removable primitives behind
the operators require skew row intervals instead, as every
`SkewDiagram.occ()` and each of their own results is, and decide a box
from its neighbour rows alone; the closed forms are in the docstrings
of `_removable_positions` (a side test, by convexity in the product order)
and `_addable_table` (the nearest occupied rows above and below, region
by region), as does `SkewDiagram.from_occ`.  `skew_from_pair` reads a
partition pair in one pass over its rows and validates the two
partitions only when that pass finds a fault.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import pairwise
from typing import Iterator, NamedTuple, Optional, Sequence

from .partitions import INPUT_LIMIT, Partition, check_partition, format_partition

# Working form used by the algorithms: {row: (l, r)} with l < r, mapping
# each occupied row (any integer) to its column interval (l, r] = l+1..r.
Occ = dict

_new = tuple.__new__  # builds only `SkewDiagram` (tests/test_source.py)


def occ_violation(occ: Occ) -> Optional[tuple[str, int, int]]:
    """Why the row intervals fail to form a skew shape, as a reason and the
    pair of rows it concerns, or None.  The reason is a constant:
    `check_skew` formats it into the refusal, while criterion 6
    (`verify.vertical_dominoes`) only tests the result."""
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


def check_skew(occ: Occ, given: str | SkewDiagram) -> None:
    """Raise ValueError if the row intervals are not a skew shape, naming
    the reason and rows from `occ_violation` and `given`, the input as
    text or as the `SkewDiagram` it was read from."""
    problem = occ_violation(occ)
    if problem:
        reason, a, b = problem
        raise ValueError(
            f"not a skew diagram ({reason} from row {a} to row {b}): {str(given)!r}"
        )


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


class SkewDiagram(NamedTuple):
    """Canonical translation class of a skew Young diagram.

    rows[k] is the interval of row k+1; the first and last entries are
    nonempty, interior empty rows are normalised to (x, x) with x the
    right endpoint of the nearest occupied row below.  A one-field tuple,
    so its hash is the hash of (rows,).
    """

    rows: tuple[tuple[int, int], ...]

    @staticmethod
    def from_occ(occ: Occ) -> "SkewDiagram":
        """The canonical diagram of skew row intervals, all occupied, in
        any frame and key order.  Left ends fall down a skew shape, so the
        columns shift by the bottom row's; one pass up writes each empty
        row as (fill, fill), fill the right end of the row below it."""
        if not occ:
            return EMPTY
        keys = sorted(occ, reverse=True)
        shift = occ[keys[0]][0]
        out = []
        below = keys[0] + 1
        for i in keys:
            if i + 1 < below:
                out += [(fill, fill)] * (below - i - 1)
            l, r = occ[i]
            fill = r - shift
            out.append((l - shift, fill))
            below = i
        out.reverse()
        return _new(SkewDiagram, (tuple(out),))

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


EMPTY = _new(SkewDiagram, ((),))


def skew_from_pair(outer: Partition, inner: Partition) -> SkewDiagram:
    """The canonical skew diagram of outer minus inner, read straight off
    the two tuples in one pass from the bottom row up: row i is
    (inner[i], outer[i]], or (0, outer[i]] below the rows of `inner`.  The
    columns shift by the left end of the last occupied row (left ends fall
    weakly down a partition, so it is the least), an empty row above it
    becomes (fill, fill) with fill the right end of the row below, and the
    fully covered rows at the bottom and top are dropped.

    A part of `inner` larger than outer[i] in its row, or an `inner`
    longer than `outer`, is the containment refusal, raised before any
    other.  A rising row end, a last part below 1 or a non-integer part
    sends both tuples to `check_partition`, which refuses: the pass keeps
    going after one, so a containment failure higher up still wins."""
    m = len(inner)
    if m <= len(outer):
        bad = outer and outer[-1] < 1 or inner and inner[-1] < 1
        out, top = [], 0  # top: the rows of `out` up to the highest occupied one
        l2 = r2 = 0  # the row below
        for i in range(len(outer) - 1, -1, -1):
            l, r = inner[i] if i < m else 0, outer[i]
            if l > r and i < m:  # a padding 0 over a part below 0 is only `bad`
                break
            if l < l2 or r < r2 or type(l) is not int or type(r) is not int:
                bad = True
            if l < r:
                if not out:
                    shift = l
                out.append((l - shift, r - shift))
                top = len(out)
            elif out:
                fill = out[-1][1]
                out.append((fill, fill))
            l2, r2 = l, r
        else:
            if bad:
                check_partition(outer)
                check_partition(inner)
            del out[top:]
            out.reverse()
            return _new(SkewDiagram, (tuple(out),))
    raise ValueError(f"{format_partition(inner)} is not contained in {format_partition(outer)}")


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
    offset order.  A piece is a run a..b of occupied rows with no empty row
    between them, so its canonical rows are k's rows a..b shifted by the
    left end of row b, the least, and its offset is (a, that left end).
    """
    out = []
    for piece in _pieces(k.rows):
        a, b = piece[0], piece[-1]
        shift = k.rows[b][0]  # left ends fall down a skew shape
        rows = tuple((l - shift, r - shift) for l, r in k.rows[a:b + 1])
        out.append((_new(SkewDiagram, (rows,)), (a, shift)))
    return out


# ---------------------------------------------------------------------------
# Addable / removable boxes


def _addable_table(occ: Occ, lo: int, hi: int, down: bool) -> dict[int, list[tuple[int, int]]]:
    """The addable boxes of the skew occ with contents lo..hi, d-addable
    (down=True: nothing right of or below) or u-addable ones, by content,
    each list in row order; contents without one are left out.

    A closed form in a, the nearest occupied row above row i, and b, the
    nearest below (either may be missing, leaving that end unbounded):

    - an occupied row (l, r] has one d-candidate, its right end r + 1,
      kept if r_a > r (a = i - 1) or l_a > r (a < i - 1); and one
      u-candidate, its left end l, kept if l_b < l (b = i + 1) or r_b < l
      (b > i + 1);
    - an empty row takes the d-columns r_b + 1..l_a + [a = i - 1] and the
      u-columns r_b + [b != i + 1]..l_a.

    It is read region by region from the top down, each occupied row b
    after the empty rows above it (up to a, or every row above the top),
    the rows below the bottom last, each empty region only as far as its
    columns reach contents lo..hi.

    Every box of the empty diagram is both d- and u-addable, and its one
    placement is (1, 1 + content).
    """
    if not occ:
        return {c: [(1, 1 + c)] for c in range(lo, hi + 1)}
    table: dict[int, list[tuple[int, int]]] = {}
    a = None  # the occupied row above, None above the top
    for b in sorted(occ):
        l_b, r_b = occ[b]
        # the empty rows g after a where some column j in r_b..l_a + 1
        # has a content j - g in lo..hi
        g = r_b - hi if a is None or r_b - hi > a else a + 1
        end = b if a is None or l_a + 2 - lo > b else l_a + 2 - lo
        while g < end:  # most regions are empty, and a range costs its object
            j_lo = r_b + 1 - (not down and g == b - 1)
            if g + lo > j_lo:
                j_lo = g + lo
            j_hi = g + hi
            if a is not None and l_a + (down and g == a + 1) < j_hi:
                j_hi = l_a + (down and g == a + 1)
            for j in range(j_lo, j_hi + 1):
                table.setdefault(j - g, []).append((g, j))
            g += 1
        # the u-candidate of a and the d-candidate of b, now both rows are known
        if not down and a is not None and (l_b if b == a + 1 else r_b) < l_a and lo <= l_a - a <= hi:
            table.setdefault(l_a - a, []).append((a, l_a))
        if down and (a is None or (r_a if b == a + 1 else l_a) > r_b) and lo <= r_b + 1 - b <= hi:
            table.setdefault(r_b + 1 - b, []).append((b, r_b + 1))
        a, l_a, r_a = b, l_b, r_b
    if not down and lo <= l_a - a <= hi:
        table.setdefault(l_a - a, []).append((a, l_a))
    for g in range(a + 1, l_a + 2 - lo):  # below the bottom, a column j <= l_a + 1
        j_hi = g + hi if g + hi <= l_a else l_a + (down and g == a + 1)
        for j in range(g + lo, j_hi + 1):
            table.setdefault(j - g, []).append((g, j))
    return table


def _addable_positions(occ: Occ, content: int, down: bool) -> list[tuple[int, int]]:
    """The one-content view of `_addable_table`."""
    return _addable_table(occ, content, content, down).get(content, [])


def _removable_positions(occ: Occ, content: int, down: bool) -> list[tuple[int, int]]:
    """Removable boxes of the given content of the skew occ, restricted to
    d-removable (down=True: nothing right of or below) or u-removable ones.
    A skew set is convex in the product order, so a box below (above) the
    box (i, j) in column j means one in row i + 1 (i - 1): the box must end
    its row on that side and miss that neighbour row.  It is then maximal
    (d) or minimal (u), and removing an extremal box from a convex set
    leaves a convex set, so the result is skew without a fit test."""
    out = []
    for i, (l, r) in occ.items():
        j = i + content
        if j == (r if down else l + 1):
            l2, r2 = occ.get(i + 1 if down else i - 1, (j, j))
            if not l2 < j <= r2:
                out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# Hooks and coverings


class Hook(namedtuple("Hook", "top rows")):
    """A ribbon fixed in space (absolute box coordinates): ordered by
    content, each box lies right of or above the one before, so it is a
    connected skew diagram with pairwise distinct contents.

    A hook is its top row and the column interval (cut, r] of each of its
    rows, top down, and equals, hashes and prints as that record.  Those
    are a ribbon exactly when every interval is nonempty and each lower
    row ends in the column where the row above starts,
    r_{i+1} == cut_i + 1; that is the one ribbon check, made on every
    construction.  The box set is built only when `boxes` is read.
    """

    __slots__ = ()

    def __new__(cls, top: int, rows: tuple[tuple[int, int], ...]):
        """Raise ValueError, naming the rows, if they are not a ribbon."""
        if rows:
            above = rows[0][1] - 1  # the top row has no row above to meet
            for cut, r in rows:
                if cut >= r or r != above + 1:
                    break
                above = cut
            else:
                return tuple.__new__(cls, (top, rows))
        raise ValueError(f"not a ribbon: {(top, rows)}")

    @property
    def boxes(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, (cut, r) in enumerate(self.rows, self.top)
                         for j in range(cut + 1, r + 1))

    @property
    def ht(self) -> int:
        return len(self.rows)

    @property
    def wd(self) -> int:
        """The columns from the bottom row's first to the top row's last."""
        return self.rows[0][1] - self.rows[-1][0]

    @property
    def min_box(self) -> tuple[int, int]:
        """The box of minimal content, the first of the bottom row."""
        return self.top + len(self.rows) - 1, self.rows[-1][0] + 1


Covering = tuple


def covering(k: SkewDiagram) -> Covering:
    """The covering of k: per connected component, repeatedly strip the
    outer rim hook made of the rightmost box of each content.

    Each pass is one sweep over the rows.  The rightmost box of a content
    has no box below and to its right, and r never increases down the
    rows, so row i's rim starts at column cut_i + 1 with
    cut_i = max(l_i, r_{i+1} - 1), and the last row is all rim; row i
    keeps (l_i, cut_i] for the next pass.  Rows i and i + 1 lie in one
    piece when both are nonempty and l_i < r_{i+1}; when a piece closes,
    its hook is its top row and its rows (cut_i, r_i], top down.

    A row keeps boxes exactly when l_i < cut_i, and an empty row never
    regains one, so the pass that leaves no box is the last: a single
    hook takes one pass.

    Hooks are returned with absolute coordinates in k's canonical frame,
    ordered by their first box in (row, column) order, the leftmost box of
    their top row, which is the order of the (top, rows) tuples.  The
    hooks are disjoint, so their first boxes differ, and this is the order
    of their box lists, each sorted by (row, column).
    """
    rows = k.rows
    last = len(rows) - 1
    hooks: list[Hook] = []
    while True:
        nxt = []
        kept = False  # some row keeps a box for the next pass
        piece: list[tuple[int, int]] = []  # the open piece's (cut, r], top down
        for i, (l, r) in enumerate(rows):
            l2, r2 = rows[i + 1] if i < last else (l, l)
            if r2 > l + 1:  # row i keeps (l, cut]
                cut = r2 - 1
                kept = True
            else:
                cut = l
            nxt.append((l, cut))
            if l < r:
                piece.append((cut, r))
                if not (l < r2 and l2 < r2):  # row i + 1 does not join
                    hooks.append(Hook(i + 2 - len(piece), tuple(piece)))
                    piece = []
        if not kept:
            hooks.sort()
            return tuple(hooks)
        rows = nxt


def width_condition(h: Hook) -> bool:
    """Width equals height plus one."""
    return h.wd == h.ht + 1


def diagonal_condition(h: Hook) -> bool:
    """No box lies strictly above the diagonal through the minimal box:
    the minimal box attains the minimal anticontent of the hook, and a
    row's least anticontent is that of its first box."""
    a = sum(h.min_box)
    return all(i + cut + 1 >= a for i, (cut, _) in enumerate(h.rows, h.top))


def is_gamma0(h: Hook) -> bool:
    """Both hook conditions; the diagonal is tested only if the width
    condition holds."""
    return width_condition(h) and diagonal_condition(h)


def is_gamma(k: SkewDiagram) -> bool:
    """True iff every rim hook of the covering of k has width = height + 1
    and no box above the diagonal through its minimal box; the empty
    diagram is a member.

    It peels the covering as `covering` does, with the same cut rule
    written out again in its own sweep over the rows per pass, but without
    the hooks: row i keeps columns l_i + 1..cut_i for the next pass, and a
    piece closes at row i when row i + 1 is empty or l_i >= r_{i+1}.  The
    closed piece's hook has height bottom - top + 1, width
    r_top - cut_bottom and its minimal box first in the bottom row, so it
    passes when the width is one more than the height and no row has
    i + cut_i below bottom + cut_bottom.  The first failing hook returns
    at once, before the rest of the pass is read; only a pass whose hooks
    all pass builds the next pass's rows, by the same cut rule, the last
    row keeping nothing.
    """
    rows = k.rows
    last = len(rows) - 1
    while True:
        top = -1  # the open piece's top row, -1 while none is open
        done = True  # no occupied row in this pass
        for i, (l, r) in enumerate(rows):
            if l < r:
                l2, r2 = rows[i + 1] if i < last else (l, l)
                cut = r2 - 1 if r2 > l else l
                if top < 0:
                    top, r_top, low = i, r, i + cut
                    done = False
                elif i + cut < low:
                    low = i + cut
                if not (l < r2 and l2 < r2):  # row i + 1 does not join
                    if r_top - cut != i - top + 2 or low < i + cut:
                        return False
                    top = -1
        if done:
            return True
        end = rows[-1][0]  # the last row keeps nothing
        rows = [(l, r2 - 1 if r2 > l else l) for (l, _), (_, r2) in pairwise(rows)]
        rows.append((end, end))


def conjugate_skew(k: SkewDiagram) -> SkewDiagram:
    """Transpose of the box set, re-canonicalised, read off the row
    intervals in one sweep over the columns.

    The occupied rows are collected top down, each tested against the
    one before by `occ_violation`'s three conditions; a fault sends k to
    `check_skew`, which refuses it naming the first bad pair.  Once they
    pass, l and r fall weakly down the occupied rows, and no column meets
    two rows with empty rows between them.  So the rows with r >= j are a
    prefix of the occupied rows and those with l < j a suffix, and column
    j holds the occupied rows t..b where the two overlap, one row
    interval: transposed row j is (t - 1, b].  As j falls from the
    largest r to the smallest l + 1, both t and b only move down, so each
    advances through the rows once.  Rows come out bottom first, an empty
    column taking the right end of the nearest occupied one below, as in
    `from_occ`, and the columns shift by the first occupied row's index
    less one, the least left end.
    """
    idx, itv = [], []  # the occupied rows, top down
    a = 0  # the last occupied row so far, (la, ra] its interval; 0 before one
    for i, row in enumerate(k.rows, 1):
        l, r = row
        if l < r:
            if a and ((la < l or ra < r) if a == i - 1 else la < r):
                check_skew(k.occ(), k)  # refuses, naming the first bad pair
            idx.append(i)
            itv.append(row)
            a, la, ra = i, l, r
    if not a:
        return EMPTY
    last = len(idx) - 1
    shift = idx[0] - 1
    t = b = 0
    out = []
    for j in range(itv[0][1], itv[-1][0], -1):
        while itv[t][0] >= j:
            t += 1
        while b < last and itv[b + 1][1] >= j:
            b += 1
        if t <= b:
            fill = idx[b] - shift
            out.append((idx[t] - 1 - shift, fill))
        else:
            out.append((fill, fill))
    out.reverse()
    return _new(SkewDiagram, (tuple(out),))


# ---------------------------------------------------------------------------
# Exhaustive decomposition search (used to certify covering uniqueness)


def _hooks_at(i: int, j: int, avail: frozenset) -> Iterator[Hook]:
    """All hooks inside `avail` whose top row starts at (i, j), the least
    box of `avail`: a run right along row i, then rows below, each ending
    in the column where the row above starts."""

    def below(row: int, r: int) -> Iterator[tuple]:
        """Each run of rows from `row` down under a row starting in column r."""
        yield ()
        cut = r - 1
        while (row, cut + 1) in avail:
            for tail in below(row + 1, cut + 1):
                yield ((cut, r),) + tail
            cut -= 1

    for tail in below(i + 1, j):
        r = j
        while (i, r) in avail:
            yield Hook(i, ((j - 1, r),) + tail)
            r += 1


def _apart(a: Hook, b: Hook) -> bool:
    """No box of `a` equals or shares a side with one of `b`: in each row
    of `a`, `b`'s rows one up, level and one down miss it."""
    rows, n = b.rows, len(b.rows)
    for y, (c, r) in enumerate(a.rows, a.top - b.top):
        for d in (-1, 0, 1):
            if 0 <= y + d < n:
                c2, r2 = rows[y + d]
                touch = not d  # the level row must not touch it either
                if c2 - touch < r and c - touch < r2:
                    return False
    return True


def _nested_in(a: Hook, b: Hook) -> bool:
    """Each lower and right side of a box of `a` is shared with another
    box of `a` or of `b`: in each row (c, r] of `a`, `b`'s row holds
    column r + 1, and `b`'s next row holds the columns of (c, r] that
    `a`'s next row, which holds c + 1, leaves open."""
    rows, n, last = b.rows, len(b.rows), len(a.rows) - 1
    for k, (c, r) in enumerate(a.rows):
        y = a.top - b.top + k
        if not (0 <= y < n and rows[y][0] <= r < rows[y][1]):
            return False
        lo = c + 1 + (k < last)  # the first open column
        if lo <= r and not (y + 1 < n and rows[y + 1][0] < lo and r <= rows[y + 1][1]):
            return False
    return True


def hook_decompositions(k: SkewDiagram) -> list[Covering]:
    """Up to two decompositions of k into hooks that are pairwise disjoint
    or nested, enough to tell whether it has exactly one.  The hook of the
    least remaining box is one of `_hooks_at`; each decomposition found is
    returned as a tuple of `Hook`s in the order of `covering`."""
    found: list[Covering] = []

    def rec(remaining: frozenset, chosen: tuple):
        if not remaining:
            found.append(tuple(sorted(chosen)))
            return
        for hook in _hooks_at(*min(remaining), remaining):
            if all(_apart(hook, c) or _nested_in(hook, c) or _nested_in(c, hook) for c in chosen):
                rec(remaining - hook.boxes, chosen + (hook,))
                if len(found) >= 2:
                    return

    rec(k.boxes(), ())
    return found


# ---------------------------------------------------------------------------
# Enumeration of canonical diagrams


def check_universe(max_size: int, span_cap: Optional[int] = None) -> int:
    """The span cap of the universe of diagrams with at most `max_size`
    boxes and content span at most `span_cap`, max_size + 1 by default;
    raise ValueError if either is not an int (nor a bool) or is negative."""
    for name, bound in (("max_size", max_size), ("span_cap", span_cap)):
        if bound is None and name == "span_cap":
            return max_size + 1
        if type(bound) is not int or bound < 0:
            need = ">= 0" if type(bound) is int else "an int"
            raise ValueError(f"{name} must be {need}, got {bound!r}")
    return span_cap


def enumerate_skew_diagrams(max_size: int, span_cap: Optional[int] = None
                            ) -> Iterator[SkewDiagram]:
    """All canonical skew diagrams with at most `max_size` boxes and content
    span at most `span_cap` (default max_size + 1), depth first: the empty
    diagram, then the first rows (l1, r1] by l1 and then r1 ascending, each
    diagram before those that extend it by rows below.

    The span cap makes the family finite, as components may sit arbitrarily
    far apart: a node with m rows has span r1 + m - 2 >= m - 1, so the
    stack, one entry per row count, holds at most span_cap + 1 of them.  No
    dead leaf is visited: a row right of column 0 is made only when a box
    is left for one more row and the span cap lets one fit below it, so
    every node is canonical or has the canonical child (0, 1] below.

    A node's children depend only on its key (l, r, budget, slack): its
    last row, the boxes left and the span room span_cap - maxcon - m (m
    rows, top content maxcon).  A table that lives for one call maps a key,
    when a node with it is first visited, to its children, each the rows
    it appends and its own key (None if it has no children), so the table
    holds at most one entry per visited node.
    """
    span_cap = check_universe(max_size, span_cap)
    yield EMPTY
    table, keep = {}, {}.setdefault  # keep: one copy of each run, key and child

    def node(ext, budget, slack):
        # no child without a box left, nor a canonical descendant once
        # slack < 0: every later row then starts right of column 0
        key = (*ext[-1], budget, slack) if budget > 0 <= slack else None
        child = keep(ext, ext), keep(key, key), ext[-1][0] == 0
        return keep(child, child)

    def children(l, r, budget, slack):
        # by g, r2 descending, l2: g empty rows (r2, r2), r2 <= l if g >= 1,
        # then (l2, r2]; l2 > 0 needs a box left and a row to fit (g < slack)
        return tuple(node(((r2, r2),) * g + ((l2, r2),), budget - r2 + l2, slack - g - 1)
                     for g in range(slack + 1 if l else 1)
                     for r2 in range(l if g else r, 0, -1)
                     for l2 in range(0 if r2 <= budget else r2 - budget + 1,
                                     min(l + 1, r2) if g < slack else 1))

    # the first occupied row (l1, r1] has contents l1..r1 - 1; one right of
    # column 0 needs a box left and room for a row below (r1 <= span_cap)
    stack, base, it = [], (), (node(((l1, r1),), max_size - r1 + l1, span_cap - r1)
                               for l1 in range(span_cap + 1)
                               for r1 in range(l1 + 1, 1 + (min(l1 + max_size - 1, span_cap) if l1
                                                            else min(max_size, span_cap + 1))))
    while True:
        for ext, key, canonical in it:  # canonical: the last row starts at column 0
            rows = base + ext
            if canonical:
                yield _new(SkewDiagram, (rows,))
            if key:  # never an empty entry: (0, 1] fits below
                stack.append((base, it))
                base, it = rows, iter(table.get(key) or table.setdefault(key, children(*key)))
                break
        else:
            if not stack:
                return
            base, it = stack.pop()


# ---------------------------------------------------------------------------
# Text forms


def format_skew(k: SkewDiagram) -> str:
    """Compact row-interval syntax `1:l..r;2:l..r;...`; `-` for the empty
    diagram."""
    return ";".join(f"{i + 1}:{l}..{r}" for i, (l, r) in enumerate(k.rows)) or "-"


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
    check_skew(occ, s)
    check_input_limit(occ)
    return SkewDiagram.from_occ(occ)


def render(k: SkewDiagram, contents: bool = False) -> str:
    """ASCII picture: one line per row, `#` per box (or the content mod 10
    with contents=True), `.` elsewhere in the bounding box."""
    if k.is_empty:
        return "(empty)"
    width = max(r for _, r in k.rows)
    return "\n".join("".join((str((j - i) % 10) if contents else "#") if l < j <= r else "."
                              for j in range(1, width + 1))
                      for i, (l, r) in enumerate(k.rows, 1))
