"""Partitions as Young diagrams in English notation.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty partition.  Boxes live at coordinates (row, col) with
row, col >= 1; the content of a box is col - row and its anticontent is
col + row.
"""

from __future__ import annotations

from functools import cache
from operator import le
from typing import Iterator, Optional

Partition = tuple  # weakly decreasing tuple of positive ints

# Largest box count of a partition, and largest box count and content span
# of a skew diagram, given as text.  Together they bound its rows, its
# bounding box and the work of every command on it: `from_occ` allocates
# one entry per row index, the covering one entry per box, `render` one
# character per cell.  A pair OUTER/INNER lies inside OUTER, so the bound
# on OUTER bounds the pair.  FLIP_LIMIT bounds the flip choices of `pi_set`,
# the product over arrow sources of 1 + their arrows (at most 8 for 15 boxes).
INPUT_LIMIT = 1000
FLIP_LIMIT = 4096


def check_partition(parts) -> Partition:
    """Validate and normalise an iterable of parts into a partition tuple.

    One pass checks each part for being an int, positive and at most the
    part above it.  Only on a fault are the parts read again, so that a
    part that is not a positive integer is named before any increase."""
    p = tuple(parts)
    above = p[0] if p else 0
    for x in p:
        if type(x) is not int or x < 1 or x > above:
            break
        above = x
    else:
        return p
    if any(type(x) is not int or x < 1 for x in p):
        raise ValueError(f"parts must be positive integers: {p!r}")
    raise ValueError(f"parts must be weakly decreasing: {p!r}")


def check_grade(r: int, name: str = "r") -> None:
    """Raise ValueError, calling the grade `name`, if r is below 2, the
    least grade of the algebras."""
    if r < 2:
        raise ValueError(f"{name} must be >= 2, got {r}")


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff the diagram of `inner` sits inside the diagram of `outer`."""
    if len(inner) > len(outer):
        return False
    return all(map(le, inner, outer))


def add_q(p: Partition, q: int) -> Optional[Partition]:
    """The partition obtained by adding an addable box of content q - 1.

    Row k (from 0, with a zero-length row after the last) can take a box
    of content p[k] - k; that value strictly decreases down the rows, so
    at most one row matches, and the scan stops at the first row whose
    value is not above q - 1.  Absence is reported as None rather than an
    error.
    """
    c = q - 1
    for k, x in enumerate(p):
        if x - k <= c:
            if x - k < c or (k and p[k - 1] == x):
                return None  # no row matches, or the row above has the same length
            return p[:k] + (x + 1,) + p[k + 1:]
    return p + (1,) if c == -len(p) else None


def remove_q(p: Partition, q: int) -> Optional[Partition]:
    """The partition obtained by removing a removable box of content q;
    as in `add_q`, at most one row's last box has content q, and the scan
    stops at the first row whose last box has content at most q."""
    for k, x in enumerate(p):
        if x - 1 - k <= q:
            if x - 1 - k < q or (k + 1 < len(p) and p[k + 1] == x):
                return None  # no row matches, or the row below has the same length
            return p[:k] + ((x - 1,) if x > 1 else ()) + p[k + 1:]
    return None


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order, (n,) first.

    The successor lowers the last part above 1 by one and refills the rows
    below greedily with parts no longer; one list of parts, no recursion."""
    if n < 0:
        return ()
    cur = [n] if n else []
    out = []
    while True:
        out.append(tuple(cur))
        k = len(cur) - 1
        while k >= 0 and cur[k] == 1:
            k -= 1
        if k < 0:
            return tuple(out)
        x = cur[k] - 1
        # the rows from k on held x + 1 boxes and a 1 in each later row
        full, last = divmod(x + len(cur) - k, x)
        del cur[k:]
        cur += [x] * full
        if last:
            cur.append(last)


def subpartitions(p: Partition) -> Iterator[Partition]:
    """All partitions contained in p, in decreasing lexicographic order of
    their parts padded with zeros to len(p): p first, () last.

    The successor of a partition lowers its last part by one, dropping it
    at zero, and refills the rows below greedily, each row as long as p
    and the row above allow.  The loop keeps one list of parts and does
    not recurse, so its stack depth does not grow with the rows of p.
    """
    cur = list(p)
    while True:
        yield tuple(cur)
        if not cur:
            return
        x = cur.pop() - 1
        if x:
            cur.append(x)
            for i in range(len(cur), len(p)):
                if p[i] < x:
                    x = p[i]
                cur.append(x)


def label_sort_key(p: Partition):
    """Ordering used for matrix rows/columns: size descending, then the
    usual display order within a size."""
    return (-sum(p), tuple(-x for x in p))


@cache
def labels_Lambda(r: int) -> tuple[Partition, ...]:
    """Simple-module labels: partitions of r, r-2, ... down to 2 or 1."""
    check_grade(r)
    out = []
    n = r
    while n > 0:
        out.extend(partitions_of(n))
        n -= 2
    return tuple(sorted(out, key=label_sort_key))


@cache
def labels_L(r: int) -> tuple[Partition, ...]:
    """Cell-module labels: labels_Lambda(r) plus the empty partition when
    r is even."""
    out = labels_Lambda(r)
    if r % 2 == 0:
        out = out + ((),)
    return out


def format_partition(p: Partition) -> str:
    """Bracketed text form, e.g. [3,1]; the empty partition is []."""
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(s: str) -> Partition:
    t = s.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"partition must look like [3,1]: {s!r}")
    body = t[1:-1].strip()
    if not body:
        return ()
    try:
        parts = tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ValueError(f"bad partition literal: {s!r}") from None
    p = check_partition(parts)
    if sum(p) > INPUT_LIMIT:
        raise ValueError(
            f"partition has {sum(p)} boxes; the input limit is {INPUT_LIMIT} boxes"
        )
    return p
