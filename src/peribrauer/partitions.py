"""Partitions as Young diagrams in English notation.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty partition.  Boxes live at coordinates (row, col) with
row, col >= 1; the content of a box is col - row and its anticontent is
col + row.
"""

from __future__ import annotations

from functools import cache
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
    """Validate and normalise an iterable of parts into a partition tuple."""
    p = tuple(parts)
    if any(not isinstance(x, int) or x < 1 for x in p):
        raise ValueError(f"parts must be positive integers: {p!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p!r}")
    return p


def size(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff the diagram of `inner` sits inside the diagram of `outer`."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def add_q(p: Partition, q: int) -> Optional[Partition]:
    """The partition obtained by adding an addable box of content q - 1.

    Row k (from 0, with a zero-length row after the last) can take a box
    of content p[k] - k; that value strictly decreases down the rows, so
    at most one row matches.  Absence is reported as None rather than an
    error.
    """
    for k, x in enumerate(p + (0,)):
        if x - k == q - 1:
            if k and p[k - 1] == x:
                return None  # the row above has the same length
            return p[:k] + (x + 1,) + p[k + 1:]
    return None


def remove_q(p: Partition, q: int) -> Optional[Partition]:
    """The partition obtained by removing a removable box of content q;
    as in `add_q`, at most one row's last box has content q."""
    for k, x in enumerate(p):
        if x - 1 - k == q:
            if k + 1 < len(p) and p[k + 1] == x:
                return None  # the row below has the same length
            return p[:k] + ((x - 1,) if x > 1 else ()) + p[k + 1:]
    return None


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each a weakly decreasing tuple."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for head in range(min(rest, largest), 0, -1):
            for tail in gen(rest - head, head):
                yield (head,) + tail

    return tuple(gen(n, n))


def subpartitions(p: Partition) -> Iterator[Partition]:
    """All partitions contained in p."""

    def gen(i: int, prev: int):
        if i == len(p):
            yield ()
            return
        for part in range(min(p[i], prev), 0, -1):
            for tail in gen(i + 1, part):
                yield (part,) + tail
        yield ()  # stop here; remaining rows empty

    return gen(0, p[0] if p else 0)


def label_sort_key(p: Partition):
    """Ordering used for matrix rows/columns: size descending, then the
    usual display order within a size."""
    return (-sum(p), tuple(-x for x in p))


@cache
def labels_Lambda(r: int) -> tuple[Partition, ...]:
    """Simple-module labels: partitions of r, r-2, ... down to 2 or 1."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
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
