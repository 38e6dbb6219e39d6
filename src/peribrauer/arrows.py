"""Weight diagrams on the integer line, arrow pairs, and flip sets.

A partition corresponds to a two-colouring of the integers: position p is
black when p appears in the strictly decreasing sequence (p1, p2 - 1,
p3 - 2, ...), white otherwise.  Far enough left everything is black, far
enough right everything is white, so a finite window suffices.

A white dot strictly left of a black dot is a wb pair; it is an arrow
pair when the closed interval between them holds exactly one more white
dot than black dots and no prefix of the open interval, read from the
white end, holds fewer whites than blacks.  Flipping a wb pair swaps the
two colours and removes a rim hook from the partition; the hook's height,
width and anticontent profile are dot-counting statistics of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import prod
from typing import NamedTuple

from .partitions import FLIP_LIMIT, Partition, check_partition


@dataclass(frozen=True, slots=True)
class WeightDiagram:
    """Colouring of [window_lo, window_hi]; positions left of the window
    are black, positions right of it are white."""

    window_lo: int
    window_hi: int
    blacks: frozenset[int]

    def __post_init__(self):
        if any(p < self.window_lo or p > self.window_hi for p in self.blacks):
            raise ValueError("black positions must lie inside the window")

    def is_black(self, pos: int) -> bool:
        if pos < self.window_lo:
            return True
        if pos > self.window_hi:
            return False
        return pos in self.blacks


class ArrowPair(NamedTuple):
    source: int  # white dot
    target: int  # black dot, source < target


def weight_of_partition(p: Partition) -> WeightDiagram:
    """The weight diagram with black dots at p[i] - i (0-based i) on the
    window [-n - 2, n + 2], n = |p|: each p[i] - i lies in (-n, n], and the
    zero parts after the last row give the tail -len(p), -len(p) - 1, ..."""
    p = check_partition(p)
    n = sum(p)
    blacks = {part - i for i, part in enumerate(p)}
    blacks.update(range(-n - 2, 1 - len(p)))
    return WeightDiagram(-n - 2, n + 2, frozenset(blacks))


def partition_of_weight(w: WeightDiagram) -> Partition:
    """Inverse of `weight_of_partition`."""
    desc = sorted(w.blacks, reverse=True)
    parts = []
    i = 0
    for pos in desc:
        part = pos + i
        if part < 0:
            raise ValueError("not the weight diagram of a partition")
        parts.append(part)
        i += 1
    # Below the window everything is black and contributes the constant
    # part (window_lo - 1) + i; a partition needs that constant to be 0.
    if w.window_lo - 1 + i != 0:
        raise ValueError("not the weight diagram of a partition")
    while parts and parts[-1] == 0:
        parts.pop()
    return check_partition(parts)


def wb_pairs(w: WeightDiagram) -> list[ArrowPair]:
    """All white-before-black pairs; finite since sources left of the
    window do not exist and targets right of it do not either."""
    whites = [p for p in range(w.window_lo, w.window_hi + 1) if not w.is_black(p)]
    blacks = sorted(w.blacks)
    return [
        ArrowPair(s, t) for s in whites for t in blacks if s < t
    ]


def is_arrow_pair(w: WeightDiagram, pair: ArrowPair) -> bool:
    """The hw-condition (one more white than black in [source, target]) and
    the d-condition (no prefix of (source, target) with fewer whites than
    blacks)."""
    s, t = pair
    if w.is_black(s) or not w.is_black(t) or s >= t:
        return False
    balance = 0  # whites minus blacks, positions s+1 .. c
    for c in range(s + 1, t):
        balance += -1 if w.is_black(c) else 1
        if balance < 0:
            return False
    # counting the white s and black t as well, [s, t] holds one more
    # white than black exactly when the open interval balances to +1
    return balance == 1


def arrow_pairs(w: WeightDiagram) -> list[ArrowPair]:
    return [p for p in wb_pairs(w) if is_arrow_pair(w, p)]


def flip(w: WeightDiagram, pair) -> WeightDiagram:
    """Swap the colours of a wb pair.  Flipping the same pair again undoes
    the move, so oppositely coloured positions are accepted either way
    round; equal colours are rejected."""
    s, t = pair
    if not (w.window_lo <= s < t <= w.window_hi):
        raise ValueError(f"pair {pair} outside window")
    if w.is_black(s) == w.is_black(t):
        raise ValueError(f"{pair} is not a white-black pair")
    return WeightDiagram(w.window_lo, w.window_hi,
                         w.blacks ^ frozenset((s, t)))


def pi_set(p: Partition) -> frozenset[Partition]:
    """Partitions reachable by flipping a set of arrow pairs with pairwise
    distinct sources (each white dot travels along at most one arrow).
    Includes p itself via the empty flip set."""
    w = weight_of_partition(p)
    by_source: dict[int, list[ArrowPair]] = {}
    for a in arrow_pairs(w):
        by_source.setdefault(a.source, []).append(a)
    choice_lists = [[None] + lst for lst in by_source.values()]
    if (choices := prod(map(len, choice_lists))) > FLIP_LIMIT:
        raise ValueError(f"{choices} flip choices; the flip limit is {FLIP_LIMIT} choices")
    out = set()
    for choice in product(*choice_lists):
        cur = w
        for a in choice:
            if a is not None:
                cur = flip(cur, a)
        out.add(partition_of_weight(cur))
    return frozenset(out)


class FlipHook(NamedTuple):
    """Predicted data of the rim hook removed by flipping one wb pair."""

    partition: Partition  # what remains after the flip
    ht: int
    wd: int
    anticontent_deltas: tuple[int, ...]  # profile relative to the minimal box


def rim_hook_of_flip(p: Partition, pair) -> FlipHook:
    """Flip a wb pair of the weight diagram of p and predict the shape of
    the removed rim hook from dot counts alone.

    The box with content c + i (c the minimal content) has anticontent
    a + i - 2 * #{blacks in (source, source + i]}; the deltas drop a.
    """
    w = weight_of_partition(p)
    s, t = pair
    lam = partition_of_weight(flip(w, pair))
    # blacks[i] = #{blacks in (s, s + i]}; `flip` keeps [s, t] in the window
    blacks = list(accumulate((c in w.blacks for c in range(s + 1, t + 1)), initial=0))
    ht = (s in w.blacks) + blacks[-1]
    wd = t - s - ht + 1
    deltas = tuple(i - 2 * b for i, b in enumerate(blacks[:-1]))
    return FlipHook(lam, ht, wd, deltas)


def render_arrow_diagram(p: Partition) -> str:
    """The window as a line of o/x (white/black), a ruler marking zero and
    multiples of five, and one line per arrow as `source -> target`."""
    w = weight_of_partition(p)
    line = "".join(
        "x" if w.is_black(pos) else "o" for pos in range(w.window_lo, w.window_hi + 1)
    )
    ruler = "".join(
        "0" if pos == 0 else ("|" if pos % 5 == 0 else " ")
        for pos in range(w.window_lo, w.window_hi + 1)
    )
    lines = [f"window {w.window_lo}..{w.window_hi}", line, ruler]
    lines += [f"{a.source} -> {a.target}" for a in arrow_pairs(w)]
    return "\n".join(lines)
