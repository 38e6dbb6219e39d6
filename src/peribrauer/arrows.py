"""Weight diagrams on the integer line, arrow pairs, and flip sets.

A partition corresponds to a two-colouring of the integers: the black
dots are its beta-numbers p[i] - i (0-based i, with p[i] = 0 past the
last row), the strictly decreasing sequence (p1, p2 - 1, p3 - 2, ...);
every other position is white.  Far enough left everything is black, far
enough right everything is white, so a finite window suffices.

A white dot strictly left of a black dot is a wb pair; it is an arrow
pair when the closed interval between them holds exactly one more white
dot than black dots and no prefix of the open interval, read from the
white end, holds fewer whites than blacks.  Flipping a wb pair swaps the
two colours and removes a rim hook from the partition; the hook's height,
width and anticontent profile are dot-counting statistics of the pair.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import prod
from typing import NamedTuple

from .partitions import FLIP_LIMIT, Partition, check_partition


class WeightDiagram(namedtuple("WeightDiagram", "window_lo window_hi blacks")):
    """Colouring of [window_lo, window_hi]; positions left of the window
    are black, positions right of it are white.  `blacks` is a frozenset
    of positions."""

    __slots__ = ()

    def __new__(cls, window_lo: int, window_hi: int, blacks: frozenset[int]):
        if blacks and (min(blacks) < window_lo or max(blacks) > window_hi):
            raise ValueError("black positions must lie inside the window")
        return super().__new__(cls, window_lo, window_hi, blacks)

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
    parts = [pos + i for i, pos in enumerate(sorted(w.blacks, reverse=True))]
    # The parts fall weakly, so only the last can be negative.  Below the
    # window everything is black and contributes the constant part
    # (window_lo - 1) + len(parts); a partition needs that constant to be 0.
    if (parts and parts[-1] < 0) or w.window_lo - 1 + len(parts) != 0:
        raise ValueError("not the weight diagram of a partition")
    while parts and parts[-1] == 0:
        parts.pop()
    return check_partition(parts)


def wb_pairs(w: WeightDiagram) -> list[ArrowPair]:
    """All white-before-black pairs; finite since sources left of the
    window do not exist and targets right of it do not either."""
    black = w.blacks
    whites = [p for p in range(w.window_lo, w.window_hi + 1) if p not in black]
    blacks = sorted(black)
    return [
        ArrowPair(s, t) for s in whites for t in blacks if s < t
    ]


def _arrow_targets(black, s: int, end: int) -> list[int]:
    """The targets t <= end of the arrow pairs (s, t) from the white
    source s, left to right; `black` holds the blacks of a window holding
    s and end.  The balance counts whites minus blacks strictly between s
    and the position reached.  A black reached at balance 1 is a target;
    one reached at balance 0 takes every later prefix below 0."""
    targets = []
    balance = 0
    for c in range(s + 1, end + 1):
        if c not in black:
            balance += 1
        elif balance == 1:
            targets.append(c)
            balance = 0
        elif balance:
            balance -= 1
        else:
            break
    return targets


def is_arrow_pair(w: WeightDiagram, pair: ArrowPair) -> bool:
    """The hw-condition (one more white than black in [source, target]) and
    the d-condition (no prefix of (source, target) with fewer whites than
    blacks).  Once s and t are known colours, s < t, (s, t) lies inside
    the window, where black is membership in `w.blacks`."""
    s, t = pair
    if w.is_black(s) or not w.is_black(t) or s >= t:
        return False
    return t in _arrow_targets(w.blacks, s, t)


def arrow_pairs(w: WeightDiagram) -> list[ArrowPair]:
    """The arrow pairs ordered by source, then target: one scan per white
    source, since right of the window there is no black."""
    black, hi = w.blacks, w.window_hi
    return [ArrowPair(s, t) for s in range(w.window_lo, hi + 1) if s not in black
            for t in _arrow_targets(black, s, hi)]


def _check_wb_pair(pair, lo: int, hi: int, s_black: bool, t_black: bool) -> None:
    """Raise ValueError unless the pair (s, t), s < t, lies in the window
    [lo, hi] and its two positions, black as given, differ in colour."""
    s, t = pair
    if not (lo <= s < t <= hi):
        raise ValueError(f"pair {pair} outside window")
    if s_black == t_black:
        raise ValueError(f"{pair} is not a white-black pair")


def flip(w: WeightDiagram, pair) -> WeightDiagram:
    """Swap the colours of a wb pair.  Flipping the same pair again undoes
    the move, so oppositely coloured positions are accepted either way
    round; equal colours are rejected."""
    s, t = pair
    _check_wb_pair(pair, w.window_lo, w.window_hi, w.is_black(s), w.is_black(t))
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

    The blacks are the beta-numbers p[i] - i and every position <= -len(p).
    A flip moves one beta-number from the black end of the pair to the
    white end; when the black end lies below -len(p), the list of
    beta-numbers is first extended down to it.  Sorted, the list gives
    the parts beta'[i] + i of the result.  The window and colour tests
    are those of `flip`, on the window of `weight_of_partition`.

    The box with content c + i (c the minimal content) has anticontent
    a + i - 2 * #{blacks in (source, source + i]}; the deltas drop a.
    """
    p = check_partition(p)
    m, n = len(p), sum(p)
    s, t = pair
    betas = [part - i for i, part in enumerate(p)]
    black = set(betas)
    s_black = s in black or s <= -m
    _check_wb_pair(pair, -n - 2, n + 2, s_black, t in black or t <= -m)
    deltas = []
    count = 0  # blacks in (s, c)
    for c in range(s + 1, t + 1):
        deltas.append(c - s - 1 - 2 * count)
        if c in black or c <= -m:
            count += 1
    ht = s_black + count
    wd = t - s - ht + 1
    black_end, white_end = (s, t) if s_black else (t, s)
    # every position <= -m is black, so only s can lie there (a t there
    # would leave s black too); the list then takes the tail down to s, less s
    if black_end <= -m:
        betas.extend(range(-m, black_end, -1))
    else:
        betas.remove(black_end)
    betas.append(white_end)
    betas.sort(reverse=True)
    # parts are weakly decreasing and >= 0, so the zeros are the tail
    lam = tuple([b + i for i, b in enumerate(betas) if b + i])
    return FlipHook(lam, ht, wd, tuple(deltas))


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
