"""Acceptance criteria 2-9 as one registry of checks, shared by the
acceptance tests (at their pinned sizes) and `peribrauer verify-all`
(every entry of `REGISTRY`).  Criterion 1 is frozen data in the tests.

A violation is a dict of printable values, so text and JSON show the same
witness.  Functions are looked up in their modules at call time, so a
function patched in its module is the one checked.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from . import arrows, grothendieck, multiplicities, partitions, procedures, skew
from .partitions import format_partition
from .skew import SkewDiagram, format_skew


class CheckResult:
    def __init__(self, name: str, params: dict, checked: int = 0,
                 violations: list | None = None, seconds: float = 0.0,
                 counts: dict | None = None):
        self.name, self.params, self.checked, self.seconds = name, params, checked, seconds
        self.violations = [] if violations is None else violations
        self.counts = {} if counts is None else counts  # further tallies of what was checked

    @property
    def ok(self) -> bool:
        return not self.violations


def _timed(check):
    @functools.wraps(check)
    def run(*args) -> CheckResult:
        t0 = time.perf_counter()
        res = check(*args)
        res.seconds = time.perf_counter() - t0
        return res

    return run


def _sizes(max_size: int) -> range:
    """0..max_size, the partition sizes a check runs over."""
    skew.check_universe(max_size)
    return range(max_size + 1)


@_timed
def equivalence(max_size: int, span_cap: Optional[int] = None) -> CheckResult:
    """Criterion 2: the covering test and the plain and barred closures
    agree on every diagram with at most `max_size` boxes and content span
    at most `span_cap` (default max_size + 1)."""
    rep = procedures.equivalence_report(max_size, span_cap)
    violations = [
        {"diagram": format_skew(k), "covering": g, "plain": u, "barred": b}
        for k, g, u, b in rep.disagreements
    ]
    return CheckResult(
        "equivalence", {"max_size": max_size, "span_cap": rep.span_cap},
        rep.diagrams_checked, violations,
        counts={"members": rep.member_count,
                "connected_nonzero": rep.connected_nonzero_members},
    )


@_timed
def flip_sets(max_size: int) -> CheckResult:
    """Criterion 3: lam lies in the flip set of mu exactly when mu/lam is
    a member, for every lam inside mu with |mu| <= max_size."""
    checked, bad = 0, []
    for n in _sizes(max_size):
        for mu in partitions.partitions_of(n):
            pis = arrows.pi_set(mu)
            for lam in partitions.subpartitions(mu):
                checked += 1
                if (lam in pis) != skew.is_gamma(skew.skew_from_pair(mu, lam)):
                    bad.append({"mu": format_partition(mu), "lam": format_partition(lam)})
    return CheckResult("flip_sets", {"max_size": max_size}, checked, bad)


def _anticontent_deltas(h) -> tuple[int, ...]:
    """The anticontents i + j of the hook's boxes in content order, less
    the minimal box's.  From the minimal box, the first of the bottom row,
    the ribbon steps right along a row (+1) and then up into the row
    above, whose first column is the lower row's last (-1)."""
    deltas, a = [], 0
    for cut, r in reversed(h.rows):
        deltas += range(a, a + r - cut)
        a += r - cut - 2
    return tuple(deltas)


@_timed
def arrow_flips(max_size: int) -> CheckResult:
    """Criterion 4: every white-black flip of mu removes one rim hook whose
    height, width, anticontent profile and membership match the dot-count
    predictions, |mu| <= max_size."""
    checked, bad = 0, []
    for n in _sizes(max_size):
        for mu in partitions.partitions_of(n):
            w = arrows.weight_of_partition(mu)
            for pair in arrows.wb_pairs(w):
                checked += 1
                fh = arrows.rim_hook_of_flip(mu, pair)
                cov = skew.covering(skew.skew_from_pair(mu, fh.partition))
                if len(cov) != 1:
                    reason = "not a single hook"
                else:
                    h = cov[0]
                    if (
                        (h.ht, h.wd) == (fh.ht, fh.wd)
                        and _anticontent_deltas(h) == fh.anticontent_deltas
                        and arrows.is_arrow_pair(w, pair) == skew.is_gamma0(h)
                    ):
                        continue
                    reason = "statistics disagree"
                bad.append({"mu": format_partition(mu),
                            "pair": f"{pair.source}->{pair.target}", "reason": reason})
    return CheckResult("arrow_flips", {"max_size": max_size}, checked, bad)


@_timed
def rim_two_hooks(max_size: int) -> CheckResult:
    """Criterion 5: for every lam with |lam| <= max_size and every mu two
    boxes larger, the cell multiplicity is 1 exactly when the two added
    boxes form a horizontal domino."""
    checked, bad = 0, []
    for n in _sizes(max_size):
        for lam in partitions.partitions_of(n):
            for mu in partitions.partitions_of(n + 2):
                if not partitions.contains(lam, mu):
                    continue
                checked += 1
                # lam sits inside mu, so the multiplicity is membership of mu/lam
                diff = skew.skew_from_pair(mu, lam)
                if skew.is_gamma(diff) != (diff.rows == ((0, 2),)):
                    bad.append({"lam": format_partition(lam), "mu": format_partition(mu)})
    return CheckResult("rim_two_hooks", {"max_size": max_size}, checked, bad)


@_timed
def vertical_dominoes(max_size: int) -> CheckResult:
    """Criterion 6: adding a vertical domino with nothing above it or left
    of it never keeps a member a member, for members with at most
    `max_size` boxes.  The empty base is the vertical domino itself.  The
    domino (i, j), (i + 1, j), for i = -1..last row + 1 and j = -1..max r + 2,
    goes onto rows that are empty or start at column j + 1, with row i - 1
    not covering column j; `occ_violation` decides if the result is skew,
    and in a skew result a box above column j means one in row i - 1."""
    checked, bad = 0, []
    if skew.is_gamma(SkewDiagram(((0, 1), (0, 1)))):
        bad.append({"diagram": "-", "domino": "(1,1),(2,1)"})
    for k in skew.enumerate_skew_diagrams(max_size):
        if k.is_empty or not skew.is_gamma(k):
            continue
        occ = k.occ()
        width = max(r for _, r in k.rows)
        for i in range(-1, len(k.rows) + 2):
            for j in range(-1, width + 3):
                top, bottom = occ.get(i, (j, j)), occ.get(i + 1, (j, j))
                if top[0] != j or bottom[0] != j:
                    continue
                above = occ.get(i - 1, (j, j))
                if above[0] < j <= above[1]:
                    continue
                occ2 = {**occ, i: (j - 1, top[1]), i + 1: (j - 1, bottom[1])}
                if skew.occ_violation(occ2):
                    continue
                checked += 1
                if skew.is_gamma(SkewDiagram.from_occ(occ2)):
                    bad.append({"diagram": format_skew(k),
                                "domino": f"({i},{j}),({i + 1},{j})"})
    return CheckResult("vertical_dominoes", {"max_size": max_size}, checked, bad)


@_timed
def tl_relations(r_max: int, q_lo: int, q_hi: int) -> CheckResult:
    """Criterion 7: square-zero, far-commutation and braid-like relations
    on every basis class of grade <= r_max, contents in [q_lo, q_hi]."""
    rep = grothendieck.verify_tl(r_max, q_lo, q_hi)
    violations = [
        {"relation": relation, "class": f"W_{r}({format_partition(lam)})",
         "q": q, "p": p, "lhs": str(lhs), "rhs": str(rhs)}
        for relation, r, lam, q, p, lhs, rhs in rep.violations
    ]
    return CheckResult("tl_relations", {"r_max": r_max, "q_lo": q_lo, "q_hi": q_hi},
                       rep.checks, violations)


@_timed
def cartan(r_max: int) -> CheckResult:
    """Criterion 8: for every grade 2..r_max and every pair of simple
    labels, the Cartan sum form equals the witness form and the assembled
    matrix entry, and is 0 or 1.  A `ConsistencyError` from the matrix is
    a violation of its grade."""
    partitions.check_grade(r_max, "r_max")
    checked, bad = 0, []
    for r in range(2, r_max + 1):
        try:
            matrix = multiplicities.cartan_matrix(r).entries
        except multiplicities.ConsistencyError as exc:
            bad.append({"r": r, "error": str(exc)})
            continue
        labels = partitions.labels_Lambda(r)
        for a, nu in enumerate(labels):
            for b, mu in enumerate(labels):
                checked += 1
                s = multiplicities.cartan_mult_sum(r, nu, mu)
                w = multiplicities.cartan_mult_witness(r, nu, mu)
                if s != w or s not in (0, 1) or s != matrix[a][b]:
                    bad.append({"r": r, "nu": format_partition(nu),
                                "mu": format_partition(mu), "sum": s,
                                "witness": w, "matrix": matrix[a][b]})
    return CheckResult("cartan", {"r_max": r_max}, checked, bad)


@_timed
def covering_uniqueness(max_size: int) -> CheckResult:
    """Criterion 9: every diagram with at most `max_size` boxes has one
    decomposition into pairwise disjoint-or-nested hooks, its covering, whose
    member hooks have even size.  Hooks are edge-connected, so k decomposes as
    its components do, and only they, the `connected` diagrams, are searched:
    each once, its one decomposition kept in the covering's form and moved
    into the frame of every k it is a component of."""
    found: dict[SkewDiagram, Optional[tuple]] = {}  # connected diagram -> its hooks, None if it fails
    connected, bad = 0, []
    for checked, k in enumerate(skew.enumerate_skew_diagrams(max_size), 1):
        comps = skew.components(k)
        connected += len(comps) == 1
        expected = []
        for c, (dr, dc) in comps:
            if c not in found:
                decs = skew.hook_decompositions(c)
                fails = len(decs) != 1 or any(
                    skew.is_gamma0(h) and sum(r - cut for cut, r in h.rows) % 2 for h in decs[0])
                found[c] = None if fails else decs[0]
            if found[c] is None:
                ok = len(comps) > 1  # a failing component, itself a diagram, reports it
                break
            expected += [(top + dr, tuple((cut + dc, r + dc) for cut, r in rows))
                         for top, rows in found[c]]
        else:
            ok = list(skew.covering(k)) == sorted(expected)
        if not ok:
            bad.append({"diagram": format_skew(k), "decompositions": len(skew.hook_decompositions(k))})
    return CheckResult("covering_uniqueness", {"max_size": max_size}, checked, bad,
                       counts={"connected": connected})


# name -> the check run at `verify-all --max-size N --r-max R`, criteria 2-9
REGISTRY = {
    "equivalence": lambda n, r: equivalence(n),
    "flip_sets": lambda n, r: flip_sets(n),
    "arrow_flips": lambda n, r: arrow_flips(n),
    "rim_two_hooks": lambda n, r: rim_two_hooks(n),
    "vertical_dominoes": lambda n, r: vertical_dominoes(n),
    "tl_relations": lambda n, r: tl_relations(r, -n - 2, n + 2),
    "cartan": lambda n, r: cartan(r),
    "covering_uniqueness": lambda n, r: covering_uniqueness(n),
}
