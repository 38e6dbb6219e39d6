"""Decategorified restriction operators on graded class vectors.

A class vector is a finitely supported integer combination of cell-module
classes, keyed by (r, partition) with the partition a valid cell label
for grade r.  The lowering operator for a content value q sends a basis
class at grade r to the class of the partition with a q-box removed plus,
when the partition is strictly smaller than r, the class with a
(q-1)-box added, both at grade r - 1; grade 2 is annihilated.  The
two-step lowering operator drops straight to grade r - 2 (zero on
partitions of full size and below grade 4).

`verify_tl` checks the square-zero, far-commutation and braid-like
relations of these operators on every basis class in a range.  Within
one call it computes each basis class's images with `apply_Rq` once and
applies the operators to vectors by summing those images; the right-hand
side E R_q is `apply_E`, evaluated on its own, once per class and q.
"""

from __future__ import annotations

from .partitions import (
    Partition,
    add_q,
    check_grade,
    format_partition,
    labels_L,
    remove_q,
    size,
)

# finitely supported map (r, partition) -> coefficient, no zero values
ClassVector = dict


def check_vector(v: ClassVector) -> ClassVector:
    for (r, lam), coeff in v.items():
        if lam not in labels_L(r):
            raise ValueError(f"({r}, {format_partition(lam)}) is not a valid key")
        if coeff == 0:
            raise ValueError("zero coefficients must not be stored")
    return v


def basis_class(r: int, lam: Partition) -> ClassVector:
    return check_vector({(r, tuple(lam)): 1})


def _bump(out: ClassVector, key, coeff: int) -> None:
    """Add coeff to out[key] in place, dropping the key when it cancels."""
    new = out.get(key, 0) + coeff
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def apply_Rq(v: ClassVector, q: int) -> ClassVector:
    """Linear extension of the grade-lowering action at content q."""
    out: ClassVector = {}
    for (r, lam), coeff in v.items():
        if r <= 2:
            continue
        removed = remove_q(lam, q)
        if removed is not None:
            _bump(out, (r - 1, removed), coeff)
        if size(lam) < r:
            added = add_q(lam, q)
            if added is not None:
                _bump(out, (r - 1, added), coeff)
    return out


def apply_E(v: ClassVector) -> ClassVector:
    """Drop every basis class two grades, killing full-size partitions and
    grades below 4."""
    out: ClassVector = {}
    for (r, lam), coeff in v.items():
        if r >= 4 and size(lam) < r:
            _bump(out, (r - 2, lam), coeff)
    return out


class TLReport:
    def __init__(self, r_max: int, q_lo: int, q_hi: int):
        self.r_max, self.q_lo, self.q_hi = r_max, q_lo, q_hi
        self.checks = 0
        self.violations: list = []

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_tl(r_max: int, q_lo: int, q_hi: int) -> TLReport:
    """Check, on every basis class with 2 <= r <= r_max, that the lowering
    operators square to zero, commute at content distance > 1, and satisfy
    R_q R_{q+-1} R_q = E R_q.

    Both sides of each identity are evaluated independently; violations
    are reported with the witnessing basis class.  Computed once per call:
    each basis class's images under R_x, x in [q_lo - 1, q_hi + 1], by
    `apply_Rq` on the class itself, so an operator fault still reaches
    every relation.  R of the zero vector is zero without a lookup.
    """
    check_grade(r_max, "r_max")
    if q_lo > q_hi:
        raise ValueError(f"q range {q_lo}:{q_hi} is empty: it needs LO <= HI")
    report = TLReport(r_max=r_max, q_lo=q_lo, q_hi=q_hi)

    def record(relation, r, lam, q, p, lhs, rhs):
        report.checks += 1
        if lhs != rhs:
            report.violations.append((relation, r, lam, q, p, lhs, rhs))

    qs = range(q_lo, q_hi + 1)
    # basis class -> items of its images under R_x, x = q_lo - 1 .. q_hi + 1
    table: dict = {}

    def rx(v: ClassVector, x: int) -> ClassVector:
        out: ClassVector = {}
        for key, coeff in v.items():
            if key not in table:
                table[key] = tuple(tuple(apply_Rq({key: 1}, y).items())
                                   for y in range(q_lo - 1, q_hi + 2))
            for image, c in table[key][x - q_lo + 1]:
                _bump(out, image, coeff * c)
        return out

    for r in range(2, r_max + 1):
        for lam in labels_L(r):
            v = basis_class(r, lam)
            rq = {q: rx(v, q) for q in qs}
            for q in qs:
                w = rq[q]
                record("square", r, lam, q, None, rx(w, q) if w else {}, {})
                for p in range(q + 2, q_hi + 1):
                    record("commute", r, lam, q, p, rx(w, p) if w else {},
                           rx(rq[p], q) if rq[p] else {})
                rhs = apply_E(w)  # the same right-hand side for both signs
                for s in (1, -1):
                    record("braid", r, lam, q, q + s, rx(rx(w, q + s), q) if w else {}, rhs)
    return report
