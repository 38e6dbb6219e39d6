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
one call it computes each basis class's nonzero images with `apply_Rq`
once and applies the operators to vectors by summing those images.  It
evaluates an instance only when one of its sides can be nonzero: for a
class v, the square and both braids at q when R_q v is nonzero, the
commutation of R_q and R_p when R_p is nonzero on some class of R_q v or
R_q on some class of R_p v.  Every other instance is counted as checked,
since both of its sides are zero by linearity, and the loop visits only
the contents of evaluated instances, so it grows with the nonzero images
and not with the q range.  The right-hand side E R_q is `apply_E`,
evaluated on its own, once per class and q with R_q v nonzero.
"""

from __future__ import annotations

from .partitions import (
    Partition,
    add_q,
    check_grade,
    format_partition,
    labels_L,
    remove_q,
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
        if sum(lam) < r:
            added = add_q(lam, q)
            if added is not None:
                _bump(out, (r - 1, added), coeff)
    return out


def apply_E(v: ClassVector) -> ClassVector:
    """Drop every basis class two grades, killing full-size partitions and
    grades below 4."""
    out: ClassVector = {}
    for (r, lam), coeff in v.items():
        if r >= 4 and sum(lam) < r:
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

    Both sides of each evaluated identity are computed independently;
    violations are reported with the witnessing basis class.  Computed
    once per call: each basis class's nonzero images under R_x, x in
    [q_lo - 1, q_hi + 1], by `apply_Rq` on the class itself, so an
    operator fault still reaches every relation.  An instance is
    evaluated only when one of its sides can be nonzero, which the table
    tells: for a class v and w = R_q v, the square and both braids when w
    is nonzero, and the commutation with R_p when some class of w has a
    nonzero R_p image or some class of R_p v a nonzero R_q image.  Every
    other instance still counts in `checks`, by one closed-form count per
    class: both of its sides are zero by linearity.  The evaluated
    contents are visited in ascending order, so violations come in the
    order of a loop over every q.
    """
    check_grade(r_max, "r_max")
    if q_lo > q_hi:
        raise ValueError(f"q range {q_lo}:{q_hi} is empty: it needs LO <= HI")
    report = TLReport(r_max=r_max, q_lo=q_lo, q_hi=q_hi)

    def record(relation, r, lam, q, p, lhs, rhs):
        if lhs != rhs:
            report.violations.append((relation, r, lam, q, p, lhs, rhs))

    # basis class -> {x: items of its image under R_x}, x = q_lo - 1 .. q_hi + 1,
    # holding only the contents with a nonzero image
    table: dict = {}

    def row(key) -> dict:
        if key not in table:
            table[key] = {x: tuple(image.items()) for x in range(q_lo - 1, q_hi + 2)
                          if (image := apply_Rq({key: 1}, x))}
        return table[key]

    def rx(v: ClassVector, x: int) -> ClassVector:
        out: ClassVector = {}
        for key, coeff in v.items():
            for image, c in row(key).get(x, ()):
                _bump(out, image, coeff * c)
        return out

    # one square, one commutation per far p, two braids, for each q in range
    per_class = sum(3 + max(0, q_hi - q - 1) for q in range(q_lo, q_hi + 1))
    for r in range(2, r_max + 1):
        for lam in labels_L(r):
            report.checks += per_class
            rq = {q: dict(images) for q, images in row((r, lam)).items()
                  if q_lo <= q <= q_hi}
            # R_p R_q v can be nonzero only when some class of R_q v has a
            # nonzero R_p image, and R_q R_p v only when some class of R_p v
            # has a nonzero R_q image: q -> its far partners p > q + 1
            far: dict = {}
            for q, w in rq.items():
                for x in set().union(*map(row, w)):
                    if q + 2 <= x <= q_hi:
                        far.setdefault(q, set()).add(x)
                    elif q_lo <= x <= q - 2:
                        far.setdefault(x, set()).add(q)
            for q in sorted(far.keys() | rq.keys()):
                w = rq.get(q, {})
                if w:
                    record("square", r, lam, q, None, rx(w, q), {})
                for p in sorted(far.get(q, ())):
                    record("commute", r, lam, q, p, rx(w, p), rx(rq.get(p, {}), q))
                if w:
                    rhs = apply_E(w)  # the same right-hand side for both signs
                    for s in (1, -1):
                        record("braid", r, lam, q, q + s, rx(rx(w, q + s), q), rhs)
    return report
