"""The benchmark's workloads.

Each workload builds its inputs from a seed, makes its timed calls into
the library's public functions, and checks the outputs afterwards.  The
check returns the number of failed items, where an item is the unit that
`items_per_s` counts.  Sizes are fixed here, and the frozen values are
the library's answers at those sizes.

Functions are reached through their modules at call time
(`procedures.equivalence_report`, not a name imported once), so that the
tracer's rebinding of module attributes sees every call.
"""

from __future__ import annotations

import random

from peribrauer import arrows, grothendieck, multiplicities, partitions, procedures, skew


class Universe:
    """Three-way membership equivalence over every diagram with at most N
    boxes (span cap N + 1).  An item is one diagram.  Fixed by its size;
    the seed is ignored."""

    N = 8
    DIAGRAMS = 13046
    MEMBERS = 172
    items = DIAGRAMS

    def inputs(self, seed):
        return self.N

    def run(self, n):
        return procedures.equivalence_report(n, workers=1)

    def check(self, rep):
        if (rep.diagrams_checked, rep.member_count) != (self.DIAGRAMS, self.MEMBERS):
            return self.items
        return len(rep.disagreements)


class Closure:
    """The plain and barred operator closures at N boxes.  An item is one
    member of one closure.  Fixed by its size; the seed is ignored."""

    N = 11
    MEMBERS = 1590
    items = 2 * MEMBERS

    def inputs(self, seed):
        return self.N

    def run(self, n):
        return (
            procedures.generate_upsilon(n, barred=False),
            procedures.generate_upsilon(n, barred=True),
        )

    def check(self, sets):
        plain, barred = sets
        if len(plain) != self.MEMBERS or len(barred) != self.MEMBERS:
            return self.items
        return sum(
            1
            for own, other in ((plain, barred), (barred, plain))
            for k in own
            if k not in other or not skew.is_gamma(k)
        )


class Matrices:
    """Cell and Cartan matrices for every grade 2..R, grades visited in a
    seeded order.  An item is one matrix entry."""

    R = 10
    # r -> (entries of the cell matrix, ones in it, entries of the Cartan
    # matrix, ones in it)
    FROZEN = {
        2: (6, 3, 4, 3),
        3: (16, 5, 16, 7),
        4: (56, 11, 49, 18),
        5: (121, 17, 121, 32),
        6: (342, 33, 324, 68),
        7: (676, 45, 676, 94),
        8: (1640, 81, 1600, 204),
        9: (3136, 113, 3136, 289),
        10: (6806, 187, 6724, 547),
    }
    items = sum(cell + cartan for cell, _, cartan, _ in FROZEN.values())

    def inputs(self, seed):
        grades = list(range(2, self.R + 1))
        random.Random(seed).shuffle(grades)
        return grades

    def run(self, grades):
        return [
            (r, multiplicities.cell_matrix(r), multiplicities.cartan_matrix(r))
            for r in grades
        ]

    def check(self, results):
        if sorted(r for r, _, _ in results) != sorted(self.FROZEN):
            return self.items
        failed = 0
        for r, cell, cartan in results:
            got = (
                sum(map(len, cell.entries)), sum(map(sum, cell.entries)),
                sum(map(len, cartan.entries)), sum(map(sum, cartan.entries)),
            )
            if got != self.FROZEN[r] or (r == 2 and cartan.entries != ((1, 0), (1, 1))):
                failed += self.FROZEN[r][0] + self.FROZEN[r][2]
        return failed


class Relations:
    """Acceptance criteria 3, 4 and 7 through public functions: flip sets
    against membership for |mu| <= PI_MAX, flip hooks against the covering
    for |mu| <= FLIP_MAX, and the operator relations for r <= TL_R.  The
    partitions of criteria 3 and 4 are visited in a seeded order.  An item
    is one pair, one flip or one relation instance."""

    PI_MAX = 13
    FLIP_MAX = 15
    TL_R = 12
    TL_Q = (-12, 12)
    PAIRS = 15061
    FLIPS = 8489
    TL_CHECKS = 183573
    items = PAIRS + FLIPS + TL_CHECKS

    def inputs(self, seed):
        rng = random.Random(seed)
        orders = []
        for bound in (self.PI_MAX, self.FLIP_MAX):
            mus = [mu for n in range(bound + 1) for mu in partitions.partitions_of(n)]
            rng.shuffle(mus)
            orders.append(mus)
        return orders

    def run(self, orders):
        pi_mus, flip_mus = orders
        pairs = pair_mismatches = 0
        for mu in pi_mus:
            pis = arrows.pi_set(mu)
            for lam in partitions.subpartitions(mu):
                pairs += 1
                if (lam in pis) != skew.is_gamma(skew.skew_from_pair(mu, lam)):
                    pair_mismatches += 1
        flips = flip_mismatches = 0
        for mu in flip_mus:
            w = arrows.weight_of_partition(mu)
            for pair in arrows.wb_pairs(w):
                flips += 1
                if not _flip_matches_hook(mu, w, pair):
                    flip_mismatches += 1
        tl = grothendieck.verify_tl(self.TL_R, *self.TL_Q)
        return pairs, pair_mismatches, flips, flip_mismatches, tl.checks, len(tl.violations)

    def check(self, counts):
        pairs, pair_bad, flips, flip_bad, checks, violations = counts
        return (
            (self.PAIRS if pairs != self.PAIRS else pair_bad)
            + (self.FLIPS if flips != self.FLIPS else flip_bad)
            + (self.TL_CHECKS if checks != self.TL_CHECKS else violations)
        )


def _flip_matches_hook(mu, w, pair) -> bool:
    """Criterion 4 for one flip: the covering of mu minus the flipped
    partition is one hook with the predicted height, width, anticontent
    profile and membership."""
    fh = arrows.rim_hook_of_flip(mu, pair)
    cov = skew.covering(skew.skew_from_pair(mu, fh.partition))
    if len(cov) != 1:
        return False
    h = cov[0]
    acs = [i + j for i, j in sorted(h.boxes, key=lambda b: b[1] - b[0])]
    return (
        (h.ht, h.wd) == (fh.ht, fh.wd)
        and tuple(a - acs[0] for a in acs) == fh.anticontent_deltas
        and arrows.is_arrow_pair(w, pair) == skew.is_gamma0(h)
    )


WORKLOADS = {
    "universe": Universe(),
    "closure": Closure(),
    "matrices": Matrices(),
    "relations": Relations(),
}
