"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one timed
pass/fail line per criterion.  Universes of skew diagrams are always
bounded by box count and content span (default span cap: max size + 1);
without a span bound the families are infinite, since connected
components may sit arbitrarily far apart.
"""

import time
from itertools import combinations

from peribrauer.arrows import (
    is_arrow_pair,
    pi_set,
    rim_hook_of_flip,
    wb_pairs,
    weight_of_partition,
)
from peribrauer.grothendieck import verify_tl
from peribrauer.multiplicities import (
    cartan_matrix,
    cartan_mult_sum,
    cartan_mult_witness,
    prop_diff2_check,
)
from peribrauer.partitions import labels_Lambda, partitions_of, subpartitions
from peribrauer.procedures import equivalence_report, generate_upsilon
from peribrauer.skew import (
    SkewDiagram,
    components,
    covering,
    enumerate_skew_diagrams,
    hook_decompositions,
    is_gamma,
    is_gamma0,
    skew_from_pair,
)

NINE_CONNECTED = {
    SkewDiagram(((0, 2),)),
    SkewDiagram(((1, 3), (0, 2))),
    SkewDiagram(((2, 3), (0, 3))),
    SkewDiagram(((0, 3), (0, 3))),
    SkewDiagram(((2, 4), (1, 3), (0, 2))),
    SkewDiagram(((2, 4), (2, 3), (0, 3))),
    SkewDiagram(((3, 4), (1, 4), (0, 2))),
    SkewDiagram(((3, 4), (2, 4), (0, 3))),
    SkewDiagram(((3, 4), (3, 4), (0, 4))),
}


def report(name, t0, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({time.time() - t0:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_size_six_members():
    t0 = time.time()
    sets = {
        "gamma": frozenset(
            k for k in enumerate_skew_diagrams(6) if is_gamma(k)
        ),
        "plain": generate_upsilon(6, barred=False),
        "barred": generate_upsilon(6, barred=True),
    }
    ok = sets["gamma"] == sets["plain"] == sets["barred"]
    connected = {
        k for k in sets["gamma"] if not k.is_empty and len(components(k)) == 1
    }
    ok = ok and connected == NINE_CONNECTED
    ok = ok and SkewDiagram(()) in sets["gamma"]
    report(
        "criterion 1: the nine connected members of size <= 6, box-exact",
        t0, ok, f"members={len(sets['gamma'])}",
    )


def test_criterion_2_equivalence_size_ten():
    t0 = time.time()
    rep = equivalence_report(10)
    detail = (
        f"diagrams={rep.diagrams_checked} members={rep.member_count} "
        f"disagreements={len(rep.disagreements)}"
    )
    # regression values for the default universe (span cap 11)
    frozen = (rep.diagrams_checked, rep.member_count) == (144327, 892)
    report("criterion 2: three descriptions agree on all diagrams of size <= 10",
           t0, rep.ok and frozen, detail)


def test_criterion_3_flip_sets_match_membership():
    t0 = time.time()
    assert {(3,), (1,)} <= pi_set((3, 2))
    checked = 0
    bad = []
    for n in range(0, 13):
        for mu in partitions_of(n):
            pis = pi_set(mu)
            for lam in subpartitions(mu):
                checked += 1
                if (lam in pis) != is_gamma(skew_from_pair(mu, lam)):
                    bad.append((mu, lam))
    report("criterion 3: flip sets equal membership for all |mu| <= 12",
           t0, not bad, f"pairs={checked} mismatches={len(bad)}")


def test_criterion_4_arrow_pairs_match_hooks():
    t0 = time.time()
    checked = 0
    bad = []
    for n in range(0, 13):
        for mu in partitions_of(n):
            w = weight_of_partition(mu)
            for pair in wb_pairs(w):
                checked += 1
                fh = rim_hook_of_flip(mu, pair)
                cov = covering(skew_from_pair(mu, fh.partition))
                if len(cov) != 1:
                    bad.append((mu, pair, "not a single hook"))
                    continue
                h = cov[0]
                boxes = sorted(h.boxes, key=lambda b: b[1] - b[0])
                acs = [i + j for i, j in boxes]
                deltas = tuple(a - acs[0] for a in acs)
                if (
                    (h.ht, h.wd) != (fh.ht, fh.wd)
                    or deltas != fh.anticontent_deltas
                    or is_arrow_pair(w, pair) != is_gamma0(h)
                ):
                    bad.append((mu, pair, "statistics disagree"))
    report("criterion 4: every flip removes the predicted rim hook, |mu| <= 12",
           t0, not bad, f"flips={checked} mismatches={len(bad)}")


def test_criterion_5_rim_two_hooks():
    t0 = time.time()
    rep = prop_diff2_check(10)
    report("criterion 5: two-box multiplicities are horizontal dominoes only",
           t0, rep.ok, f"pairs={rep.pairs_checked}")


def test_criterion_6_vertical_domino_additions():
    t0 = time.time()
    checked = 0
    bad = []
    # a vertical domino is never a member, covering the empty base case
    vertical = SkewDiagram(((0, 1), (0, 1)))
    assert not is_gamma(vertical)
    for k in enumerate_skew_diagrams(10):
        # adding with nothing above or left can keep at most one of the
        # two diagrams a member, which is vacuous unless the base is one
        if k.is_empty or not is_gamma(k):
            continue
        occ = k.occ()
        boxes = set(k.boxes())
        rows = sorted(occ)
        cols = [c for l, r in occ.values() for c in (l, r + 1)]
        for i in range(rows[0] - 2, rows[-1] + 2):
            for j in range(min(cols) - 1, max(cols) + 2):
                pair = {(i, j), (i + 1, j)}
                if pair & boxes:
                    continue
                if any(
                    (bi < i and bj == j) or (bi in (i, i + 1) and bj < j)
                    for bi, bj in boxes
                ):
                    continue
                try:
                    k2 = SkewDiagram.from_boxes(boxes | pair)
                except ValueError:
                    continue
                checked += 1
                if is_gamma(k2):
                    bad.append((k, (i, j)))
    report("criterion 6: no admissible vertical domino keeps membership, size <= 10",
           t0, not bad, f"additions={checked}")


def test_criterion_7_operator_relations():
    t0 = time.time()
    rep = verify_tl(10, -12, 12)
    report("criterion 7: operator relations hold for r <= 10, q in [-12, 12]",
           t0, rep.ok, f"checks={rep.checks} violations={len(rep.violations)}")


def test_criterion_8_cartan_matrices():
    t0 = time.time()
    ok = True
    detail = ""
    m2 = cartan_matrix(2)
    ok = m2.entries == ((1, 0), (1, 1)) and m2.row_labels == ((2,), (1, 1))
    entries = 0
    for r in range(2, 10):
        labels = labels_Lambda(r)
        matrix = cartan_matrix(r).entries
        for a, nu in enumerate(labels):
            for b, mu in enumerate(labels):
                s = cartan_mult_sum(r, nu, mu)
                w = cartan_mult_witness(r, nu, mu)
                entries += 1
                if s != w or s not in (0, 1) or s != matrix[a][b]:
                    ok = False
                    detail = (f"entry ({nu}, {mu}) r={r}: sum={s} witness={w} "
                              f"matrix={matrix[a][b]}")
    report("criterion 8: cartan sum equals witness and matrix, 0/1 entries, r <= 9",
           t0, ok, detail or f"entries={entries}")


def test_criterion_9_covering_uniqueness():
    t0 = time.time()
    checked = 0
    bad = []
    for k in enumerate_skew_diagrams(8):
        decs = hook_decompositions(k, limit=2)
        checked += 1
        if len(decs) != 1 or decs[0] != frozenset(h.boxes for h in covering(k)):
            bad.append(k)
    report("criterion 9: unique hook decomposition equals the covering, size <= 8",
           t0, not bad, f"diagrams={checked}")
