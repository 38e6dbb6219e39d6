"""Acceptance suite: one test per criterion, exact tolerances throughout,
and every registry check at small sizes.

Run with `pytest tests/test_acceptance.py -v -s` to see one timed
pass/fail line per criterion.  Criteria 2-9 run the checks of
`peribrauer.verify` at pinned sizes and assert their exact counts;
criterion 1 and the r = 2 Cartan matrix are frozen data.  Universes of
skew diagrams are always bounded by box count and content span (default
span cap: max size + 1); without a span bound the families are infinite,
since connected components may sit arbitrarily far apart.
"""

import time

import pytest

from peribrauer import verify
from peribrauer.arrows import pi_set, rim_hook_of_flip, wb_pairs, weight_of_partition
from peribrauer.multiplicities import cartan_matrix
from peribrauer.partitions import partitions_of
from peribrauer.procedures import generate_upsilon
from peribrauer.skew import (
    SkewDiagram,
    components,
    covering,
    enumerate_skew_diagrams,
    is_gamma,
    skew_from_pair,
)

from test_skew import NINE


def report(name, seconds, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name} ({seconds:.1f}s) {detail}")
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
    ok = ok and connected == NINE
    ok = ok and SkewDiagram(()) in sets["gamma"]
    report(
        "criterion 1: the nine connected members of size <= 6, box-exact",
        time.time() - t0, ok, f"members={len(sets['gamma'])}",
    )


def check(title, res, checked, **counts):
    """Report one registry check, requiring it to pass with exactly the
    pinned counts."""
    ok = res.ok and res.checked == checked and counts.items() <= res.counts.items()
    report(title, res.seconds, ok, " ".join(
        [f"checked={res.checked}"] + [f"{k}={v}" for k, v in res.counts.items()]
        + [f"witness={w}" for w in res.violations[:1]]))


def test_criterion_2_equivalence_size_ten():
    # regression values for the default universe (span cap 11)
    check("criterion 2: three descriptions agree on all diagrams of size <= 10",
          verify.equivalence(10), 144327, members=892,
          connected_nonzero=86)


def test_criterion_3_flip_sets_match_membership():
    assert {(3,), (1,)} <= pi_set((3, 2))
    check("criterion 3: flip sets equal membership for all |mu| <= 12",
          verify.flip_sets(12), 8855)


def test_criterion_4_arrow_pairs_match_hooks():
    check("criterion 4: every flip removes the predicted rim hook, |mu| <= 12",
          verify.arrow_flips(12), 2646)


def test_criterion_4_deltas_read_off_rows():
    # the anticontent profile read off the rows equals the one from the
    # boxes sorted by content, on every flip hook of |mu| <= 15
    hooks = 0
    for n in range(16):
        for mu in partitions_of(n):
            for pair in wb_pairs(weight_of_partition(mu)):
                (h,) = covering(skew_from_pair(mu, rim_hook_of_flip(mu, pair).partition))
                acs = [i + j for i, j in sorted(h.boxes, key=lambda b: b[1] - b[0])]
                assert verify._anticontent_deltas(h) == tuple(a - acs[0] for a in acs), h
                hooks += 1
    assert hooks == 8489


def test_criterion_5_rim_two_hooks():
    check("criterion 5: two-box multiplicities are horizontal dominoes only",
          verify.rim_two_hooks(10), 972)


def test_criterion_6_vertical_domino_additions():
    check("criterion 6: no admissible vertical domino keeps membership, size <= 10",
          verify.vertical_dominoes(10), 6485)


def test_criterion_7_operator_relations():
    check("criterion 7: operator relations hold for r <= 10, q in [-12, 12]",
          verify.tl_relations(10, -12, 12), 88101)


def test_criterion_8_cartan_matrices():
    m2 = cartan_matrix(2)
    assert m2.entries == ((1, 0), (1, 1)) and m2.row_labels == ((2,), (1, 1))
    check("criterion 8: cartan sum equals witness and matrix, 0/1 entries, r <= 9",
          verify.cartan(9), 5926)


def test_criterion_9_covering_uniqueness():
    check("criterion 9: unique hook decomposition equals the covering, size <= 10",
          verify.covering_uniqueness(10), 144327, connected=2271)


def _connected(boxes: frozenset) -> bool:
    """Whether the nonempty box set is edge-connected, by a flood fill."""
    left, todo = set(boxes), [next(iter(boxes))]
    while todo:
        i, j = box = todo.pop()
        if box in left:
            left.remove(box)
            todo += (i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)
    return not left


def test_criterion_9_connected_split():
    # the flood fill agrees with the components, and the connected
    # diagrams by size are the parallelogram polyominoes (OEIS A006958),
    # which are the ones criterion 9 counts as connected
    by_size = [0] * 9
    for k in enumerate_skew_diagrams(8):
        if not k.is_empty:
            connected = _connected(k.boxes())
            assert connected == (len(components(k)) == 1), k
            by_size[k.size] += connected
    assert by_size[1:] == [1, 2, 4, 9, 20, 46, 105, 242]
    assert verify.covering_uniqueness(8).counts["connected"] == sum(by_size) == 429


@pytest.mark.parametrize("name", list(verify.REGISTRY))
def test_registry_checks_pass_small(name):
    res = verify.REGISTRY[name](5, 4)
    assert res.name == name and res.ok and res.checked > 0, res.violations[:1]


def test_negative_sizes_refused():
    for check in (verify.flip_sets, verify.arrow_flips, verify.rim_two_hooks):
        with pytest.raises(ValueError, match="max_size must be >= 0, got -1"):
            check(-1)


@pytest.mark.parametrize("module, name, broken, check, checked, violations, first", [
    # every flip set loses even the partition itself
    ("arrows", "pi_set", lambda f: lambda mu: frozenset(),
     "flip_sets", 52, 17, {"mu": "[]", "lam": "[]"}),
    # every predicted hook is one row too tall
    ("arrows", "rim_hook_of_flip",
     lambda f: lambda mu, pair: (h := f(mu, pair))._replace(ht=h.ht + 1),
     "arrow_flips", 34, 34, {"mu": "[1]", "pair": "0->1", "reason": "statistics disagree"}),
    ("skew", "is_gamma", lambda f: lambda k: True,
     "rim_two_hooks", 51, 34, {"lam": "[]", "mu": "[1,1]"}),
    # the first witness comes from a placement on a member, not the empty base
    ("skew", "is_gamma", lambda f: lambda k: k.size == 4 or f(k),
     "vertical_dominoes", 353, 9, {"diagram": "1:0..2", "domino": "(-1,2),(0,2)"}),
    ("multiplicities", "cartan_mult_witness", lambda f: lambda r, nu, mu: 0,
     "cartan", 69, 28, {"r": 2, "nu": "[2]", "mu": "[2]", "sum": 1, "witness": 0, "matrix": 1}),
    ("skew", "covering", lambda f: lambda k: (),
     "covering_uniqueness", 98, 97, {"diagram": "1:0..1", "decompositions": 1}),
    # the search finds every connected diagram's decomposition twice
    ("skew", "hook_decompositions", lambda f: lambda k: f(k) * 2,
     "covering_uniqueness", 98, 16, {"diagram": "1:0..1", "decompositions": 2}),
    # a disconnected diagram loses its first hook, which only the
    # decomposition check sees, since no search runs on it
    ("skew", "covering", lambda f: lambda k: f(k)[len(components(k)) > 1:],
     "covering_uniqueness", 98, 81,
     {"diagram": "1:1..2;2:1..2;3:1..2;4:0..1", "decompositions": 1}),
    # every occupied row is its own component, so a split that is too
    # fine cannot hide a covering hook that crosses rows
    ("skew", "_pieces", lambda f: lambda rows: [[i] for i, (l, r) in enumerate(rows) if l < r],
     "covering_uniqueness", 98, 54, {"diagram": "1:0..1;2:0..1", "decompositions": 1}),
    # the closures lose every first box in an empty row more than one row
    # from the diagram, so two dominoes one empty row apart are not reached
    ("procedures", "_addable_table",
     lambda f: lambda occ, lo, hi, down: {
         c: [b for b in boxes if not occ or min(abs(b[0] - a) for a in occ) < 2]
         for c, boxes in f(occ, lo, hi, down).items()},
     "equivalence", 98, 1,
     {"diagram": "1:2..4;2:2..2;3:0..2", "covering": True, "plain": False, "barred": False}),
], ids=["flip_sets", "arrow_flips", "rim_two_hooks", "vertical_dominoes", "cartan",
        "covering_uniqueness", "covering_uniqueness_search",
        "covering_uniqueness_disconnected", "covering_uniqueness_split", "equivalence"])
def test_registry_check_catches_fault(monkeypatch, module, name, broken, check, checked,
                                      violations, first):
    # a fault patched into a function the check looks up must fail it
    mod = getattr(verify, module)
    monkeypatch.setattr(mod, name, broken(getattr(mod, name)))
    res = getattr(verify, check)(4)
    assert not res.ok
    assert (res.checked, len(res.violations)) == (checked, violations)
    assert res.violations[0] == first
