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
from peribrauer.arrows import pi_set
from peribrauer.multiplicities import cartan_matrix
from peribrauer.procedures import generate_upsilon
from peribrauer.skew import (
    SkewDiagram,
    components,
    enumerate_skew_diagrams,
    is_gamma,
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
    ok = ok and connected == NINE_CONNECTED
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
          verify.equivalence(10), 144327, members=892)


def test_criterion_3_flip_sets_match_membership():
    assert {(3,), (1,)} <= pi_set((3, 2))
    check("criterion 3: flip sets equal membership for all |mu| <= 12",
          verify.flip_sets(12), 8855)


def test_criterion_4_arrow_pairs_match_hooks():
    check("criterion 4: every flip removes the predicted rim hook, |mu| <= 12",
          verify.arrow_flips(12), 2646)


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
    check("criterion 9: unique hook decomposition equals the covering, size <= 8",
          verify.covering_uniqueness(8), 13046)


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
], ids=["flip_sets", "arrow_flips", "rim_two_hooks", "vertical_dominoes", "cartan",
        "covering_uniqueness"])
def test_registry_check_catches_fault(monkeypatch, module, name, broken, check, checked,
                                      violations, first):
    # a fault patched into a function the check looks up must fail it
    mod = getattr(verify, module)
    monkeypatch.setattr(mod, name, broken(getattr(mod, name)))
    res = getattr(verify, check)(4)
    assert not res.ok
    assert (res.checked, len(res.violations)) == (checked, violations)
    assert res.violations[0] == first
