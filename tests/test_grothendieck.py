import random
from collections import Counter

import pytest

from peribrauer import grothendieck
from peribrauer.grothendieck import (
    apply_E,
    apply_Rq,
    basis_class,
    check_vector,
    verify_tl,
)
from peribrauer.partitions import labels_L


def test_action_fixtures():
    assert apply_Rq(basis_class(3, (3,)), 2) == {(2, (2,)): 1}
    assert apply_Rq(basis_class(3, (1,)), 0) == {(2, ()): 1, (2, (1, 1)): 1}
    assert apply_Rq(basis_class(2, (2,)), 1) == {}
    assert apply_Rq(basis_class(2, (1, 1)), -1) == {}
    # (2,) loses its 1-box and () gains a 0-box: both give (1,) at grade 3,
    # and opposite coefficients cancel
    assert apply_Rq(basis_class(4, (2,)), 1) == apply_Rq(basis_class(4, ()), 1) == {
        (3, (1,)): 1}
    assert apply_Rq({(4, (2,)): 1, (4, ()): -1}, 1) == {}


def test_add_term_suppressed_at_full_size():
    # (3,) has an addable box of content 3 but fills its grade
    assert apply_Rq(basis_class(3, (3,)), 4) == {}
    # one grade up the same partition keeps the term
    assert apply_Rq(basis_class(5, (3,)), 4) == {(4, (4,)): 1}


def test_apply_E_fixtures():
    assert apply_E(basis_class(4, (2,))) == {(2, (2,)): 1}
    assert apply_E(basis_class(4, (3, 1))) == {}
    assert apply_E(basis_class(3, (1,))) == {}
    assert apply_E(basis_class(6, ())) == {(4, ()): 1}


def test_grade_shifts_and_support():
    for r in range(2, 8):
        for lam in labels_L(r):
            v = basis_class(r, lam)
            for q in range(-9, 10):
                out = apply_Rq(v, q)
                check_vector(out)
                assert all(key[0] == r - 1 for key in out)
            out = apply_E(v)
            check_vector(out)
            assert all(key[0] == r - 2 for key in out)


def test_vector_arithmetic():
    with pytest.raises(ValueError):
        check_vector({(2, (1,)): 1})  # odd size at even grade
    with pytest.raises(ValueError):
        check_vector({(3, (1,)): 0})


def test_square_zero_examples():
    v = basis_class(3, (1,))
    assert apply_Rq(apply_Rq(v, 0), 0) == {}


def test_braid_example():
    v = basis_class(5, (3, 1, 1))
    lhs = apply_Rq(apply_Rq(apply_Rq(v, 2), 3), 2)
    rhs = apply_E(apply_Rq(v, 2))
    assert lhs == rhs


def test_relations_small():
    rep = verify_tl(6, -8, 8)
    assert rep.ok
    assert rep.checks == 7695


@pytest.mark.parametrize("name, broken, kinds, first", [
    # R_1 loses its added box; only the braid relations see it
    ("add_q", lambda f: lambda p, q: None if q == 1 else f(p, q),
     {"braid": 22}, ("braid", 5, (2, 1), 1, 0, {}, {(2, (1, 1)): 1})),
    # R_2 loses its removed box on partitions of two or more rows
    ("remove_q", lambda f: lambda p, q: None if q == 2 and len(p) >= 2 else f(p, q),
     {"braid": 10, "commute": 5}, ("commute", 4, (3, 1), -1, 2, {(2, (2,)): 1}, {})),
], ids=["add_q", "remove_q"])
def test_relations_catch_broken_operator(monkeypatch, name, broken, kinds, first):
    monkeypatch.setattr(grothendieck, name, broken(getattr(grothendieck, name)))
    rep = verify_tl(8, -10, 10)
    assert rep.checks == 28336
    assert Counter(v[0] for v in rep.violations) == kinds
    assert rep.violations[0] == first


def _reference_tl(r_max, q_lo, q_hi):
    """The relation loop that evaluates every instance, both sides each
    time: (checks, violations) in `verify_tl`'s order."""
    checks, violations = 0, []

    def record(relation, r, lam, q, p, lhs, rhs):
        nonlocal checks
        checks += 1
        if lhs != rhs:
            violations.append((relation, r, lam, q, p, lhs, rhs))

    qs = range(q_lo, q_hi + 1)
    table = {}

    def rx(v, x):
        out = {}
        for key, coeff in v.items():
            if key not in table:
                table[key] = tuple(tuple(grothendieck.apply_Rq({key: 1}, y).items())
                                   for y in range(q_lo - 1, q_hi + 2))
            for image, c in table[key][x - q_lo + 1]:
                out[image] = out.get(image, 0) + coeff * c
                if not out[image]:
                    del out[image]
        return out

    for r in range(2, r_max + 1):
        for lam in labels_L(r):
            v = basis_class(r, lam)
            rq = {q: rx(v, q) for q in qs}
            for q in qs:
                w = rq[q]
                record("square", r, lam, q, None, rx(w, q), {})
                for p in range(q + 2, q_hi + 1):
                    record("commute", r, lam, q, p, rx(w, p), rx(rq[p], q))
                rhs = grothendieck.apply_E(w)
                for s in (1, -1):
                    record("braid", r, lam, q, q + s, rx(rx(w, q + s), q), rhs)
    return checks, violations


@pytest.mark.parametrize("args", [(6, -8, 8), (8, -10, 10), (5, 0, 0), (7, 2, 3), (9, -20, 20)])
def test_relations_match_reference(args):
    rep = verify_tl(*args)
    assert (rep.checks, rep.violations) == _reference_tl(*args)


@pytest.mark.parametrize("name, broken", [
    ("add_q", lambda f: lambda p, q: None if q == 1 else f(p, q)),
    ("remove_q", lambda f: lambda p, q: None if q == 2 and len(p) >= 2 else f(p, q)),
    # a spurious nonzero image: R_3 keeps the partition it cannot shrink
    ("remove_q", lambda f: lambda p, q: p if q == 3 else f(p, q)),
], ids=["add_q", "remove_q", "remove_q_spurious"])
def test_relations_match_reference_under_fault(monkeypatch, name, broken):
    monkeypatch.setattr(grothendieck, name, broken(getattr(grothendieck, name)))
    rep = verify_tl(8, -10, 10)
    checks, violations = _reference_tl(8, -10, 10)
    assert violations
    assert (rep.checks, rep.violations) == (checks, violations)


def test_relations_operator_calls(monkeypatch):
    # apply_Rq once per reached class and content in q_lo - 1 .. q_hi + 1
    # (112 classes, 23 contents), so a fault reaches every relation;
    # apply_E once per nonzero R_q v
    calls = Counter()

    def counting(name):
        f = getattr(grothendieck, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("apply_Rq", "apply_E"):
        monkeypatch.setattr(grothendieck, name, counting(name))
    assert verify_tl(8, -10, 10).checks == 28336
    assert calls == {"apply_Rq": 2576, "apply_E": 248}
    calls.clear()
    # the bench's size: 523 classes, of which 1,517 images R_q v are nonzero
    assert verify_tl(12, -12, 12).checks == 183573
    assert calls == {"apply_Rq": 14121, "apply_E": 1517}


def test_relations_reject_bad_r():
    with pytest.raises(ValueError):
        verify_tl(1, 0, 1)
    with pytest.raises(ValueError, match="q range 1:0 is empty"):
        verify_tl(4, 1, 0)


def vec_add(*vectors):
    out = {}
    for v in vectors:
        for key, coeff in v.items():
            out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def vec_scale(c, v):
    return {key: c * coeff for key, coeff in v.items()} if c else {}


def random_vector(r_max, rng, terms=4):
    v = {}
    for _ in range(terms):
        r = rng.randint(2, r_max)
        v = vec_add(v, {(r, rng.choice(labels_L(r))): rng.choice([-2, -1, 1, 2, 3])})
    return v


def test_linearity_on_random_vectors():
    rng = random.Random(20240811)
    for _ in range(25):
        v = random_vector(7, rng)
        w = random_vector(7, rng)
        for q in (-2, 0, 3):
            assert apply_Rq(vec_add(v, w), q) == vec_add(
                apply_Rq(v, q), apply_Rq(w, q)
            )
            assert apply_Rq(vec_scale(3, v), q) == vec_scale(3, apply_Rq(v, q))
        assert apply_E(vec_add(v, w)) == vec_add(apply_E(v), apply_E(w))
