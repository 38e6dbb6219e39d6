"""The library's record types: tuple-based immutable records and the
mutable check reports."""

import copy
import pickle

import pytest

from peribrauer.arrows import WeightDiagram, weight_of_partition
from peribrauer.multiplicities import DecompositionMatrix, cell_matrix
from peribrauer.skew import (Hook, SkewDiagram, components, conjugate_skew, covering,
                             enumerate_skew_diagrams, skew_from_pair)
from peribrauer.verify import CheckResult

# each record: two equal instances built apart, one that differs, field names
RECORDS = {
    "SkewDiagram": (lambda: skew_from_pair((3, 2), (1,)),
                    lambda: SkewDiagram(((1, 3), (0, 2))),
                    SkewDiagram(((0, 3), (0, 2))), ("rows",)),
    # the walk, `from_occ`, `conjugate_skew` and `components` build their
    # diagrams without the constructor
    "SkewDiagram (walk)": (lambda: next(k for k in enumerate_skew_diagrams(4)
                                        if k.rows == ((1, 3), (0, 2))),
                           lambda: SkewDiagram(((1, 3), (0, 2))),
                           SkewDiagram(((0, 3), (0, 2))), ("rows",)),
    "SkewDiagram (from_occ)": (lambda: SkewDiagram.from_occ({6: (3, 5), 5: (4, 6)}),
                               lambda: SkewDiagram(((1, 3), (0, 2))),
                               SkewDiagram.from_occ({2: (0, 3), 3: (0, 2)}), ("rows",)),
    "SkewDiagram (conjugate_skew)": (lambda: conjugate_skew(SkewDiagram(((1, 2), (0, 2)))),
                                     lambda: SkewDiagram(((1, 2), (0, 2))),
                                     SkewDiagram(((0, 2), (0, 1))), ("rows",)),
    "SkewDiagram (components)": (lambda: components(SkewDiagram(((3, 5), (3, 4), (0, 2))))[1][0],
                                 lambda: SkewDiagram(((0, 2),)),
                                 SkewDiagram(((1, 2), (0, 1))), ("rows",)),
    "Hook": (lambda: covering(skew_from_pair((3, 2), (1,)))[0],
             lambda: Hook(1, ((1, 3), (0, 2))),
             Hook(1, ((1, 3), (1, 2))), ("top", "rows")),
    "WeightDiagram": (lambda: weight_of_partition((1,)),
                      lambda: WeightDiagram(-3, 3, frozenset({1, -1, -2, -3})),
                      WeightDiagram(-3, 3, frozenset({1, -2, -3})),
                      ("window_lo", "window_hi", "blacks")),
    "DecompositionMatrix": (lambda: cell_matrix(2),
                            lambda: DecompositionMatrix(2, ((2,), (1, 1), ()), ((2,), (1, 1)),
                                                        ((1, 0), (0, 1), (1, 0))),
                            DecompositionMatrix(3, ((2,), (1, 1), ()), ((2,), (1, 1)),
                                                ((1, 0), (0, 1), (1, 0))),
                            ("r", "row_labels", "col_labels", "entries")),
}


@pytest.fixture(params=RECORDS, ids=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_hash_is_hash_of_field_tuple(record):
    # set orders, and so the first witness a check reports, follow this hash
    make, build, other, fields = record
    for x in (make(), build(), other):
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))


def test_equality(record):
    make, build, other, _ = record
    a, b = make(), build()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_frozen(record):
    make, _, other, fields = record
    x = make()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(other, f))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == record[1]()


def test_copy_and_pickle_round_trip(record):
    make, _, other, _ = record
    for x in (make(), other):
        for y in (copy.copy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and type(y) is type(x)


def test_walk_yields_records():
    for k in enumerate_skew_diagrams(6):
        assert type(k) is SkewDiagram and k == SkewDiagram(k.rows)


def test_repr_unchanged():
    assert repr(skew_from_pair((3, 2), (1,))) == "SkewDiagram(rows=((1, 3), (0, 2)))"
    assert repr(SkewDiagram(())) == "SkewDiagram(rows=())"
    assert repr(Hook(1, ((0, 2), (0, 1)))) == "Hook(top=1, rows=((0, 2), (0, 1)))"


def test_check_results_share_no_state():
    a, b = CheckResult("a", {}), CheckResult("b", {})
    a.violations.append({"x": 1})
    a.counts["n"] = 1
    assert b.violations == [] and b.counts == {}
    assert a.violations is not b.violations and a.counts is not b.counts
    c = CheckResult("c", {"n": 2}, 3, [{"y": 2}], counts={"m": 4})
    assert (c.checked, c.violations, c.seconds, c.counts, c.ok) == (3, [{"y": 2}], 0.0, {"m": 4}, False)
