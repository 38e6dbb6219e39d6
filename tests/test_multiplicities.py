import json

import pytest

from peribrauer import multiplicities
from peribrauer.cli import main
from peribrauer.multiplicities import (
    ConsistencyError,
    cartan_matrix,
    cartan_mult_sum,
    cartan_mult_witness,
    cell_matrix,
    cell_mult,
    matrix_csv,
    matrix_json,
    matrix_text,
)
from peribrauer.partitions import (
    add_q,
    labels_L,
    labels_Lambda,
    partitions_of,
    remove_q,
    contains,
)
from peribrauer.skew import is_gamma, skew_from_pair
from peribrauer.verify import cartan, rim_two_hooks


def test_cell_mult_r2():
    assert cell_mult(2, (), (2,)) == 1
    assert cell_mult(2, (), (1, 1)) == 0
    assert cell_mult(2, (2,), (2,)) == 1
    assert cell_mult(2, (1, 1), (1, 1)) == 1


def test_cell_mult_diagonal():
    for r in range(2, 7):
        for lam in labels_Lambda(r):
            assert cell_mult(r, lam, lam) == 1


def test_cell_mult_label_validation():
    with pytest.raises(ValueError, match=r"^\[1\] is not a cell label for r=2$"):
        cell_mult(2, (1,), (2,))  # wrong parity for r=2
    with pytest.raises(ValueError, match=r"^\[1,1\] is not a simple label for r=3$"):
        cell_mult(3, (3,), (1, 1))  # mu not a simple label for r=3
    with pytest.raises(ValueError, match=r"^\[\] is not a simple label for r=2$"):
        cell_mult(2, (2,), ())  # empty is never a simple label


def test_cell_matrix_r2():
    m = cell_matrix(2)
    assert m.row_labels == ((2,), (1, 1), ())
    assert m.col_labels == ((2,), (1, 1))
    assert m.entries == ((1, 0), (0, 1), (1, 0))


def test_cell_matrix_r3():
    m = cell_matrix(3)
    assert m.row_labels == ((3,), (2, 1), (1, 1, 1), (1,))
    by = {
        (lam, mu): m.entries[i][j]
        for i, lam in enumerate(m.row_labels)
        for j, mu in enumerate(m.col_labels)
    }
    assert by[(1,), (3,)] == 1  # horizontal domino added
    assert by[(1,), (2, 1)] == 0
    assert by[(1,), (1, 1, 1)] == 0


def test_cell_matrix_full_size_rows_are_unit():
    for r in (2, 3, 4, 5):
        m = cell_matrix(r)
        for i, lam in enumerate(m.row_labels):
            if sum(lam) == r:
                assert sum(m.entries[i]) == 1


def test_cell_matrix_vanishing_without_containment():
    for r in (4, 5):
        m = cell_matrix(r)
        for i, lam in enumerate(m.row_labels):
            for j, mu in enumerate(m.col_labels):
                if not contains(lam, mu):
                    assert m.entries[i][j] == 0


def test_r4_empty_row():
    m = cell_matrix(4)
    row = dict(zip(m.col_labels, m.entries[m.row_labels.index(())]))
    for mu in partitions_of(4):
        assert row[mu] == 0  # no four-box diagram anchored at the corner fits
    assert row[(2,)] == 1 and row[(1, 1)] == 0


def test_cell_r_stability():
    for r in range(2, 8):
        common_rows = set(labels_L(r)) & set(labels_L(r + 2))
        common_cols = set(labels_Lambda(r)) & set(labels_Lambda(r + 2))
        for lam in common_rows:
            for mu in common_cols:
                assert cell_mult(r, lam, mu) == cell_mult(r + 2, lam, mu)


def test_cartan_fixtures_r2():
    assert cartan_mult_sum(2, (1, 1), (2,)) == 1  # through the empty label
    assert cartan_mult_sum(2, (2,), (1, 1)) == 0
    assert cartan_mult_sum(2, (2,), (2,)) == 1
    assert cartan_mult_witness(2, (1, 1), (2,)) == 1
    assert cartan_mult_witness(2, (2,), (1, 1)) == 0
    m = cartan_matrix(2)
    assert m.row_labels == ((2,), (1, 1))
    assert m.entries == ((1, 0), (1, 1))


def test_cartan_diagonal_r3():
    m = cartan_matrix(3)
    assert all(m.entries[i][i] == 1 for i in range(len(m.row_labels)))


def test_cartan_label_validation():
    with pytest.raises(ValueError, match=r"^\[\] is not a simple label for r=2$"):
        cartan_mult_sum(2, (), (2,))
    with pytest.raises(ValueError, match=r"^\[2\] is not a simple label for r=3$"):
        cartan_mult_witness(3, (2,), (3,))
    with pytest.raises(ValueError, match="r_max must be >= 2, got 1"):
        cartan(1)  # no grade to check


def test_cartan_consistent_through_r7():
    for r in range(2, 8):
        m = cartan_matrix(r)
        for i, nu in enumerate(m.row_labels):
            for j, mu in enumerate(m.col_labels):
                assert m.entries[i][j] in (0, 1)
                assert m.entries[i][j] == cartan_mult_witness(r, nu, mu)


# (entries, ones) of the cell matrix and of the Cartan matrix by grade
MATRIX_COUNTS = {
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


@pytest.mark.parametrize("r", sorted(MATRIX_COUNTS))
def test_matrix_counts(r):
    cell, cart = cell_matrix(r), cartan_matrix(r)
    n = len(cart.col_labels)
    assert type(cart.entries) is tuple and len(cart.entries) == n
    for row in cart.entries:
        assert type(row) is tuple and len(row) == n
        assert all(type(x) is int for x in row), row
    got = (sum(map(len, cell.entries)), sum(map(sum, cell.entries)),
           sum(map(len, cart.entries)), sum(map(sum, cart.entries)))
    assert got == MATRIX_COUNTS[r]


@pytest.mark.parametrize("name", ["conjugate_skew", "conjugate"])
def test_cartan_gate_catches_broken_form(monkeypatch, capsys, name):
    # breaking the transpose in either form must make the two disagree
    monkeypatch.setattr(multiplicities, name, lambda x: x)
    with pytest.raises(ConsistencyError):
        cartan_matrix(2)
    assert main(["cartan-matrix", "--r", "2"]) == 1
    assert "internal consistency failure" in capsys.readouterr().err
    # verify-all reports it as a violation of the cartan check alone
    assert main(["verify-all", "--max-size", "2", "--r-max", "2"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(failed) == 2 and failed[0].startswith("cartan(")
    assert "witness: r=2 error=cartan entry" in failed[0]


@pytest.mark.parametrize("name, r, entry", [
    ("conjugate_skew", 2, "([1,1], [2]) at r=2: sum=1, witness=0"),
    ("conjugate_skew", 3, "([3], [1]) at r=3: sum=0, witness=1"),
    ("conjugate_skew", 4, "([4], [2,2]) at r=4: sum=0, witness=1"),
    ("conjugate_skew", 5, "([5], [3,2]) at r=5: sum=0, witness=1"),
    ("conjugate", 2, "([2], [2]) at r=2: sum=2, witness=1"),
    ("conjugate", 3, "([3], [3]) at r=3: sum=2, witness=1"),
    ("conjugate", 4, "([4], [4]) at r=4: sum=2, witness=1"),
    ("conjugate", 5, "([5], [5]) at r=5: sum=2, witness=1"),
])
def test_cartan_gate_names_first_bad_entry(monkeypatch, name, r, entry):
    # a broken transpose is caught by the sparse comparison, and the
    # message names the first bad entry in label order
    monkeypatch.setattr(multiplicities, name, lambda x: x)
    with pytest.raises(ConsistencyError) as exc:
        cartan_matrix(r)
    assert str(exc.value) == f"cartan entry {entry}"


def test_prop_diff2():
    rep = rim_two_hooks(8)
    assert rep.ok
    assert rep.checked > 0
    # spot values
    assert cell_mult(4, (2,), (2, 2)) == 1
    assert cell_mult(3, (1,), (1, 1, 1)) == 0
    assert cell_mult(3, (1,), (2, 1)) == 0


def test_corollary_chain_at_most_one():
    # removing a q-box and adding a (q-1)-box from the same partition give
    # labels that are never both below the same mu
    mus = [mu for n in range(0, 11) for mu in partitions_of(n)]
    for n in range(0, 10):
        for eta in partitions_of(n):
            for q in range(-10, 11):
                lam1 = remove_q(eta, q)
                lam2 = add_q(eta, q)
                if lam1 is None or lam2 is None:
                    continue
                for mu in mus:
                    first = contains(lam1, mu) and is_gamma(skew_from_pair(mu, lam1))
                    if first:
                        assert not (
                            contains(lam2, mu)
                            and is_gamma(skew_from_pair(mu, lam2))
                        ), (eta, q, mu)


def test_matrix_formats():
    m = cell_matrix(2)
    text = matrix_text(m)
    assert "[1,1]" in text
    assert text.splitlines()[1].split() == ["[2]", "1", "0"]
    csv_out = matrix_csv(m)  # labels holding commas come out quoted
    assert csv_out.splitlines()[0] == ',[2],"[1,1]"'
    assert csv_out.splitlines()[2] == '"[1,1]",0,1'
    assert csv_out.splitlines()[3] == "[],1,0"
    data = json.loads(matrix_json(m))
    assert data == {
        "r": 2,
        "rows": ["[2]", "[1,1]", "[]"],
        "cols": ["[2]", "[1,1]"],
        "entries": [[1, 0], [0, 1], [1, 0]],
    }
