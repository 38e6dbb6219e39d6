"""Cell and Cartan decomposition multiplicities.

The cell multiplicity of a pair (lam, mu) is 1 exactly when lam sits
inside mu and the skew diagram mu/lam passes `is_gamma`; it does not
depend on the algebra grade r beyond validating the labels.

The size rule: lam sits inside mu only if mu has strictly more boxes
than lam or mu = lam.  The labels run size-descending (`label_sort_key`),
so those with more than n boxes are a prefix of the list and those with
at most n boxes the rest of it (`_first_at_most`).  Every scan over label
pairs here tests only the pairs the rule leaves: the matrices test, for
each cell label, the strictly larger labels and the label itself, and
the per-entry Cartan forms the cell labels with at most min(|mu|, |nu|)
boxes.  Each tested pair, the diagonal too, still runs the membership
test; no entry is assumed.

Cartan entries are computed twice, through the reciprocity sum and
through an explicit witness search, and the two must agree entrywise
with every entry 0 or 1 -- any discrepancy means the implementation is
wrong, so it raises instead of warning.  `cartan_matrix` builds both
forms from the up-sets it reads itself, one cell label at a time, not
from `cell_matrix`; it compares them sparsely, on their nonzero entries
only, scans the whole matrix just to name the first bad entry once they
differ, and writes only the nonzero entries into a matrix of zeros.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import NamedTuple

from .partitions import (
    Partition,
    conjugate,
    contains,
    format_partition,
    labels_L,
    labels_Lambda,
)
from .skew import conjugate_skew, is_gamma, skew_from_pair


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagreed."""


class DecompositionMatrix(NamedTuple):
    r: int
    row_labels: tuple[Partition, ...]
    col_labels: tuple[Partition, ...]
    entries: tuple[tuple[int, ...], ...]


def _check_label(r: int, p: Partition, kind: str) -> Partition:
    """p as a tuple, if it is a label of the grade-r algebra of the given
    kind: "cell" (`labels_L`) or "simple" (`labels_Lambda`)."""
    p = tuple(p)
    if p not in (labels_L(r) if kind == "cell" else labels_Lambda(r)):
        raise ValueError(f"{format_partition(p)} is not a {kind} label for r={r}")
    return p


def _gamma_pair(lam: Partition, mu: Partition) -> bool:
    return contains(lam, mu) and is_gamma(skew_from_pair(mu, lam))


def _first_at_most(labels: tuple[Partition, ...], n: int) -> int:
    """The index of the first of the size-descending `labels` with at most
    n boxes: the labels before it are strictly larger."""
    return bisect_left(labels, -n, key=lambda p: -sum(p))


def cell_mult(r: int, lam: Partition, mu: Partition) -> int:
    """Multiplicity of the simple labelled mu in the cell module labelled
    lam, for the grade-r algebra."""
    lam, mu = _check_label(r, lam, "cell"), _check_label(r, mu, "simple")
    return 1 if _gamma_pair(lam, mu) else 0


def cell_matrix(r: int) -> DecompositionMatrix:
    """Rows over the cell labels, columns over the simple labels, both in
    size-descending display order.  By the size rule a row lam tests only
    the columns strictly larger than lam, then lam itself when it is a
    column; each row starts as zeros and its ones are written by column
    index."""
    rows = labels_L(r)
    cols = labels_Lambda(r)
    index = {mu: j for j, mu in enumerate(cols)}
    # label size -> the number of columns strictly larger; the grade-r
    # labels have r, r - 2, ... boxes
    larger = {n: _first_at_most(cols, n) for n in range(r % 2, r + 1, 2)}
    entries = []
    for lam in rows:
        row = [0] * len(cols)
        tested = list(range(larger[sum(lam)]))
        if lam in index:
            tested.append(index[lam])
        for j in tested:
            if _gamma_pair(lam, cols[j]):
                row[j] = 1
        entries.append(tuple(row))
    return DecompositionMatrix(r, rows, cols, tuple(entries))


def cartan_mult_sum(r: int, nu: Partition, mu: Partition) -> int:
    """Projective-module multiplicity via the reciprocity sum of
    cell(lam, mu) * cell(lam', nu') over the cell labels lam with at most
    min(|mu|, |nu|) boxes, the only ones the size rule lets inside both."""
    nu, mu = _check_label(r, nu, "simple"), _check_label(r, mu, "simple")
    nu_c = conjugate(nu)
    cells = labels_L(r)
    # lam' sits inside nu' exactly when lam sits inside nu, so both
    # containments are tested before either membership test
    return sum(
        1
        for lam in cells[_first_at_most(cells, min(sum(mu), sum(nu))):]
        if contains(lam, mu)
        and contains(lam, nu)
        and is_gamma(skew_from_pair(mu, lam))
        and is_gamma(skew_from_pair(nu_c, conjugate(lam)))
    )


def cartan_mult_witness(r: int, nu: Partition, mu: Partition) -> int:
    """Same multiplicity via the witness form: 1 iff some cell label lam
    sits inside both mu and nu with mu/lam a member and the transpose of
    nu/lam a member.  By the size rule the search runs over the cell
    labels with at most min(|mu|, |nu|) boxes."""
    nu, mu = _check_label(r, nu, "simple"), _check_label(r, mu, "simple")
    cells = labels_L(r)
    for lam in cells[_first_at_most(cells, min(sum(mu), sum(nu))):]:
        if (
            contains(lam, mu)
            and contains(lam, nu)
            and is_gamma(skew_from_pair(mu, lam))
            and is_gamma(conjugate_skew(skew_from_pair(nu, lam)))
        ):
            return 1
    return 0


def cartan_matrix(r: int) -> DecompositionMatrix:
    """Cartan multiplicities over the simple labels, assembled from two
    label lists per cell label lam, read off the pairs (nu, nu/lam) for
    the nu that contain lam, one lam at a time: its up-set (nu/lam a
    member, so cell(lam, nu) = 1) and its witnesses (the transpose of
    nu/lam a member).  By the size rule the pairs are the labels nu
    strictly larger than lam that contain it, then (lam, lam) when lam
    is a label; the empty lam/lam still goes through both membership
    tests.  The sum form adds cell(lam, mu) * cell(lam', nu')
    over lam through the up-set of lam'; the witness form marks (nu, mu)
    for a witness nu and mu in the up-set.  The two must agree entrywise
    with every entry 0 or 1: every sum is 1 and the summed pairs are the
    witnessed ones.  Only when that fails does a scan over all label pairs
    run, to raise on the first bad entry in label order.  The matrix
    starts as rows of zeros and the sum form's nonzero entries are written
    into it by label index: its pairs are label pairs, nu read from the
    labels and mu from an up-set."""
    labels = labels_Lambda(r)
    index = {nu: i for i, nu in enumerate(labels)}
    # label size -> the number of labels strictly larger, as in cell_matrix
    larger = {n: _first_at_most(labels, n) for n in range(r % 2, r + 1, 2)}
    ups, wits = {}, {}
    for lam in labels_L(r):
        nus = [nu for nu in labels[:larger[sum(lam)]] if contains(lam, nu)]
        if lam in index:
            nus.append(lam)
        pairs = [(nu, skew_from_pair(nu, lam)) for nu in nus]
        ups[lam] = [nu for nu, d in pairs if is_gamma(d)]
        wits[lam] = [nu for nu, d in pairs if is_gamma(conjugate_skew(d))]
    total, witness = Counter(), set()
    for lam, up in ups.items():
        up_conj = {conjugate(x) for x in ups[conjugate(lam)]}
        total.update((nu, mu) for nu in labels if nu in up_conj for mu in up)
        witness.update((nu, mu) for nu in wits[lam] for mu in up)
    if total.keys() != witness or any(s != 1 for s in total.values()):
        for nu in labels:
            for mu in labels:
                s, w = total[nu, mu], int((nu, mu) in witness)
                if s != w or s > 1:
                    raise ConsistencyError(
                        f"cartan entry ({format_partition(nu)}, {format_partition(mu)}) "
                        f"at r={r}: sum={s}, witness={w}"
                    )
    entries = [[0] * len(labels) for _ in labels]
    for (nu, mu), s in total.items():
        entries[index[nu]][index[mu]] = s
    entries = tuple(map(tuple, entries))
    return DecompositionMatrix(r, labels, labels, entries)


# ---------------------------------------------------------------------------
# Output formats


def matrix_text(m: DecompositionMatrix) -> str:
    headers = [format_partition(p) for p in m.col_labels]
    row_names = [format_partition(p) for p in m.row_labels]
    w0 = max(len(s) for s in row_names)
    widths = [max(len(h), 1) for h in headers]
    lines = [" " * w0 + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for name, row in zip(row_names, m.entries):
        lines.append(
            name.rjust(w0) + "  "
            + "  ".join(str(x).rjust(w) for x, w in zip(row, widths))
        )
    return "\n".join(lines)


def matrix_csv(m: DecompositionMatrix) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + [format_partition(p) for p in m.col_labels])
    for lam, row in zip(m.row_labels, m.entries):
        writer.writerow([format_partition(lam)] + list(row))
    return buf.getvalue()


def matrix_json(m: DecompositionMatrix) -> str:
    import json

    return json.dumps(
        {
            "r": m.r,
            "rows": [format_partition(p) for p in m.row_labels],
            "cols": [format_partition(p) for p in m.col_labels],
            "entries": [list(row) for row in m.entries],
        }
    )
