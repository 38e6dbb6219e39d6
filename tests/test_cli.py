import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from peribrauer import procedures, skew, verify
from peribrauer.cli import main
from peribrauer.partitions import FLIP_LIMIT, INPUT_LIMIT
from peribrauer.skew import format_skew, parse_skew


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_member(capsys):
    code, out, _ = run(capsys, "gamma", "--pair", "[3,2]/[1]")
    assert code == 0
    assert "member" in out.splitlines()[1]
    assert ".##\n##." in out


def test_gamma_nonmember_diagnostics(capsys):
    code, out, _ = run(capsys, "gamma", "--pair", "[2,2]/[]")
    assert code == 0
    assert "non-member" in out
    assert "HW=fail" in out  # the outer hook has three boxes, so HW fails


def test_gamma_empty(capsys):
    code, out, _ = run(capsys, "gamma", "--pair", "[1]/[1]")
    assert code == 0
    assert "member" in out


def test_gamma_row_interval_literal(capsys):
    code, out, _ = run(capsys, "gamma", "1:1..3;2:0..2")
    assert code == 0
    assert "member" in out.splitlines()[1]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "gamma", "--pair", "[2]/[oops]")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "gamma", "--pair", "[1]/[2]")
    assert code == 2  # containment failure


def test_gamma_rejects_reversed_interval(capsys):
    code, out, err = run(capsys, "gamma", "1:5..1")
    assert code == 2
    assert "reversed interval" in err and "'1:5..1'" in err
    assert out == ""


def test_gamma_rejects_repeated_row(capsys):
    code, _, err = run(capsys, "gamma", "1:0..2;1:0..3")
    assert code == 2
    assert "row 1 given twice" in err and "'1:0..3'" in err
    code, _, _ = run(capsys, "gamma", "1:1..2;2:3..3;3:0..1")
    assert code == 0  # equal endpoints: an empty interior row


def test_gen_rejects_negative_size(capsys):
    code, out, err = run(capsys, "gen", "--max-size", "-3")
    assert code == 2
    assert "max_size" in err
    assert out == ""


def test_gen_roundtrip_and_flavors(capsys):
    outputs = {}
    for flavor in ("gamma", "upsilon", "upsilon-bar"):
        code, out, _ = run(capsys, "gen", "--max-size", "6", "--flavor", flavor)
        assert code == 0
        lines = out.splitlines()
        outputs[flavor] = lines
        for line in lines:
            assert format_skew(parse_skew(line)) == line
    assert outputs["gamma"] == outputs["upsilon"] == outputs["upsilon-bar"]
    assert len(outputs["gamma"]) == 33


def test_gen_deterministic(capsys):
    a = run(capsys, "gen", "--max-size", "4")[1]
    b = run(capsys, "gen", "--max-size", "4")[1]
    assert a == b


def test_verify_equivalence(capsys):
    code, out, _ = run(capsys, "verify-equivalence", "--max-size", "5")
    assert code == 0
    assert "violations=0" in out


def test_arrows_output(capsys):
    code, out, _ = run(capsys, "arrows", "[3,2]")
    assert code == 0
    assert "-1 -> 3" in out and "-1 -> 1" in out


def test_pi_output(capsys):
    code, out, _ = run(capsys, "pi", "[3,2]")
    assert code == 0
    assert out.splitlines() == ["[3,2]", "[3]", "[1]"]


def test_cell_matrix_json(capsys):
    code, out, _ = run(capsys, "cell-matrix", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "r": 2,
        "rows": ["[2]", "[1,1]", "[]"],
        "cols": ["[2]", "[1,1]"],
        "entries": [[1, 0], [0, 1], [1, 0]],
    }


def test_cartan_matrix_csv(capsys):
    code, out, _ = run(capsys, "cartan-matrix", "--r", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [',[2],"[1,1]"', "[2],1,0", '"[1,1]",1,1']


def test_verify_tl_negative_range(capsys):
    code, out, _ = run(capsys, "verify-tl", "--r-max", "4", "--q-range", "-6:6")
    assert code == 0
    assert "violations=0" in out


def test_verify_tl_bad_q_range(capsys):
    code, _, err = run(capsys, "verify-tl", "--r-max", "4", "--q-range", "5:x")
    assert code == 2
    assert "--q-range" in err and "LO:HI" in err


@pytest.mark.parametrize("argv, message", [
    (["verify-tl", "--r-max", "4", "--q-range", "12:-12"], "q range 12:-12 is empty"),
    (["verify-all", "--max-size", "3", "--r-max", "1"], "r_max must be >= 2, got 1"),
    (["verify-equivalence", "--max-size", "4", "--span-cap", "-2"],
     "span_cap must be >= 0, got -2"),
    (["gen", "--max-size", "4", "--span-cap", "-2"], "span_cap must be >= 0, got -2"),
    (["gen", "--max-size", "4", "--span-cap", "-2", "--flavor", "upsilon"],
     "span_cap must be >= 0, got -2"),
    (["gen", "--max-size", "-1"], "max_size must be >= 0, got -1"),
    (["gen", "--max-size", "-1", "--flavor", "upsilon"], "max_size must be >= 0, got -1"),
    (["verify-equivalence", "--max-size", "-1"], "max_size must be >= 0, got -1"),
])
def test_empty_range_is_rejected(capsys, argv, message):
    # each would otherwise pass having checked nothing, or only the empty diagram
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_verify_all_refuses_grade_before_any_check(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "equivalence", lambda *a: ran.append(a))
    code, out, err = run(capsys, "verify-all", "--max-size", "8", "--r-max", "1")
    assert code == 2
    assert "r_max must be >= 2, got 1" in err
    assert out == "" and ran == []


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-size", "5", "--r-max", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert list(data["checks"]) == list(verify.REGISTRY)
    assert data["checks"]["equivalence"]["violations"] == 0


def test_verify_all_reports_corrupted_membership(capsys, monkeypatch):
    # the hook of (3,1) passes without the diagonal condition; the other
    # checks still run.  The fault goes into the membership test the
    # equivalence check calls: a width-only test of the covering's hooks.
    monkeypatch.setattr(procedures, "is_gamma",
                        lambda k: all(skew.width_condition(h) for h in skew.covering(k)))
    code, out, _ = run(capsys, "verify-all", "--max-size", "4", "--r-max", "2")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(verify.REGISTRY) + 1
    (line,) = [line for line in lines if line.startswith("equivalence(")]
    assert "FAIL" in line and "witness: diagram=" in line
    assert lines[-1] == "overall: FAIL"
    # the selector prints the same line and fails the same way
    code, out, _ = run(capsys, "verify-equivalence", "--max-size", "4")
    assert code == 1
    assert out.splitlines()[0].split(" seconds=")[0] == line.split(" seconds=")[0]


def test_verify_all_trivially_small(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-size", "0", "--r-max", "2")
    assert code == 0
    assert "overall: pass" in out


def test_render_contents(capsys):
    code, out, _ = run(capsys, "render", "--pair", "[3,2]/[1]", "--contents")
    assert code == 0
    assert out == ".12\n90.\n"


# 961 boxes, within the input limit, but 30 arrow sources: 2^30 flip choices
SQUARE_31 = "[" + ",".join(["31"] * 31) + "]"


@pytest.mark.parametrize("argv", [
    ["gamma", "1:5..6;100000000:0..1"],  # two boxes, far apart rows
    ["gamma", "--pair", "[100000000]/[]"],  # one long row as a pair
    ["render", "1:0..100000000"],  # one long row as a literal
    ["gamma", "--pair", "[1]/[1001]"],  # the inner side of a pair
    ["arrows", "[100000]"],
    ["pi", "[1001]"],
    ["pi", SQUARE_31],
])
def test_oversized_diagram_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    if argv[1] == SQUARE_31:
        assert f"flip limit is {FLIP_LIMIT}" in err
    else:
        assert f"input limit is {INPUT_LIMIT}" in err
    assert out == ""


def test_missing_diagram_is_usage_error(capsys):
    code, _, err = run(capsys, "render")
    assert code == 2


@pytest.mark.parametrize("command", ["gamma", "render"])
def test_diagram_given_twice_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, "1:0..2", "--pair", "[3,3]/[1]")
    assert code == 2
    assert "not both" in err and "'1:0..2'" in err and "'[3,3]/[1]'" in err
    assert out == ""


def test_import_loads_no_heavy_stdlib():
    # a command runs as one short process, so what the import loads is
    # start-up time: `dataclasses` pulls in `inspect`, `ast`, `dis` and
    # `tokenize`, `csv` is needed by `--format csv` alone and `json` by
    # `--format json` alone; `argparse` (with `gettext`) by argument
    # parsing alone and the criterion registry `verify` by the `verify-*`
    # commands alone
    src = Path(__file__).resolve().parent.parent / "src"
    heavy = {"dataclasses", "inspect", "csv", "json", "argparse", "gettext", "peribrauer.verify"}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, peribrauer.cli; "
         f"print(*sorted({heavy!r} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
