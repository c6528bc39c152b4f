"""Command-line surface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ladderdet.cli import EXIT_BROKEN_PIPE, main

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ladderdet" / "fixtures"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


def test_ladder_validate_staircase10(capsys):
    code, out = run_cli("ladder", "validate", str(FIXTURES / "staircase10.json"), capsys=capsys)
    assert code == 0
    assert "u=3 v=4" in out


def test_ladder_validate_prints_failures_and_notes(capsys, tmp_path):
    # L_1 has no room for t_1, and its lower corner (1, 1) is no cell.  u and
    # v are printed once, on the report's first line.
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({"shape": [3, 3], "upper": [[2, 3]], "lower": [[1, 1], [3, 2]],
                                "t": [1, 1]}))
    code, out = run_cli("ladder", "validate", str(path), capsys=capsys)
    assert code == 1
    assert out.splitlines() == [
        "valid=no u=1 v=2",
        "  (1) pass: all entries meet a generating minor",
        "  (2) FAIL: corner cell missing from ladder",
        "  (3) FAIL: no t_j-minor fits in L_j for j=[1]",
        "  (4) FAIL: a border row or column of the grid is empty",
        "  note: some listed corner is not a cell of the ladder",
    ]


def test_ladder_show_and_chamfer(capsys):
    code, out = run_cli("ladder", "show", str(FIXTURES / "full3x3.json"), capsys=capsys)
    assert code == 0 and "###" in out

    code, out = run_cli("ladder", "chamfer", str(FIXTURES / "full3x3.json"),
                        "--t", "2", "--j", "1", capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["lower"] == [[2, 2]] and obj["t"] == [1]


def test_ladder_reduce_staircase10(capsys):
    code, out = run_cli("ladder", "reduce", str(FIXTURES / "staircase10.json"), capsys=capsys)
    assert code == 0 and "replay_ok=True" in out


def test_ideal_commands(capsys):
    f22 = str(FIXTURES / "full2x2.json")
    code, out = run_cli("ideal", "gb", f22, "--t", "2", capsys=capsys)
    assert code == 0 and out.strip() == "x[1,2]*x[2,1] - x[1,1]*x[2,2]"

    code, out = run_cli("ideal", "member", f22, "--t", "2",
                        "--poly", "x[1,1]*x[2,2] - x[1,2]*x[2,1]", capsys=capsys)
    assert code == 0

    code, out = run_cli("ideal", "member", f22, "--t", "2", "--poly", "x[1,1]", capsys=capsys)
    assert code == 1

    # A polynomial over more variables than the ring: membership in the
    # extended ideal, with the ring's basis moved into the joint packing.
    code, out = run_cli("ideal", "member", f22, "--t", "2",
                        "--poly", "x[9,9]*x[1,1]*x[2,2] - x[9,9]*x[1,2]*x[2,1]", capsys=capsys)
    assert code == 0
    code, out = run_cli("ideal", "member", f22, "--t", "2", "--poly", "x[9,9]*x[1,1]",
                        capsys=capsys)
    assert code == 1

    code, out = run_cli("ideal", "eq", f22, f22, "--t", "2", "--t2", "2", capsys=capsys)
    assert code == 0

    code, out = run_cli("ideal", "initial", str(FIXTURES / "full3x3.json"), "--t", "2",
                        capsys=capsys)
    assert code == 0 and "squarefree=True" in out


def test_ideal_intersect_matches_worked_identity(capsys, tmp_path):
    f23 = str(FIXTURES / "full2x3.json")
    band = tmp_path / "band.json"
    band.write_text(json.dumps({
        "shape": [2, 3],
        "gens": ["x[1,2]", "x[2,2]"],
    }))
    code, out = run_cli("ideal", "intersect", f23, str(band), "--t", "2", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "x[1,2]*x[2,1] - x[1,1]*x[2,2]",
        "x[1,3]*x[2,2] - x[1,2]*x[2,3]",
    ]


def test_witness_commands(capsys):
    f33 = str(FIXTURES / "full3x3.json")
    code, out = run_cli("witness", "certificate", "--ladder", f33, "--t", "2", capsys=capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["h"] == 4 and cert["counts"] == [1, 2, 1]

    code, out = run_cli("witness", "f", "--ladder", str(FIXTURES / "full2x2.json"),
                        "--t", "2", capsys=capsys)
    assert code == 0 and out.strip() == "-x[1,2]*x[2,1] + x[1,1]*x[2,2]"

    code, out = run_cli("witness", "g", "--ladder", f33, "--t", "2", capsys=capsys)
    assert code == 0 and "x[3,1]" not in out


def test_fedder_command(capsys):
    code, out = run_cli("fedder", "--ladder", str(FIXTURES / "full3x3.json"), "--t", "2",
                        "--p", "2", capsys=capsys)
    assert code == 0 and "f_pure=True" in out


@pytest.mark.parametrize("field,code,named", [
    (None, 0, ""), ("fp:2", 0, ""), ("fp:5", 2, "fp:5 names another prime"),
    ("q", 2, "q names the rationals")])
def test_fedder_refuses_a_field_of_another_prime(field, code, named, capsys):
    fedder = ["fedder", "--ladder", str(FIXTURES / "full3x3.json"), "--t", "2", "--p", "2"]
    assert main([*([] if field is None else ["--field", field]), *fedder]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == f"error: fedder runs over GF(2) from --p; --field {named}\n"
    else:
        assert captured.out == "f_pure=True\n"


def test_symbolic_commands(capsys):
    code, out = run_cli("symbolic", "degree", "--minors", "123|123 12|12", "--t", "2",
                        capsys=capsys)
    assert code == 0 and "degree=3" in out

    code, out = run_cli(
        "--field", "fp:5", "--timeout", "300", "symbolic", "compare",
        "--ladder", str(FIXTURES / "full2x3.json"), "--t", "2", "--n", "2", capsys=capsys)
    assert code == 0 and "equal=True" in out


def test_symbolic_compare_t1(capsys):
    # For t = 1 the ideal is generated by variables, so I^(n) = I^n.
    code, out = run_cli("--format", "json", "symbolic", "compare",
                        "--ladder", str(FIXTURES / "full2x2.json"), "--t", "1", "--n", "2",
                        capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"equal": True, "witness": None}


def test_knutson_commands(capsys, tmp_path):
    out_file = tmp_path / "deriv.json"
    code, _ = run_cli("knutson", "derive", "--ladder", str(FIXTURES / "full2x3.json"),
                      "--t", "2", "--out", str(out_file), capsys=capsys)
    assert code == 0 and out_file.exists()

    code, out = run_cli("knutson", "verify", str(out_file), capsys=capsys)
    assert code == 0 and "verified=yes" in out

    code, out = run_cli("knutson", "derive", "--corner", "3,3,2,2,2", "--verify", capsys=capsys)
    assert code == 0


def test_json_knutson_derive_prints_one_document(capsys, tmp_path):
    # The derivation's keys, or "wrote", then those of `knutson verify`.
    code, out = run_cli("--format", "json", "knutson", "derive", "--corner", "3,3,2,2,2",
                        capsys=capsys)
    assert code == 0
    derivation = json.loads(out)
    code, out = run_cli("--format", "json", "knutson", "derive", "--corner", "3,3,2,2,2",
                        "--verify", capsys=capsys)
    assert code == 0
    verified = json.loads(out)
    out_file = tmp_path / "deriv.json"
    out_file.write_text(json.dumps(derivation))
    code, out = run_cli("--format", "json", "knutson", "verify", str(out_file), capsys=capsys)
    assert code == 0
    assert verified == {**derivation, **json.loads(out)}
    assert verified["verified"] is True and verified["checks"]
    code, out = run_cli("--format", "json", "knutson", "derive", "--corner", "3,3,2,2,2",
                        "--out", str(out_file), "--verify", capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"wrote": str(out_file), "verified": True,
                               "checks": verified["checks"]}
    assert json.loads(out_file.read_text()) == derivation


def test_knutson_derive_out_to_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "d.json"
    code = main(["knutson", "derive", "--corner", "3,3,2,2,2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and not target.exists()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_schubert_and_poset_commands(capsys, tmp_path):
    perm = tmp_path / "w.json"
    perm.write_text(json.dumps({"shape": [3, 3], "ones": [[1, 2], [2, 1]]}))
    code, out = run_cli("schubert", "--perm", str(perm), "--gb", capsys=capsys)
    assert code == 0 and "squarefree=True" in out
    code, out = run_cli("--format", "json", "schubert", "--perm", str(perm), "--gb",
                        capsys=capsys)
    assert code == 0 and json.loads(out)["squarefree"] is True

    code, out = run_cli("poset", "--shape", "3,3", "--delta", "12|12", "--check", capsys=capsys)
    assert code == 0 and "formula_matches_bruteforce=True" in out


def _run_with_err(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbolic_degree_takes_exactly_one_size(capsys):
    code, out, err = _run_with_err(["symbolic", "degree", "--minors", "12|12 123|123",
                                    "--t", "2", "3"], capsys)
    assert code == 2 and out == "" and "one size --t" in err


@pytest.mark.parametrize("argv,flag", [
    (["poset", "--shape", "2", "--delta", "1|1"], "--shape"),
    (["poset", "--shape", "2,x", "--delta", "1|1"], "--shape"),
    (["knutson", "derive", "--corner", "4,4,x,3,3"], "--corner"),
    (["knutson", "derive", "--corner", "4,4,2,3"], "--corner"),
], ids=["shape-one-value", "shape-not-int", "corner-not-int", "corner-four-values"])
def test_malformed_shape_or_corner_exits_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not " in err and "Traceback" not in err


# One request per command that needs minor sizes, on a ladder file without them.
_SIZED_REQUESTS = {
    "ladder-chamfer": ["ladder", "chamfer", "{ladder}"],
    "ladder-reduce": ["ladder", "reduce", "{ladder}"],
    "ideal-gb": ["ideal", "gb", "{ladder}"],
    **{f"witness-{action}": ["witness", action, "--ladder", "{ladder}"]
       for action in ("f", "g", "certificate")},
    "fedder": ["fedder", "--ladder", "{ladder}"],
    **{f"symbolic-{action}": ["symbolic", action, "--ladder", "{ladder}"]
       for action in ("power", "compare")},
    "knutson-derive": ["knutson", "derive", "--ladder", "{ladder}"],
}


@pytest.mark.parametrize("argv", list(_SIZED_REQUESTS.values()), ids=list(_SIZED_REQUESTS))
def test_commands_that_need_sizes_refuse_a_ladder_without_them(argv, capsys):
    ladder = str(FIXTURES / "full3x3.json")
    code, out, err = _run_with_err([a.replace("{ladder}", ladder) for a in argv], capsys)
    assert code == 2 and out == "" and "needs minor sizes (file t field or --t)" in err


@pytest.mark.parametrize("argv", [
    ["symbolic", "power", "--ladder", str(FIXTURES / "staircase_sub4x4.json"), "--t", "1", "2"],
    ["symbolic", "compare", "--ladder", str(FIXTURES / "staircase_sub4x4.json"), "--t", "1", "2"],
    ["knutson", "derive", "--ladder", str(FIXTURES / "staircase_sub4x4.json"), "--t", "1", "2"],
], ids=["symbolic-power", "symbolic-compare", "knutson-derive"])
def test_unmixed_only_commands_refuse_mixed_sizes(argv, capsys):
    code, out, err = _run_with_err(argv, capsys)
    assert code == 2 and out == "" and "unmixed" in err


def test_symbolic_power_without_a_ladder_exits_2(capsys):
    code, out, err = _run_with_err(["symbolic", "power", "--t", "2"], capsys)
    assert (code, out, err) == (2, "", "error: symbolic power needs --ladder\n")


_F22 = str(FIXTURES / "full2x2.json")


_EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ["ladder", "validate", _F22, "--t", "2"],
    ["ideal", "gb", _F22, "--t", "2"],
    ["witness", "certificate", "--ladder", _F22, "--t", "2"],
    ["fedder", "--ladder", _F22, "--t", "2"],
    ["symbolic", "degree", "--minors", "12|12", "--t", "2"],
    ["knutson", "verify", _F22],
    ["schubert", "--perm", _F22],
    ["poset", "--shape", "2,2", "--delta", "1|1"],
    ["accept", "run", "poset-schubert"],
], ids=lambda argv: argv[0])


@_EVERY_COMMAND
@pytest.mark.parametrize("flags,message", [
    (["--field", "fp:4"], "modulus is not prime: 4"),
], ids=["field"])
def test_field_is_checked_for_every_command(argv, flags, message, capsys):
    assert _run_with_err([*flags, *argv], capsys) == (2, "", f"error: {message}\n")


@_EVERY_COMMAND
def test_the_removed_order_flag_is_a_usage_error(argv, capsys):
    # There is one term order, so --order is no option: argparse refuses
    # it with its usage message and status 2, before any command runs, and
    # names the option rather than taking its value for the command.
    with pytest.raises(SystemExit) as exc:
        main(["--order", "grevlex", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: ladderdet ")
    assert captured.err.endswith("ladderdet: error: unrecognized arguments: --order\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--order=grevlex"], "unrecognized arguments: --order=grevlex"),
    (["--f", "json"], "ambiguous option: --f could match --field, --format"),
    (["--timeout", "0"], "argument --timeout: not a positive number of seconds: '0'"),
], ids=["joined-value", "ambiguous", "bad-value"])
def test_bad_options_before_the_command_keep_argparse_messages(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*flags, "ladder", "validate", str(FIXTURES / "full2x2.json")])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: ladderdet [-h] ")
    assert captured.err.endswith(f"ladderdet: error: {message}\n")


def test_options_before_the_command_take_abbreviations(capsys):
    code, out = run_cli("--form", "json", "--fi", "fp:5", "ideal", "gb",
                        str(FIXTURES / "full2x2.json"), "--t", "2", capsys=capsys)
    assert code == 0 and json.loads(out) == {"basis": ["x[1,2]*x[2,1] + 4*x[1,1]*x[2,2]"]}


@pytest.mark.parametrize("argv", [
    ["poset", "--shape", "2,2", "--delta", "3|3"],
    ["poset", "--shape", "2,2", "--delta", "3|3", "--check"],
    ["poset", "--shape", "0,0", "--delta", "1|1"],
    ["symbolic", "degree", "--minors", "12|12", "--t", "0"],
    ["symbolic", "degree", "--minors", "12|12", "--t", "-3"],
], ids=["delta-outside", "delta-outside-check", "empty-grid", "t-zero", "t-negative"])
def test_unusable_grid_or_minor_size_exits_2(argv, capsys):
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 2 and out == ""


def test_accept_single_criterion(capsys):
    code, out = run_cli("accept", "run", "chamfer-descent", capsys=capsys)
    assert code == 0
    assert "[PASS] chamfer-descent" in out


def test_accept_verbose_prints_each_checked_line(capsys):
    code, out = run_cli("accept", "run", "fedder", "--verbose", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS] fedder: ")
    assert lines[1:] == ["    (det X2x2): True", "    I2(X3x3): True",
                         "    I2(4x4 sub-ladder): True", "1/1 criteria pass"]


def test_accept_reports_failed_chamfer_descent(capsys):
    # Seed 200031 draws a ladder on which the greedy descent finds no legal
    # unchamfer: the criterion fails and names the ladder instead of aborting.
    code, out = run_cli("--seed", "200031", "--format", "json", "accept", "run",
                        "chamfer-descent", capsys=capsys)
    assert code == 1
    (result,) = json.loads(out)
    assert result["passed"] is False
    assert ('no descent from {"shape": [7, 8], "upper": [[1, 3], [3, 8]], '
            '"lower": [[2, 1], [5, 5], [7, 6]], "t": [2, 3, 3]}') in result["details"][0]


def test_exit_codes_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("ladder", "validate", str(bad), capsys=capsys)
    assert code == 2

    missing = tmp_path / "missing.json"
    code, _ = run_cli("ladder", "validate", str(missing), capsys=capsys)
    assert code == 2


# Nesting deep enough that json.loads raises RecursionError.
_DEEP_LIST = "[" * 3000 + "]" * 3000
_DEEP_SUM = ('{"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"], "root": '
             + '{"kind": "sum", "children": [' * 600 + '{"kind": "leaf", "factor": "x[1,1]"}'
             + "]}" * 600 + "}")


@pytest.mark.parametrize("argv,content", [
    (["knutson", "verify"],
     {"cells": 5, "field": "q", "f_factors": [], "root": {"kind": "leaf", "factor": "1"}}),
    (["poset", "--shape", "2,2", "--spec"], {"explicit": [5]}),
    (["ideal", "gb"], 5),
    (["fedder", "--ladder"],
     {"shape": [4, 4], "upper": [[1, 4]], "lower": [[2, 1], [4, 2]], "t": [2, "x"]}),
    (["ideal", "gb"],
     {"shape": [10, 10], "upper": [[1, 2], [4, 8], [8, 10]],
      "lower": [[3, 1], [6, 1], [8, 6], [10, 8]], "t": [2, 3]}),
    (["ideal", "gb"], {"shape": [2, 2], "gens": [5]}),
    (["ideal", "gb"], {"cells": [[1, 1.5], [1, 1]], "gens": ["x[1,1]"]}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": [5], "root": {"kind": "leaf", "factor": "x[1,1]"}}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"],
      "root": {"kind": "min_prime", "child": {"kind": "leaf", "factor": "x[1,1]"}, "claimed": [5]}}),
    (["poset", "--shape", "2,2", "--spec"], {"cogenerators": [{"rows": [1.5], "cols": [1]}]}),
    (["knutson", "verify"], _DEEP_SUM),
    (["ladder", "validate"], _DEEP_LIST),
    (["ideal", "gb"], _DEEP_LIST),
    (["poset", "--shape", "2,2", "--spec"], _DEEP_LIST),
    (["schubert", "--perm"], _DEEP_LIST),
    (["poset", "--shape", "2,2", "--spec"], {"cogenerators": [{"rows": [5], "cols": [5]}]}),
    (["ideal", "member", "--poly=1/0*x[1,1]"],
     {"shape": [3, 3], "upper": [[1, 3]], "lower": [[3, 1]], "t": [2]}),
    (["--field", "fp:7", "ideal", "gb"], {"shape": [2, 2], "gens": ["1/7*x[1,1]"]}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"],
      "root": {"kind": "intersect", "children": []}}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"],
      "root": {"kind": "min_prime", "child": {"kind": "leaf", "factor": "x[1,1]"},
               "claimed": ["x[1,1]"], "identity": {"kind": "bogus"}}}),
    (["ideal", "gb"], {"shape": [0, 2], "gens": ["1"]}),
    (["ideal", "gb"], {"shape": [2, -1], "gens": ["1"]}),
    (["ideal", "gb"], {"cells": [], "gens": ["1"]}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"],
      "root": {"kind": "sum", "children": []}}),
    (["knutson", "verify"],
     {"field": "q", "cells": [[1, 1]], "f_factors": ["1"], "root": {"kind": "leaf", "factor": "1"}}),
    (["ideal", "gb"], {"shape": [2, 2], "gens": ["x[1,1]**2"]}),
    (["ideal", "member", "--poly=x[1,1]*-x[2,2]"],
     {"shape": [3, 3], "upper": [[1, 3]], "lower": [[3, 1]], "t": [2]}),
    (["knutson", "verify"],
     {"cells": [[1, 1]], "field": "q", "f_factors": ["x[1,1]"],
      "root": {"kind": "min_prime", "child": {"kind": "leaf", "factor": "x[1,1]"},
               "claimed": ["x[1,1] x[1,1]"]}}),
], ids=["knutson-verify", "poset-spec", "ideal-gb", "fedder-bad-t-entry", "ideal-gb-short-t",
        "ideal-gb-int-gen", "ideal-gb-float-cell", "knutson-verify-int-factor",
        "knutson-verify-int-claimed", "poset-spec-float-index", "knutson-verify-deep-sum",
        "ladder-validate-deep", "ideal-gb-deep", "poset-spec-deep", "schubert-deep",
        "poset-spec-outside-grid", "ideal-member-zero-denominator",
        "ideal-gb-denominator-divisible-by-p", "knutson-verify-empty-intersect",
        "knutson-verify-unknown-identity", "ideal-gb-empty-rows", "ideal-gb-negative-cols",
        "ideal-gb-no-cells", "knutson-verify-empty-sum", "knutson-verify-constant-factor",
        "ideal-gb-double-star", "ideal-member-signed-factor", "knutson-verify-juxtaposed-claim"])
def test_malformed_loader_input_exits_2(argv, content, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    proc = subprocess.run([sys.executable, "-m", "ladderdet.cli", *argv, str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_falsified_identity_exit_code(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"shape": [2, 2], "gens": ["x[1,1]"]}))
    b.write_text(json.dumps({"shape": [2, 2], "gens": ["x[2,2]"]}))
    code, out = run_cli("ideal", "eq", str(a), str(b), capsys=capsys)
    assert code == 1 and "equal=False" in out


def test_json_format_deterministic(capsys):
    f33 = str(FIXTURES / "full3x3.json")
    code, out1 = run_cli("--format", "json", "witness", "certificate",
                         "--ladder", f33, "--t", "2", capsys=capsys)
    code2, out2 = run_cli("--format", "json", "witness", "certificate",
                          "--ladder", f33, "--t", "2", capsys=capsys)
    assert code == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["h"] == 4


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "ladderdet.cli", "ladder", "validate",
         str(FIXTURES / "full2x2.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "u=1 v=1" in proc.stdout


def _derive_into_closed_pipe(tmp_path, unbuffered, lines_read):
    """Runs `knutson derive --verify` with stdout a pipe that the reader
    closes after `lines_read` lines, like `| head -1`; returns the exit
    status and stderr."""
    env = {**os.environ, "PYTHONUNBUFFERED": "1" if unbuffered else ""}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ladderdet", "knutson", "derive", "--corner", "4,4,2,3,3",
         "--out", str(tmp_path / "d.json"), "--verify"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"wrote ")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(), stderr


def test_closed_pipe_after_one_line_exits_quietly(tmp_path):
    # Unbuffered, the first line arrives before the report is written; the
    # report then meets the closed pipe unless it was written first.
    code, stderr = _derive_into_closed_pipe(tmp_path, unbuffered=True, lines_read=1)
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    assert code in (0, EXIT_BROKEN_PIPE)


def test_closed_pipe_before_the_flush_exits_141(tmp_path):
    # Buffered, nothing is written until `main` flushes, which meets the
    # pipe already closed.
    code, stderr = _derive_into_closed_pipe(tmp_path, unbuffered=False, lines_read=0)
    assert (code, stderr) == (EXIT_BROKEN_PIPE, "")


def test_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "ladderdet", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ladderdet")


def test_poset_spec_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cogenerators": [{"rows": [1], "cols": [1]}]}))
    code, out = run_cli("poset", "--shape", "2,2", "--spec", str(spec), capsys=capsys)
    assert code == 0
    assert out.strip() == "x[1,2]*x[2,1] - x[1,1]*x[2,2]"


def test_ideal_sum_colon_saturate(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"shape": [2, 2], "gens": ["x[1,1]^2"]}))
    b.write_text(json.dumps({"shape": [2, 2], "gens": ["x[1,1]"]}))

    code, out = run_cli("ideal", "colon", str(a), str(b), capsys=capsys)
    assert code == 0 and out.strip() == "x[1,1]"

    code, out = run_cli("ideal", "saturate", str(a), str(b), capsys=capsys)
    assert code == 0 and "exponent=2" in out and "1" in out.splitlines()[0]

    code, out = run_cli("ideal", "sum", str(a), str(b), capsys=capsys)
    assert code == 0 and out.strip() == "x[1,1]"

    code, _ = run_cli("ideal", "colon", str(a), capsys=capsys)
    assert code == 2  # missing second ideal


def test_binary_ideal_command_moves_the_second_ideal_into_the_first_ring(capsys, tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps({"shape": [2, 3], "gens": ["x[1,1]*x[2,2] - x[1,2]*x[2,1]",
                                                       "x[1,2]*x[2,3] - x[1,3]*x[2,2]"]}))
    # Over the 2x2 grid, whose cells all lie in the 2x3 one.
    b.write_text(json.dumps({"shape": [2, 2], "gens": ["x[1,1]", "x[2,2]"]}))
    code, out = run_cli("ideal", "sum", str(a), str(b), capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["x[2,2]", "x[1,1]", "x[1,2]*x[2,1]", "x[1,2]*x[2,3]"]
    # Over the 3x3 grid, with a variable the first ring lacks.
    c.write_text(json.dumps({"shape": [3, 3], "gens": ["x[3,3]"]}))
    code, out, err = _run_with_err(["ideal", "sum", str(a), str(c)], capsys)
    assert code == 2 and out == "" and err == "error: polynomial uses variables outside the ring: x[3,3]\n"


def test_ideal_member_without_poly_exits_2(capsys):
    code = main(["ideal", "member", str(FIXTURES / "full2x2.json"), "--t", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: ideal member needs --poly\n"


def test_accept_json_format(capsys):
    code, out = run_cli("--format", "json", "accept", "run", "poset-schubert", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["key"] == "poset-schubert" and payload[0]["passed"]


def test_knutson_verify_reads_an_intersect_node(capsys, tmp_path):
    # (x11) cap (det) = (x11 * det), whose lead x11*x12*x21 is squarefree.
    det = "x[1,2]*x[2,1] - x[1,1]*x[2,2]"
    path = tmp_path / "deriv.json"
    path.write_text(json.dumps({
        "field": "q", "cells": [[1, 1], [1, 2], [2, 1], [2, 2]], "f_factors": ["x[1,1]", det],
        "label": "", "root": {"kind": "intersect", "children": [
            {"kind": "leaf", "factor": "x[1,1]"}, {"kind": "leaf", "factor": det}]}}))
    code, out = run_cli("--format", "json", "knutson", "verify", str(path), capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["checks"][-1] == {"check": "squarefree-initial", "node": "intersect#2",
                                     "ok": True, "detail": "1 lead monomials"}
    code, out = run_cli("knutson", "verify", str(path), capsys=capsys)
    assert code == 0
    assert out.splitlines()[-1] == "  [ok ] intersect#2: squarefree-initial -- 1 lead monomials"


def test_knutson_verify_flags_tampered_derivation(capsys, tmp_path):
    out_file = tmp_path / "deriv.json"
    code, _ = run_cli("knutson", "derive", "--ladder", str(FIXTURES / "full2x3.json"),
                      "--t", "2", "--out", str(out_file), capsys=capsys)
    assert code == 0
    obj = json.loads(out_file.read_text())
    # drop a claimed generator on the root: containment now fails
    obj["root"]["claimed"] = obj["root"]["claimed"][:1]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj))
    code, out = run_cli("knutson", "verify", str(tampered), capsys=capsys)
    assert code == 1 and "FAIL" in out


def test_knutson_verify_rejects_a_forged_claim_with_a_valid_identity(capsys, tmp_path):
    # The root claim is swapped for a height-4 prime that still contains the
    # height-2 child and misses the other intersection factor; only the band
    # identity, computed from the claim itself, can tell it is not a
    # minimal prime of the child.
    out_file = tmp_path / "deriv.json"
    code, _ = run_cli("knutson", "derive", "--ladder", str(FIXTURES / "full2x3.json"),
                      "--t", "2", "--out", str(out_file), capsys=capsys)
    assert code == 0
    obj = json.loads(out_file.read_text())
    obj["root"]["claimed"] = ["x[1,1]", "x[2,1]", "x[1,3]", "x[2,3]"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(obj))
    code, out = run_cli("knutson", "verify", str(forged), capsys=capsys)
    assert code == 1
    assert "[FAIL] min_prime#5: band-intersection-identity" in out


def test_timeout_diagnostic(capsys):
    code, _ = run_cli("--timeout", "0.000001", "ideal", "gb",
                      str(FIXTURES / "full3x4.json"), "--t", "2", capsys=capsys)
    assert code == 1


def _ladder_request_on_a_full_grid(n, action, sizes, tmp_path):
    """`ladder <action>` on the full n x n ladder under a 1 s budget, and
    its wall time in seconds."""
    big = tmp_path / "full.json"
    big.write_text(json.dumps({"shape": [n, n], "upper": [[1, n]], "lower": [[n, 1]]}))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "ladderdet", "--timeout", "1", "ladder", action,
                           str(big), *sizes],
                          capture_output=True, text=True, timeout=60)
    return proc, time.monotonic() - start


@pytest.mark.parametrize("n,action,sizes", [
    (3000, "validate", ["--t", "2"]),
], ids=["validate-3000x3000"])
def test_timeout_reaches_the_ladder_layer(n, action, sizes, tmp_path):
    proc, seconds = _ladder_request_on_a_full_grid(n, action, sizes, tmp_path)
    assert proc.returncode == 1
    assert "time budget exceeded" in proc.stderr
    assert seconds < 3


def test_timeout_reaches_the_fedder_products(tmp_path, capsys):
    # f_witness of this 6 x 6 two-corner ladder has 11,968 terms; its square
    # and its products with the generators run for minutes unless the
    # budget reaches every row of a product.
    spec = tmp_path / "mixed66.json"
    spec.write_text(json.dumps({"shape": [6, 6], "upper": [[1, 6]],
                                "lower": [[2, 1], [6, 4]], "t": [2, 3]}))
    start = time.monotonic()
    code = main(["--timeout", "0.5", "--field", "fp:3", "fedder", "--ladder", str(spec), "--p", "3"])
    assert code == 1
    assert "time budget exceeded" in capsys.readouterr().err
    assert time.monotonic() - start < 2.5


def test_ladder_show_of_a_3000x3000_ladder_fits_a_1s_budget(tmp_path):
    # Its row spans are read and rendered a row at a time, with no cell set.
    proc, seconds = _ladder_request_on_a_full_grid(3000, "show", [], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("shape=(3000, 3000) cells=9000000 t=None")
    assert seconds < 3


@pytest.mark.parametrize("value", ["nan", "NaN", "0", "-0", "-1", "-inf", "soon"])
def test_timeout_must_be_a_positive_number(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([f"--timeout={value}", "ladder", "validate", str(FIXTURES / "full2x2.json")])
    assert exc.value.code == 2
    assert "not a positive number of seconds" in capsys.readouterr().err


def test_infinite_timeout_means_no_limit(capsys):
    code, out = run_cli("--timeout", "inf", "ladder", "validate", str(FIXTURES / "full2x2.json"),
                        capsys=capsys)
    assert code == 0 and "u=1 v=1" in out


def _call_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_in_process_calls_share_no_state_through_the_parser(capsys):
    from ladderdet import cli

    f22, f33 = str(FIXTURES / "full2x2.json"), str(FIXTURES / "full3x3.json")
    member = ["ideal", "member", f22, "--t", "2", "--poly", "5*x[1,1]"]  # 5 = 0 in GF(5)
    calls = [
        ["--format", "json", "ladder", "validate", f33, "--t", "2"],
        ["ladder", "validate", f33, "--t", "2"],
        ["--field", "fp:5", *member],
        ["--format", "json", "--field", "fp:5", "--timeout", "nan", *member],
        member,
        ["--format", "yaml", "ladder", "validate", f33],
        ["ladder", "show", f33],
    ]
    in_process = [_call_in_process(argv, capsys) for argv in calls]
    alone = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "ladderdet", *argv],
                              capture_output=True, text=True)
        alone.append((proc.returncode, proc.stdout))
    assert in_process == alone
    assert [code for code, _ in alone] == [0, 0, 0, 2, 1, 2, 0]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_accept_honours_timeout(capsys):
    code, out = run_cli("--timeout", "0.000001", "--format", "json", "accept", "run",
                        "poset-schubert", capsys=capsys)
    assert code == 1
    (result,) = json.loads(out)
    assert result["passed"] is False
    assert "time budget exceeded after" in result["details"][0]


def test_ideal_loader_reads_and_decodes_each_file_once(monkeypatch, tmp_path, capsys):
    from ladderdet import cli

    reads, decodes = [], []
    real_read, real_loads = cli._read_text, cli.json.loads
    monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path) or real_read(path))
    monkeypatch.setattr(cli.json, "loads", lambda text: decodes.append(text) or real_loads(text))
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps({"shape": [2, 2], "gens": ["x[1,1]*x[2,2] - x[1,2]*x[2,1]"]}))
    ladder = str(FIXTURES / "full2x2.json")
    for path in (str(ideal), ladder):
        reads.clear()
        decodes.clear()
        code, out = run_cli("ideal", "gb", path, "--t", "2", capsys=capsys)
        assert code == 0 and out.strip() == "x[1,2]*x[2,1] - x[1,1]*x[2,2]"
        assert reads == [path] and len(decodes) == 1


def test_exponent_past_the_field_limit_exits_2(capsys):
    code = main(["ideal", "member", str(FIXTURES / "full3x3.json"), "--t", "2",
                 "--poly", "x[1,1]^99999999999"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exponents up to 255" in err and "Traceback" not in err
