"""Golden CLI outputs: exit code and stdout of a fixed set of `ladderdet`
commands, compared byte for byte with `tests/golden/cli.json`.

The set covers every bundled fixture (ladder, ideal, witness and Knutson
commands) plus one run each of ideal intersect / colon / saturate / eq /
sum / gens / member, the basis and initial ideal of a small ideal, a
basis over GF(2), the basis and initial ideal of an ideal with exponents
above 1, a certificate over GF(3), Fedder with the witness and with a
given candidate, symbolic compare and symbolic power, Schubert generators
and bases, poset checks, sum-formula bases and the three kinds of poset
spec, one acceptance criterion, and three corner derivations (a verified
square SE corner, a verified non-square SE corner whose D1 base case is
wider than the grid has rows, and a NW corner as JSON only).  The
generator lists of a mixed ladder and of a Schubert ideal are pinned in
order.  These run under `--format json`; three more pin the text
renderings of a failing ladder validation, a corner derivation's verify
report and `accept run --verbose`.
Refactors of the engine must leave every recorded output unchanged.

Regenerate (only when an output change is intended) with
`PYTHONPATH=src python tests/test_golden_cli.py --write`.
"""

import contextlib
import functools
import io
import json
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ladderdet.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "ladderdet" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

FIXTURE_NAMES = ("full2x2", "full2x3", "full3x3", "full3x4", "staircase10", "staircase_sub4x4")

INPUTS = {
    "ideal_a.json": {"shape": [2, 3], "gens": ["x[1,1]*x[2,2] - x[1,2]*x[2,1]",
                                               "x[1,2]*x[2,3] - x[1,3]*x[2,2]"]},
    "ideal_b.json": {"shape": [2, 3], "gens": ["x[1,2] + x[2,1]", "x[2,2]"]},
    "ideal_c.json": {"shape": [2, 3], "gens": ["x[1,2]", "x[2,2]"]},
    "ideal_d.json": {"shape": [2, 2], "gens": ["x[1,1]^3*x[2,2] - x[1,2]^2*x[2,1]",
                                               "x[1,2]^2*x[2,2] - x[2,1]^3"]},
    "perm.json": {"shape": [3, 3], "ones": [[1, 2], [2, 1]]},
    "perm4.json": {"shape": [4, 4], "ones": [[1, 3], [2, 1], [3, 4]]},
    "spec_explicit.json": {"explicit": [
        {"rows": list(rows), "cols": list(cols)}
        for size in (2, 3) for rows in combinations((1, 2, 3), size)
        for cols in combinations((1, 2, 3), size)]},
    "spec_cogenerators.json": {"cogenerators": [{"rows": [1, 3], "cols": [2, 3]},
                                                {"rows": [2], "cols": [2]}]},
    "spec_generalized.json": {"generalized": [{"rows": [1], "cols": [1]},
                                              {"rows": [1, 2], "cols": [1, 2]},
                                              {"rows": [1, 2], "cols": [1, 3]},
                                              {"rows": [1, 2], "cols": [2, 3]}]},
    # Fails (2), (3) and (4), with a note: the lower corner (1, 1) is not a cell.
    "ladder_invalid.json": {"shape": [3, 3], "upper": [[2, 3]], "lower": [[1, 1], [3, 2]],
                            "t": [1, 1]},
}


def _cases():
    """(id, argv) pairs; `{fixtures}` and `{inputs}` are path placeholders."""
    cases = []
    for name in FIXTURE_NAMES:
        path = f"{{fixtures}}/{name}.json"
        t = [] if json.loads((FIXTURES / f"{name}.json").read_text()).get("t") else ["--t", "2"]
        for action in ("validate", "show", "reduce"):
            cases.append((f"{name}/ladder-{action}", ["ladder", action, path, *t]))
        for action in ("gb", "initial"):
            cases.append((f"{name}/ideal-{action}", ["ideal", action, path, *t]))
        for action in ("certificate", "f", "g"):
            cases.append((f"{name}/witness-{action}", ["witness", action, "--ladder", path, *t]))
        if name != "staircase10":
            cases.append((f"{name}/knutson-derive",
                          ["knutson", "derive", "--ladder", path, *t, "--verify"]))
    a, b, c = ("{inputs}/ideal_a.json", "{inputs}/ideal_b.json", "{inputs}/ideal_c.json")
    full3x3 = ["{fixtures}/full3x3.json", "--t", "2"]
    for action in ("gb", "initial"):
        cases.append((f"ideal-{action}", ["ideal", action, a]))
    cases.append(("full3x3/ideal-gb-fp2", ["--field", "fp:2", "ideal", "gb", *full3x3]))
    for name, path in (("a", a), ("b", b)):
        cases.append((f"ideal-gens-{name}", ["ideal", "gens", path]))
    cases.append(("staircase10/ideal-gens", ["ideal", "gens", "{fixtures}/staircase10.json"]))
    cases += [
        ("ideal-eq", ["ideal", "eq", a, b]),
        ("ideal-sum", ["ideal", "sum", a, b]),
        ("ideal-member-true", ["ideal", "member", *full3x3,
                               "--poly", "x[1,1]*x[2,2] - x[1,2]*x[2,1]"]),
        ("ideal-member-false", ["ideal", "member", *full3x3, "--poly", "x[1,1]"]),
        ("full3x4/witness-certificate-fp3", ["--field", "fp:3", "witness", "certificate",
                                             "--ladder", "{fixtures}/full3x4.json", "--t", "2"]),
        ("ideal-gb-exponents", ["ideal", "gb", "{inputs}/ideal_d.json"]),
        ("ideal-initial-exponents", ["ideal", "initial", "{inputs}/ideal_d.json"]),
    ]
    cases += [
        ("ideal-intersect", ["ideal", "intersect", a, b]),
        ("ideal-colon", ["ideal", "colon", a, b]),
        ("ideal-saturate", ["ideal", "saturate", a, c]),
        ("fedder", ["fedder", "--ladder", "{fixtures}/full3x3.json", "--t", "2", "--p", "2"]),
        ("symbolic-compare", ["--field", "fp:5", "symbolic", "compare",
                              "--ladder", "{fixtures}/full2x3.json", "--t", "2", "--n", "2"]),
        ("schubert-gb", ["schubert", "--perm", "{inputs}/perm.json", "--gb"]),
        ("schubert-gens-4x4", ["schubert", "--perm", "{inputs}/perm4.json"]),
        ("schubert-gb-4x4", ["schubert", "--perm", "{inputs}/perm4.json", "--gb"]),
        ("poset-check", ["poset", "--shape", "3,3", "--delta", "12|12", "--check"]),
        ("poset-delta-3x4", ["poset", "--shape", "3,4", "--delta", "13|24"]),
        *[(f"poset-spec-{kind}",
           ["poset", "--shape", "3,3", "--spec", f"{{inputs}}/spec_{kind}.json"])
          for kind in ("explicit", "cogenerators", "generalized")],
        ("accept-poset-schubert", ["accept", "run", "poset-schubert"]),
        ("knutson-corner-se-verify",
         ["knutson", "derive", "--corner", "4,4,2,3,3,se", "--verify"]),
        ("knutson-corner-5x5", ["knutson", "derive", "--corner", "5,5,2,4,4"]),
        ("knutson-corner-se-3x5-verify",
         ["knutson", "derive", "--corner", "3,5,2,2,4,se", "--verify"]),
        ("symbolic-power", ["--field", "fp:5", "symbolic", "power",
                            "--ladder", "{fixtures}/full2x3.json", "--t", "2", "--n", "2"]),
        ("fedder-candidate", ["fedder", "--ladder", "{fixtures}/full2x2.json", "--t", "2",
                              "--p", "3", "--candidate",
                              "x[1,1]^2*x[2,2]^2 - 2*x[1,1]*x[1,2]*x[2,1]*x[2,2]"
                              " + x[1,2]^2*x[2,1]^2"]),
    ]
    # The text renderings of the ladder report, the verify report and accept --verbose.
    text = [
        ("text/ladder-validate-invalid", ["ladder", "validate", "{inputs}/ladder_invalid.json"]),
        ("text/knutson-corner-verify", ["knutson", "derive", "--corner", "3,3,2,2,2", "--verify"]),
        ("text/accept-witness-certificate-verbose",
         ["accept", "run", "witness-certificate", "--verbose"]),
    ]
    return [(cid, ["--format", "json", *argv]) for cid, argv in cases] + text


def _normalize(argv, stdout: str) -> str:
    """Drop the wall-clock `seconds` field from accept JSON and the `(N.Ns)`
    wall time from accept's text summary lines."""
    if "accept" in argv and stdout:
        if "json" not in argv:
            return re.sub(r" \(\d+\.\ds\)$", "", stdout, flags=re.MULTILINE)
        rows = json.loads(stdout)
        return json.dumps([{k: v for k, v in row.items() if k != "seconds"} for row in rows]) + "\n"
    return stdout


def run_case(argv, inputs_dir: Path):
    argv = [a.replace("{fixtures}", str(FIXTURES)).replace("{inputs}", str(inputs_dir))
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, _normalize(argv, out.getvalue())


def write_inputs(directory: Path) -> None:
    for name, obj in INPUTS.items():
        (directory / name).write_text(json.dumps(obj))


@functools.cache
def _golden():
    return {case["id"]: case for case in json.loads(GOLDEN.read_text())["cases"]}


CASES = _cases()


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(cid for cid, _ in CASES)


@pytest.mark.parametrize("cid,argv", CASES, ids=[cid for cid, _ in CASES])
def test_golden_cli_output(cid, argv, inputs_dir):
    expected = _golden()[cid]
    assert expected["argv"] == argv
    code, stdout = run_case(argv, inputs_dir)
    assert code == expected["code"]
    assert stdout == expected["stdout"]


def _write_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        cases = []
        for cid, argv in CASES:
            code, stdout = run_case(argv, Path(tmp))
            cases.append({"id": cid, "argv": argv, "code": code, "stdout": stdout})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    _write_golden()
