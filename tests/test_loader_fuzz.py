"""Seeded fuzzing of the ladder and permutation file loaders through
`cli.main`: whatever the file holds, a command ends in exit 0, 1 or 2 and
no exception escapes."""

import contextlib
import copy
import io
import json
import random

from ladderdet.cli import main

LADDERS = [
    {"shape": [2, 2], "upper": [[1, 2]], "lower": [[2, 1]]},
    {"shape": [2, 3], "upper": [[1, 3]], "lower": [[2, 1]], "t": [2]},
    {"shape": [3, 3], "upper": [[1, 3]], "lower": [[3, 1]], "t": 2},
    {"shape": [4, 4], "upper": [[1, 4]], "lower": [[2, 1], [4, 2]], "t": [1, 2]},
    {"shape": [4, 4], "upper": [[1, 3], [2, 4]], "lower": [[3, 1], [4, 2]], "t": [2, 2]},
]
PERMS = [
    {"shape": [3, 3], "ones": [[1, 2], [2, 1]]},
    {"shape": [2, 3], "ones": [[1, 1]]},
]
COMMANDS = [
    ["ladder", "validate", "{f}"],
    ["ladder", "show", "{f}"],
    ["ladder", "reduce", "{f}"],
    ["ladder", "chamfer", "{f}", "--j", "2"],
    ["ideal", "gb", "{f}"],
    ["witness", "f", "--ladder", "{f}"],
    ["witness", "certificate", "--ladder", "{f}"],
    ["fedder", "--ladder", "{f}"],
    ["knutson", "derive", "--ladder", "{f}"],
]
JUNK = [None, 0, -1, 1, 2, 3, 9, 2.5, True, "a", "2", [], [0], [2], [2.0], ["x"],
        [1, 2, 3], [[1]], [[1, 2]], [[0, 1]], [[9, 9]], [[1, 2, 3]], [["a", 1]],
        [[True, 1]], {}, {"t": 2}]
CASES = 600


def _mutate(rng, doc):
    """One random damage to a loaded ladder or permutation object."""
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice([[doc], 5, "ladder", None, True, list(doc)])
    keys = sorted(doc)
    if kind == 1 and keys:
        del doc[rng.choice(keys)]
    elif kind == 2:
        doc[rng.choice(keys + ["t"])] = rng.choice(JUNK)
    elif kind == 3:
        doc["t"] = [rng.choice([0, 1, 2, 3, 2.5, "x", [1], None]) for _ in range(rng.randrange(5))]
    else:
        # off-grid, unordered or ill-typed corners and shapes
        key = rng.choice(keys)
        value = doc[key]
        if isinstance(value, list) and value:
            i = rng.randrange(len(value))
            if isinstance(value[i], list) and value[i]:
                value[i][rng.randrange(len(value[i]))] = rng.choice([0, -1, 5, 9, 2.5, "1", None])
            else:
                value[i] = rng.choice([0, -1, 5, 9, 2.5, "1", None, [1, 1]])
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(["--timeout", "2", *argv])


def test_fuzzed_ladder_and_permutation_files_exit_cleanly(tmp_path):
    rng = random.Random(20240611)
    path = tmp_path / "case.json"
    escaped = []
    for n in range(CASES):
        if n % 10 == 9:
            doc = _mutate(rng, copy.deepcopy(rng.choice(PERMS)))
            argv = ["schubert", "--perm", "{f}"] + (["--gb"] if rng.random() < 0.5 else [])
        else:
            doc = copy.deepcopy(rng.choice(LADDERS))
            for _ in range(rng.randint(1, 2)):
                doc = _mutate(rng, doc) if isinstance(doc, dict) else doc
            argv = list(rng.choice(COMMANDS))
            if rng.random() < 0.25:
                argv += ["--t"] + [str(rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{f}" else a for a in argv]
        try:
            code = _run(argv)
        except Exception as exc:  # noqa: BLE001 - every escape is a finding
            escaped.append((argv, json.dumps(doc), repr(exc)))
            continue
        if code not in (0, 1, 2):
            escaped.append((argv, json.dumps(doc), f"exit {code}"))
    assert not escaped, "\n".join(map(str, escaped[:10])) + f"\n({len(escaped)} cases)"
