"""Seeded fuzzing of the ladder, permutation, ideal, poset-spec and
derivation file loaders through `cli.main`: whatever the file holds, a
command ends in exit 0, 1 or 2 and no exception escapes."""

import contextlib
import copy
import io
import json
import random

from ladderdet.cli import main
from ladderdet.knutson import corner_derivation, derivation_to_json, ladder_derivation
from ladderdet.ladders import Ladder

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


IDEALS = [
    {"shape": [2, 2], "gens": ["x[1,1]*x[2,2] - x[1,2]*x[2,1]"]},
    {"cells": [[1, 1], [1, 2], [2, 2]], "gens": ["x[1,1]", "x[1,2]*x[2,2] - 2"]},
]
POSET_SPECS = [
    {"explicit": [{"rows": [1, 2], "cols": [1, 2]}]},
    {"cogenerators": [{"rows": [1], "cols": [2]}]},
    {"generalized": [{"rows": [2], "cols": [1]}, {"rows": [1, 2], "cols": [1, 2]}]},
]
DET = "x[1,2]*x[2,1] - x[1,1]*x[2,2]"
X11 = {"kind": "leaf", "factor": "x[1,1]"}
# The derive commands write no intersect or colon node, so this file holds
# them, with both kinds of identity.
HAND_WRITTEN = {
    "field": "q", "cells": [[1, 1], [1, 2], [2, 1], [2, 2]], "f_factors": ["x[1,1]", DET],
    "label": "hand-written", "root": {"kind": "sum", "children": [
        {"kind": "intersect", "children": [X11, {"kind": "leaf", "factor": DET}]},
        {"kind": "colon", "child": {"kind": "leaf", "factor": DET}, "divisor": ["x[1,2]", "x[2,1]"]},
        {"kind": "min_prime", "child": X11, "claimed": ["x[1,1]"], "label": "equal",
         "identity": {"kind": "equal"}},
        {"kind": "min_prime", "child": {"kind": "intersect", "children": [X11, X11]},
         "claimed": ["x[1,1]"], "label": "intersect",
         "identity": {"kind": "intersect", "a": ["x[1,1]"], "b": ["x[1,1]", DET]}},
    ]}}
DERIVATIONS = [json.loads(derivation_to_json(ladder_derivation(Ladder.full(2, 3), 2))),
               json.loads(derivation_to_json(ladder_derivation(Ladder.full(2, 2), 1))),
               json.loads(derivation_to_json(corner_derivation(3, 3, 1, 2, 2))),
               json.loads(json.dumps(HAND_WRITTEN))]  # each leaf its own object
TREE_JUNK = JUNK + ["x[1,1]", "x[9,9]", "1", "", "q", "fp:4", "leaf", "sum", [5], [[1, 1.5]],
                    ["x[1,1]", 5], {"kind": "leaf"}, {"kind": "colon", "child": {}, "divisor": 5}]
TREE_CASES = 300


def _positions(doc, out):
    """Every (container, key) slot inside a JSON tree."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return out
    for key, value in list(items):
        out.append((doc, key))
        _positions(value, out)
    return out


def _edit_text(rng, text):
    """`text` with one `*`, `+`, `-`, `^` or space inserted, deleted or
    doubled."""
    op = rng.choice("*+-^ ")
    at = [i for i, ch in enumerate(text) if ch == op]
    how = rng.randrange(3)
    if how == 0 or not at:
        i = rng.randrange(len(text) + 1)
        return text[:i] + op + text[i:]
    i = rng.choice(at)
    return text[:i] + ("" if how == 1 else op * 2) + text[i + 1:]


def _damage(rng, doc):
    """One random damage anywhere in a JSON tree: a slot replaced by junk,
    deleted, or a number in it nudged off the integers, or a polynomial
    string edited in place (`_edit_text`)."""
    slots = _positions(doc, [])
    if not slots or rng.random() < 0.05:
        return rng.choice([[doc], 5, "x", None])
    kind = rng.randrange(4)
    texts = [(c, k) for c, k in slots if isinstance(c[k], str) and "x[" in c[k]]
    if kind == 3 and texts:
        container, key = rng.choice(texts)
        container[key] = _edit_text(rng, container[key])
        return doc
    container, key = rng.choice(slots)
    if kind == 0:
        container[key] = copy.deepcopy(rng.choice(TREE_JUNK))
    elif kind == 1:
        del container[key]
    elif isinstance(container[key], int) and not isinstance(container[key], bool):
        container[key] = rng.choice([container[key] + 0.5, -container[key], 0, 99])
    else:
        container[key] = rng.choice([{}, [], True, 2.5])
    return doc


def test_fuzzed_ideal_poset_and_derivation_files_exit_cleanly(tmp_path):
    rng = random.Random(20240717)
    path = tmp_path / "case.json"
    escaped = []
    for n in range(TREE_CASES):
        family = n % 3
        if family == 0:
            doc = copy.deepcopy(rng.choice(IDEALS))
            argv = ["ideal", rng.choice(["gb", "gens", "initial"]), "{f}"]
        elif family == 1:
            doc = copy.deepcopy(rng.choice(POSET_SPECS))
            argv = ["poset", "--shape", rng.choice(["2,2", "2,3"]), "--spec", "{f}"]
        else:
            doc = copy.deepcopy(rng.choice(DERIVATIONS))
            argv = ["knutson", "verify", "{f}"]
        for _ in range(rng.randint(1, 3)):
            doc = _damage(rng, doc) if isinstance(doc, (dict, list)) else doc
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
