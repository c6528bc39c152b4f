"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.  All checks are exact (no numeric tolerances);
the stated runtime budgets are asserted too.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines, or `ladderdet accept run all` for the same suite from the CLI.
"""

import pytest

from ladderdet import acceptance

BUDGETS = {
    "groebner-squarefree": 120.0,
    "height-identity": 60.0,
    "witness-certificate": 60.0,
    "intersection-identity": 300.0,
    "fedder": 600.0,
    "symbolic-initial": 600.0,
    "knutson": 600.0,
    "chamfer-descent": 60.0,
    "poset-schubert": 300.0,
}


@pytest.mark.parametrize("key", acceptance.criterion_keys())
def test_criterion(key):
    result = acceptance.run_criterion(key, seed=acceptance.DEFAULT_SEED)
    print(result.summary_line())
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"criterion {key} failed:\n" + "\n".join(result.details)
    assert result.seconds < BUDGETS[key], (
        f"criterion {key} exceeded its runtime budget: {result.seconds:.1f}s"
    )


def test_suite_runner_collects_everything():
    results = acceptance.run_suite(["chamfer-descent", "fedder"])
    assert [r.key for r in results] == ["chamfer-descent", "fedder"]
    assert all(r.passed for r in results)


def test_unknown_criterion_rejected():
    with pytest.raises(KeyError):
        acceptance.run_criterion("no-such-criterion")
