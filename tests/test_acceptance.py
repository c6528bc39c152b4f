"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line.  All checks are exact (no numeric tolerances);
the stated runtime budgets are asserted too.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines, or `ladderdet accept run all` for the same suite from the CLI.
"""

import math

import pytest

from ladderdet import acceptance
from ladderdet.groebner import InstanceTooLarge
from ladderdet.ladders import Ladder, UnmixReduction
from ladderdet.poly import time_limit
from ladderdet.record import Check

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


def test_falsified_criterion_fails_and_the_suite_goes_on(monkeypatch, capsys):
    from ladderdet.cli import main
    from ladderdet.oracle import CertificateError

    def falsified(*args, **kwargs):
        raise CertificateError("certificate check failed")

    monkeypatch.setattr(acceptance, "symbolic_fsplit_certificate", falsified)
    first, second = acceptance.run_suite(["witness-certificate", "chamfer-descent"])
    assert not first.passed
    assert first.details[0].startswith("certificate check failed after ")
    assert second.passed
    assert main(["accept", "run", "witness-certificate"]) == 1
    assert capsys.readouterr().out.endswith("0/1 criteria pass\n")


def test_unknown_criterion_rejected():
    with pytest.raises(KeyError):
        acceptance.run_criterion("no-such-criterion")


def test_a_criterion_passes_iff_every_line_passes(monkeypatch):
    def stub(seed):
        yield Check("first", True, "a")
        yield Check("second", False, "b")

    monkeypatch.setitem(acceptance.CRITERIA, "stub", ("two lines", stub))
    result = acceptance.run_criterion("stub")
    assert not result.passed
    assert result.details == ("a", "b")


def test_a_wrong_replay_fails_chamfer_descent_on_the_same_lines(monkeypatch):
    # A replay that ends at another size vector still counts as a reduction,
    # so only the verdict of the replay line changes.
    honest = acceptance.run_criterion("chamfer-descent")
    assert honest.passed
    real = acceptance.reduce_to_unmixed

    class WrongReplay(UnmixReduction):
        def replay(self):
            L, t = super().replay()
            return L, t + (1,)

    def wrong_replay(L, t):
        red = real(L, t)
        return WrongReplay(**{name: getattr(red, name) for name in UnmixReduction.__slots__})

    monkeypatch.setattr(acceptance, "reduce_to_unmixed", wrong_replay)
    result = acceptance.run_criterion("chamfer-descent")
    assert not result.passed
    assert result.details == honest.details


def test_run_suite_refuses_an_unknown_key_before_running_any(monkeypatch):
    ran = []
    title, _ = acceptance.CRITERIA["fedder"]
    monkeypatch.setitem(acceptance.CRITERIA, "fedder",
                        (title, lambda seed: ran.append(seed) or iter(())))
    with pytest.raises(KeyError) as from_suite:
        acceptance.run_suite(["nosuch", "fedder"])
    with pytest.raises(KeyError) as from_criterion:
        acceptance.run_criterion("nosuch")
    assert ran == []
    assert str(from_suite.value) == str(from_criterion.value)
    assert "known: groebner-squarefree, height-identity" in str(from_suite.value)


def test_polynomial_criteria_build_mixed_ladder_ideals():
    # staircase10 at its fixture sizes, then the first 20 draws with mixed
    # sizes; the unmixed cases carry t as an int.
    cases, draws = acceptance._polynomial_cases(acceptance.DEFAULT_SEED)
    mixed = [(name, t) for name, _, t in cases if not isinstance(t, int)]
    assert mixed[0] == ("staircase10", (2, 3, 1, 2))
    assert [name for name, _ in mixed[1:]] == [f"mixed{i}" for i in range(20)]
    assert all(len(set(t)) > 1 for _, t in mixed)
    assert draws >= 20
    assert acceptance._mixed_line([True] * 21, draws) == Check(
        "mixed size vectors", True,
        f"mixed size vectors: 21/21 cases pass, 20 of them from {draws} random draws")
    assert acceptance._mixed_line([True, False], draws).ok is False
    assert acceptance._mixed_line([], draws).ok is False


def test_legal_unmixed_sizes_keeps_an_expired_budget():
    # Every criterion has read the row spans already (through ladder_ring);
    # the expired budget must still stop the size scan, not empty it.
    L = Ladder.full(3, 3)
    assert L.spans
    assert acceptance._legal_unmixed_sizes(L) == [1, 2, 3]
    with time_limit(1e-9), pytest.raises(InstanceTooLarge):
        acceptance._legal_unmixed_sizes(L)


def test_nan_budget_raises():
    with pytest.raises(ValueError):
        with time_limit(math.nan):
            pass
    with pytest.raises(ValueError):
        acceptance.run_criterion("chamfer-descent", seconds=math.nan)
    assert acceptance.run_criterion("chamfer-descent", seconds=math.inf).passed  # no limit
