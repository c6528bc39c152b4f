"""The package's immutable records: construction, equality, hashing,
immutability and repr, for each of the 23 record classes; and `Check` as
the one checked line of every report."""

import copy

import pytest

from ladderdet import acceptance, oracle
from ladderdet.acceptance import CriterionResult
from ladderdet.fields import QQ, Field
from ladderdet.groebner import MonomialIdeal, Ring
from ladderdet.ideals import GWitnessData, PartialPermutation, PosetIdealSpec
from ladderdet.knutson import (
    Colon,
    Intersect,
    KnutsonDerivation,
    Leaf,
    MinimalPrimeClaim,
    Sum,
    VerifyReport,
    verify,
)
from ladderdet.ladders import (
    AntidiagonalProfile,
    Ladder,
    LadderReport,
    LevelData,
    UnmixReduction,
    validate,
)
from ladderdet.oracle import (
    CertificateError,
    InitialCompareResult,
    SymbolicCertificate,
    symbolic_fsplit_certificate,
)
from ladderdet.poly import Minor, TermOrder, parse_polynomial
from ladderdet.record import Check

RING = Ring.for_grid(QQ, 2, 2)
VARS = RING.variables  # x[1,2], x[1,1], x[2,2], x[2,1]
MINOR = Minor((1, 2), (1, 2))
MINOR_TEXT = "Minor(rows=(1, 2), cols=(1, 2))"
MONO = MINOR.antidiagonal_monomial()  # x[1,2]*x[2,1]
IDEAL = MonomialIdeal.from_monomials(RING, [MONO])
IDEAL_TEXT = f"MonomialIdeal(ring=Ring(QQ, 4 vars), gens={IDEAL.gens!r})"
LADDER = Ladder((2, 2), ((1, 2),), ((2, 1),))
LADDER_TEXT = "Ladder((2, 2), upper=[(1, 2)], lower=[(2, 1)])"
X11 = parse_polynomial("x[1,1]")
LEAF = Leaf(X11)
LEAF_TEXT = "Leaf(factor=x[1,1], kind='leaf')"
CHECK = Check("covered", True, "ok")
CHECK_TEXT = "Check(name='covered', ok=True, detail='ok')"
LEVEL = LevelData(3, 2, 1, 1, 2, 2, 1)
LINE = ("root", Check("leaf", False))

# (record built positionally, keyword arguments that build it, the values
# its equality and hash compare, its repr).  The keywords name every field
# the constructor takes, defaults included; the positional forms leave the
# defaults out.
CASES = [
    (TermOrder("grevlex"), dict(kind="grevlex"), ("grevlex",), "TermOrder(kind='grevlex')"),
    (Minor((1, 2), (2, 3)), dict(rows=[1, 2], cols=(2, 3)), ((1, 2), (2, 3)),
     "Minor(rows=(1, 2), cols=(2, 3))"),
    (Ring(QQ, VARS[::-1]), dict(field=QQ, variables=VARS), (QQ, VARS), "Ring(QQ, 4 vars)"),
    (IDEAL, dict(ring=RING, gens=IDEAL.gens), (RING, IDEAL.gens), IDEAL_TEXT),
    (GWitnessData(3, 4, MINOR, (MINOR,), MONO, 2),
     dict(alpha=3, beta=4, y_minor=MINOR, factors=(MINOR,), lead=MONO, count=2),
     (3, 4, MINOR, (MINOR,), MONO, 2),
     f"GWitnessData(alpha=3, beta=4, y_minor={MINOR_TEXT}, factors=({MINOR_TEXT},), "
     "lead=x[1,2]*x[2,1], count=2)"),
    (PartialPermutation([2, 2], [[1, 2]]), dict(shape=(2, 2), ones=frozenset({(1, 2)})),
     ((2, 2), frozenset({(1, 2)})), "PartialPermutation(shape=(2, 2), ones=frozenset({(1, 2)}))"),
    (PosetIdealSpec("explicit", [MINOR]), dict(kind="explicit", minors=(MINOR,)),
     ("explicit", (MINOR,)), f"PosetIdealSpec(kind='explicit', minors=({MINOR_TEXT},))"),
    (Ladder([2, 2], [[1, 2]], [[2, 1]]), dict(shape=(2, 2), upper=((1, 2),), lower=((2, 1),)),
     ((2, 2), ((1, 2),), ((2, 1),)), LADDER_TEXT),
    (Check("leaf", False), dict(name="leaf", ok=False, detail=""), ("leaf", False, ""),
     "Check(name='leaf', ok=False, detail='')"),
    (LadderReport(True, 1, 2, (CHECK,)),
     dict(valid=True, u=1, v=2, checks=(CHECK,), notes=()),
     (True, 1, 2, (CHECK,), ()),
     f"LadderReport(valid=True, u=1, v=2, checks=({CHECK_TEXT},), notes=())"),
    (LEVEL, dict(r=3, w=2, p=1, a=1, b=2, gamma=2, count=1), (3, 2, 1, 1, 2, 2, 1),
     "LevelData(r=3, w=2, p=1, a=1, b=2, gamma=2, count=1)"),
    (AntidiagonalProfile((LEVEL,), (), 4), dict(levels=(LEVEL,), witness=(), interior_size=4),
     ((LEVEL,), (), 4),
     "AntidiagonalProfile(levels=(LevelData(r=3, w=2, p=1, a=1, b=2, gamma=2, count=1),), "
     "witness=(), interior_size=4)"),
    (UnmixReduction(LADDER, (2,), LADDER, (2,), (1,), (0, 1)),
     dict(original=LADDER, original_t=(2,), start=LADDER, start_t=(2,), moves=(1,), offset=(0, 1)),
     (LADDER, (2,), LADDER, (2,), (1,), (0, 1)),
     f"UnmixReduction(original={LADDER_TEXT}, original_t=(2,), start={LADDER_TEXT}, "
     "start_t=(2,), moves=(1,), offset=(0, 1))"),
    (LEAF, dict(factor=X11), (X11, "leaf"), LEAF_TEXT),
    (Sum((LEAF,)), dict(children=(LEAF,)), ((LEAF,), "sum"),
     f"Sum(children=({LEAF_TEXT},), kind='sum')"),
    (Intersect((LEAF,)), dict(children=(LEAF,)), ((LEAF,), "intersect"),
     f"Intersect(children=({LEAF_TEXT},), kind='intersect')"),
    (MinimalPrimeClaim(LEAF, (X11,)), dict(child=LEAF, claimed=(X11,), identity=None, label=""),
     (LEAF, (X11,), None, "", "min_prime"),
     f"MinimalPrimeClaim(child={LEAF_TEXT}, claimed=(x[1,1],), identity=None, label='', "
     "kind='min_prime')"),
    (Colon(LEAF, (X11,)), dict(child=LEAF, divisor=(X11,)), (LEAF, (X11,), "colon"),
     f"Colon(child={LEAF_TEXT}, divisor=(x[1,1],), kind='colon')"),
    (KnutsonDerivation(RING, (X11,), LEAF), dict(ring=RING, f_factors=(X11,), root=LEAF, label=""),
     (RING, (X11,), LEAF, ""),
     f"KnutsonDerivation(ring=Ring(QQ, 4 vars), f_factors=(x[1,1],), root={LEAF_TEXT}, label='')"),
    (VerifyReport(False, (LINE,)), dict(ok=False, lines=(LINE,)), (False, (LINE,)),
     "VerifyReport(ok=False, lines=(('root', Check(name='leaf', ok=False, detail='')),))"),
    (SymbolicCertificate(LADDER, (2,), 1, ((MINOR, 2, 2, 1),), MONO, (CHECK,)),
     dict(ladder=LADDER, t=(2,), h=1, factors=((MINOR, 2, 2, 1),), lead=MONO,
          checks=(CHECK,)),
     (LADDER, (2,), 1, ((MINOR, 2, 2, 1),), MONO, (CHECK,)),
     f"SymbolicCertificate(ladder={LADDER_TEXT}, t=(2,), h=1, factors=(({MINOR_TEXT}, 2, 2, 1),), "
     f"lead=x[1,2]*x[2,1], checks=({CHECK_TEXT},))"),
    (InitialCompareResult(True, None, IDEAL, IDEAL),
     dict(equal=True, witness=None, left=IDEAL, right=IDEAL), (True, None, IDEAL, IDEAL),
     f"InitialCompareResult(equal=True, witness=None, left={IDEAL_TEXT}, right={IDEAL_TEXT})"),
    (CriterionResult("k", "title", True, 1.5),
     dict(key="k", title="title", passed=True, seconds=1.5, details=()),
     ("k", "title", True, 1.5, ()),
     "CriterionResult(key='k', title='title', passed=True, seconds=1.5, details=())"),
]


def test_every_record_class_is_covered():
    assert len({type(record) for record, *_ in CASES}) == len(CASES) == 23


@pytest.mark.parametrize("record, keywords, compared, text", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_record_behaviour(record, keywords, compared, text):
    cls = type(record)
    by_keyword = cls(**keywords)
    assert by_keyword is not record and by_keyword == record and not by_keyword != record
    assert hash(record) == hash(by_keyword) == hash(compared)
    assert record != compared and compared != record
    # A shallow copy is an equal record of the same class; a subclass's
    # record with the same fields is never equal.
    twin = copy.copy(record)
    assert type(twin) is cls and twin == record
    sub = type("Sub", (cls,), {"__slots__": ()})
    object.__setattr__(twin, "__class__", sub)
    assert twin != record and record != twin
    for name in (*keywords, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == by_keyword
    assert repr(record) == text


def test_records_of_two_classes_with_equal_fields_differ():
    assert Sum((LEAF,)) != Intersect((LEAF,))
    assert PosetIdealSpec("explicit", ()) != VerifyReport("explicit", ())


def test_derived_and_cached_attributes_stay_out_of_equality_and_repr():
    fresh = Ladder((2, 2), ((1, 2),), ((2, 1),))
    assert fresh.spans == ((1, 2), (1, 2))
    assert fresh == LADDER and hash(fresh) == hash(LADDER) and repr(fresh) == LADDER_TEXT
    assert TermOrder("antidiag-lex").is_native and not TermOrder("grevlex").is_native
    assert RING.packing is Ring(QQ, VARS).packing
    ideal = MonomialIdeal.from_monomials(RING, [MONO])
    assert ideal.dim() == 3 and ideal.multiplicity() == 2
    assert ideal == IDEAL and hash(ideal) == hash(IDEAL) and repr(ideal) == IDEAL_TEXT


def test_rings_compare_their_fields_by_value():
    # Two GF(5) objects are distinct but equal, and so are rings over them.
    first, second = Ring(Field(5), VARS), Ring(Field(5), VARS)
    assert first.field is not second.field
    assert first == second and hash(first) == hash(second)
    assert first != Ring(Field(7), VARS) and first != RING and first != Ring(Field(5), VARS[:3])


def test_every_checked_line_is_a_check_and_one_failure_flips_its_verdict(monkeypatch):
    # The ladder report: one failing assumption among (1)-(3) makes it
    # invalid; (4) alone stays outside the verdict.
    L = Ladder((3, 3), ((1, 3),), ((2, 1), (3, 2)))
    passing, failing = validate(L, (1, 1)), validate(L, (1, 2))
    assert all(type(c) is Check for c in passing.checks + failing.checks)
    assert passing.valid and all(c.ok for c in passing.checks)
    assert [c.ok for c in failing.checks] == [True, True, False, True] and not failing.valid
    block = validate(Ladder((3, 3), ((1, 3),), ((2, 2),)), (1,))
    assert [c.ok for c in block.checks] == [True, True, True, False] and block.valid

    # The certificate: it holds its invariants as checks and raises on one
    # that fails.
    cert = symbolic_fsplit_certificate(L, (1, 1))
    assert all(type(c) is Check and c.ok for c in cert.checks)
    with monkeypatch.context() as patch, \
            pytest.raises(CertificateError, match=r"\['lead_squarefree'\]"):
        patch.setattr(oracle, "mono_is_squarefree", lambda value: False)
        symbolic_fsplit_certificate(L, (1, 1))

    # The verify report: (node, Check) lines; one failing leaf check fails it.
    ring = Ring.for_grid(QQ, 2, 2)
    det = parse_polynomial("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    good = verify(KnutsonDerivation(ring, (det,), Leaf(det)))
    bad = verify(KnutsonDerivation(ring, (det,), LEAF))
    for report in (good, bad):
        assert all(type(node) is str and type(c) is Check for node, c in report.lines)
    assert good.ok and [c.ok for _, c in bad.lines] == [True, False] and not bad.ok

    # Every criterion yields checks; run_criterion fails it on one failing line.
    for key, (title, criterion) in acceptance.CRITERIA.items():
        lines = list(criterion(acceptance.DEFAULT_SEED))
        assert lines and all(type(c) is Check and c.ok for c in lines), key
        flipped = [Check(lines[0].name, False, lines[0].detail), *lines[1:]]
        for replay, passed in ((lines, True), (flipped, False)):
            monkeypatch.setitem(acceptance.CRITERIA, key, (title, lambda seed, r=replay: iter(r)))
            result = acceptance.run_criterion(key)
            assert result.passed is passed
            assert result.details == tuple(c.detail for c in lines)
