"""The package's immutable records: construction, equality, hashing,
immutability and repr, for each of the 22 record classes; the one
constructor `Record.__init__` of the 17 records that keep none of their
own; and `Check` as the one checked line of every report."""

import ast
import copy
from pathlib import Path

import pytest

import ladderdet
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
from ladderdet.poly import Minor, parse_polynomial
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
    assert len({type(record) for record, *_ in CASES}) == len(CASES) == 22


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


# The records built by `Record.__init__`: every class whose constructor
# does not normalise or validate its arguments.
GENERIC = [case for case in CASES if "__init__" not in vars(type(case[0]))]


def test_seventeen_records_use_the_one_constructor():
    assert len(GENERIC) == 17
    assert MonomialIdeal._params == ("ring", "gens")  # the `_lead` cache slot is no field


@pytest.mark.parametrize("record, keywords", [case[:2] for case in GENERIC],
                         ids=[type(case[0]).__name__ for case in GENERIC])
def test_generic_record_binds_its_fields(record, keywords):
    cls = type(record)
    names, values = list(keywords), list(keywords.values())
    assert tuple(names) == cls._params
    # Positionally, by keyword, and a positional head with a keyword tail.
    for split in range(len(names) + 1):
        assert cls(*values[:split], **dict(zip(names[split:], values[split:]))) == record
    # The fields with a default trail the others, and may be left out.
    required = len(names) - len(cls._defaults)
    assert set(names[required:]) == set(cls._defaults)
    assert cls(*values[:required]) == cls(**dict(zip(names[:required], values))) == record
    with pytest.raises(TypeError, match=f"missing field {names[required - 1]!r}"):
        cls(*values[:required - 1])
    with pytest.raises(TypeError, match=f"missing field {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=f"takes {len(names)} fields, got {len(names) + 1}"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unknown field 'nosuch'"):
        cls(*values, nosuch=None)
    with pytest.raises(TypeError, match="unknown field 'nosuch'"):
        cls(**keywords, nosuch=None)
    with pytest.raises(TypeError, match=f"repeated field {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})


SOURCE = Path(ladderdet.__file__).parent


def _stores_only_its_parameters(init: ast.FunctionDef) -> bool:
    """Whether each statement of the constructor, past a docstring, stores a
    parameter into the slot of its name: `set_field(self, "x", x)`,
    `object.__setattr__(self, "x", x)` or `self.x = x`."""
    params = {arg.arg for arg in init.args.args[1:] + init.args.kwonlyargs}
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body

    def stores(stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            args = stmt.value.args
            return (len(args) == 3 and isinstance(args[1], ast.Constant)
                    and isinstance(args[2], ast.Name) and args[1].value == args[2].id in params)
        return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Attribute) and isinstance(stmt.value, ast.Name)
                and stmt.targets[0].attr == stmt.value.id in params)

    return bool(body) and all(map(stores, body))


def _set_field_owners(node, owner=""):
    """(qualified name of the enclosing class or function, call) for every
    `set_field` call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from _set_field_owners(child, f"{owner}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "set_field":
            yield owner, child
        yield from _set_field_owners(child, owner)


def test_no_constructor_only_stores_its_parameters():
    # Such a constructor is `Record.__init__` spelled out again.
    found = [f"{path.name}:{cls.name}"
             for path in sorted(SOURCE.glob("*.py"))
             for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
             for item in cls.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"
             and _stores_only_its_parameters(item)]
    assert not found


def test_set_field_sets_fields_only_in_normalising_constructors():
    # Outside `record.py`, `set_field` sets a field only in a constructor
    # that normalises or validates its arguments; elsewhere it fills a cache
    # slot, whose name starts with an underscore.
    owners = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "record.py":
            continue
        for owner, call in _set_field_owners(ast.parse(path.read_text())):
            if not call.args[1].value.startswith("_"):
                owners.add(owner)
    assert owners == {"Ladder.__init__", "Minor.__init__", "Ring.__init__",
                      "PartialPermutation.__init__", "PosetIdealSpec.__init__"}


def test_no_record_subclass_defines_its_own_equality_or_hash():
    # A record compares and hashes by `Record`'s one rule, over its
    # `_fields`; a subclass that names `__eq__` or `__hash__` (by a def or
    # an assignment) is a second equality path.
    classes = [cls for path in sorted(SOURCE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)]
    records = {"Record"}
    while True:
        more = {cls.name for cls in classes
                if any(getattr(base, "id", None) in records for base in cls.bases)}
        if more <= records:
            break
        records |= more
    found = []
    for cls in classes:
        if cls.name not in records - {"Record"}:
            continue
        for item in cls.body:
            names = ([item.name] if isinstance(item, ast.FunctionDef)
                     else [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)])
            found += [f"{cls.name}.{name}" for name in names if name in ("__eq__", "__hash__")]
    assert "Minor" in records and "Ring" in records and "Check" in records
    assert not found


def test_records_of_two_classes_with_equal_fields_differ():
    assert Sum((LEAF,)) != Intersect((LEAF,))
    assert PosetIdealSpec("explicit", ()) != VerifyReport("explicit", ())


def test_derived_and_cached_attributes_stay_out_of_equality_and_repr():
    fresh = Ladder((2, 2), ((1, 2),), ((2, 1),))
    assert fresh.spans == ((1, 2), (1, 2))
    assert fresh == LADDER and hash(fresh) == hash(LADDER) and repr(fresh) == LADDER_TEXT
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
