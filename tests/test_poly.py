"""Polynomial core: variable order, monomial comparison, minors, formats."""

import ast
import math
import random
import re
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from ladderdet import poly
from ladderdet.fields import GF, QQ
import tuple_monomials as ref
from ladderdet.poly import (
    MAX_EXPONENT,
    MONO_ONE,
    ExponentOverflow,
    InstanceTooLarge,
    Minor,
    Monomial,
    Polynomial,
    aux_var,
    expand_minor,
    grid_var,
    mono,
    mono_degree,
    mono_div,
    mono_divides,
    mono_is_squarefree,
    mono_lcm,
    mono_mask,
    mono_mul,
    mono_pow,
    packing_of,
    parse_polynomial,
    poly_to_str,
    time_limit,
)


def gv(i, j):
    return grid_var(i, j)


def P(text, field=QQ):
    return parse_polynomial(text, field)


def lead(f):
    """The antidiagonal-lex leading monomial of f, read in its packing."""
    return Monomial(f.packing, f.leading_term()[0])


# -- independent oracle: cofactor expansion along the first row


def cofactor_det(rows, cols, field=QQ):
    if len(rows) == 1:
        return Polynomial.variable(field, gv(rows[0], cols[0]))
    acc = Polynomial.zero(field)
    for idx, c in enumerate(cols):
        rest = cols[:idx] + cols[idx + 1:]
        sub = cofactor_det(rows[1:], rest, field)
        term = Polynomial.variable(field, gv(rows[0], c)) * sub
        acc = acc + (term if idx % 2 == 0 else -term)
    return acc


def test_displayed_variable_order():
    # x[1,l] > ... > x[1,1] > x[2,l] > ... > x[k,1]
    vs = [gv(i, j) for i in (1, 2) for j in (3, 2, 1)]
    assert sorted(vs, key=lambda v: v.key, reverse=True) == vs


def compare(a, b):
    """-1, 0 or 1: two `mono`s packed in their joint ring, compared as ints."""
    packing = packing_of(v for m in (a, b) for v, _ in m.exponents())
    pa, pb = packing.pack(a.exponents()), packing.pack(b.exponents())
    return (pa > pb) - (pa < pb)


def test_compare_monomials_examples():
    a = mono((gv(1, 2), 1))
    b = mono((gv(1, 1), 1))
    assert compare(a, b) == 1
    assert compare(a, a) == 0
    lead = mono((gv(1, 2), 1), (gv(2, 1), 1))
    tail = mono((gv(1, 1), 1), (gv(2, 2), 1))
    assert compare(lead, tail) == 1


def test_aux_above_grid():
    t = aux_var("t")
    assert compare(mono((t, 1)), mono((gv(1, 9), 5))) == 1


def test_elimination_order_blocks():
    # Antidiagonal-lex is the elimination order: the auxiliaries sit on top.
    t = aux_var("t")
    with_aux = mono((t, 1), (gv(2, 2), 1))
    without = mono((gv(1, 3), 4), (gv(1, 1), 4))
    assert compare(with_aux, without) == 1


def test_no_engine_function_takes_a_term_order():
    # Antidiagonal-lex is the one term order, and packed monomials compare
    # under it as plain ints: no function of the package takes an `order`.
    source = Path(poly.__file__).parent
    found = [f"{path.name}:{node.lineno}:{node.name}"
             for path in sorted(source.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                         node.args.vararg, node.args.kwarg)
             if arg is not None and arg.arg == "order"]
    assert not found


def _reference_block_key(m):
    """The elimination key of a tuple monomial as a two-block tuple: aux
    part, then grid part."""
    split = 0
    while split < len(m) and m[split][0][0] == 1:
        split += 1
    return (m[:split], m[split:])


_VARIABLES = ([gv(i, j) for i in range(1, 5) for j in range(1, 5)]
              + [aux_var("t"), aux_var("t", 1), aux_var("s")])
_PACKING = packing_of(_VARIABLES)


def _random_pairs(rng, count, top=3):
    """Random monomials over grid and auxiliary variables, as (Variable,
    exponent) pair lists with each exponent at most `top`."""
    out = []
    for _ in range(count):
        exps = {}
        for v in rng.sample(_VARIABLES, rng.randint(0, 5)):
            exps[v] = rng.randint(1, top)
        out.append(list(exps.items()))
    return out


def test_elim_antidiag_sorts_as_native_ints():
    pairs = _random_pairs(random.Random(11), 500)
    tuples = [ref.tuple_mono(p) for p in pairs]
    packed = [_PACKING.pack(p) for p in pairs]
    assert sum(1 for m in tuples if m and m[0][0][0] == 1) > 100  # plenty with aux
    expected = sorted(tuples, key=_reference_block_key)
    assert [tuples[i] for i in sorted(range(500), key=packed.__getitem__)] == expected
    rng = random.Random(12)
    for _ in range(500):
        a, b = rng.randrange(500), rng.randrange(500)
        ka, kb = _reference_block_key(tuples[a]), _reference_block_key(tuples[b])
        assert (packed[a] > packed[b]) - (packed[a] < packed[b]) == (ka > kb) - (ka < kb)


def test_packed_operations_match_tuple_reference():
    # Exponents up to the field limit, over grid and auxiliary variables.
    rng = random.Random(31)
    guard = _PACKING.guard
    pairs = _random_pairs(rng, 300, MAX_EXPONENT)
    pairs += [[(v, rng.randint(1, 2)) for v, _ in p] for p in _random_pairs(rng, 100)]
    tuples = [ref.tuple_mono(p) for p in pairs]
    packed = [_PACKING.pack(p) for p in pairs]

    def pack(t):
        return _PACKING.pack((v, e) for v in _VARIABLES for k, e in t if k == v.key)

    for _ in range(3000):
        i, j = rng.randrange(len(pairs)), rng.randrange(len(pairs))
        (a, ta), (b, tb) = (packed[i], tuples[i]), (packed[j], tuples[j])
        product = ref.mono_mul(ta, tb)
        if max((e for _, e in product), default=0) <= MAX_EXPONENT:
            assert mono_mul(a, b) == pack(product) and not mono_mul(a, b) & guard
        else:
            assert mono_mul(a, b) & guard  # past the field: flagged, not carried
        assert mono_lcm(a, b, guard) == pack(ref.mono_lcm(ta, tb))
        assert mono_divides(a, b, guard) == ref.mono_divides(ta, tb)
        quotient = ref.mono_div(ta, tb)
        assert mono_div(a, b, guard) == (None if quotient is None else pack(quotient))
        assert mono_degree(a) == ref.mono_degree(ta)
        assert (not mono_mask(a, _PACKING) & mono_mask(b, _PACKING)) == ref.coprime(ta, tb)
        assert (a > b) - (a < b) == (ta > tb) - (ta < tb)


def test_exponents_past_the_field_raise():
    x, y = gv(1, 1), gv(1, 2)
    assert mono((x, MAX_EXPONENT)).value == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        mono((x, MAX_EXPONENT + 1))
    with pytest.raises(ExponentOverflow):
        parse_polynomial("x[1,1]^200*x[1,2]*x[1,1]^56")
    f = parse_polynomial(f"x[1,1]^{MAX_EXPONENT - 1} + x[1,2]")
    assert (f * parse_polynomial("x[1,2]")).degree() == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        f * parse_polynomial("x[1,1]^2")
    with pytest.raises(ExponentOverflow):
        Polynomial.variable(QQ, x) ** (MAX_EXPONENT + 1)
    assert (Polynomial.variable(QQ, x) ** MAX_EXPONENT).degree() == MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        f.mul_term(f.packing.pack([(x, 2)]), 1)
    packing = packing_of([x, y])
    xy = packing.pack([(x, 100), (y, 1)])
    assert mono_pow(xy, 2, packing.guard) == packing.pack([(x, 200), (y, 2)])
    with pytest.raises(ExponentOverflow):
        mono_pow(xy, 3, packing.guard)
    # The degree stays exact past 2^9 - 1, where one field modulus would wrap.
    many = packing_of(_VARIABLES[:4])
    assert mono_degree(many.pack((v, MAX_EXPONENT) for v in _VARIABLES[:4])) == 4 * MAX_EXPONENT
    assert mono_is_squarefree(many.pack((v, 1) for v in _VARIABLES[:4]))
    # Past MAX_VARIABLES the pairwise degree sum could wrap: refused.
    with pytest.raises(InstanceTooLarge):
        packing_of(gv(i, j) for i in range(1, 34) for j in range(1, 33))


def test_expand_minor_honours_time_limit():
    # Above the table size a minor is a Laplace sum of table blocks, and
    # each block checks the budget before its first term: at n = 12 the
    # first check comes after six rows of cofactor choices, not after a
    # list of all 12! terms.  The whole 8 x 8 expansion takes about 0.05 s
    # on a 2-CPU machine, ten times the budget.
    for n in (8, 12):
        minor = Minor(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        start = time.monotonic()
        with pytest.raises(InstanceTooLarge):
            with time_limit(0.005):
                expand_minor(minor)
        assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("n", range(1, 9))
def test_expand_minor_from_the_table_checks_the_budget(n):
    # A minor read off the cached table checks the budget once, before its
    # first term, however few terms it has; a larger one checks it before
    # the first term of its first table block.
    minor = Minor(tuple(range(1, n + 1)), tuple(range(1, n + 1)))
    with time_limit(-1):
        with pytest.raises(InstanceTooLarge):
            expand_minor(minor)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_products_honour_time_limit(field):
    # The product of three row sums of a 3 x 12 grid has 1,728 terms, each
    # with coefficient 1; its square, 3 million term products, takes over
    # a second on a 2-CPU machine.  The budget is checked once per row of a
    # product, in both coefficient branches.
    f = Polynomial.one(field)
    for i in (1, 2, 3):
        f = f * sum((Polynomial.variable(field, gv(i, j)) for j in range(1, 13)),
                    Polynomial.zero(field))
    assert len(f.terms) == 1728
    for product in (lambda: f * f, lambda: f ** 2):
        start = time.monotonic()
        with pytest.raises(InstanceTooLarge):
            with time_limit(0.02):
                product()
        assert time.monotonic() - start < 0.5


def _inversion_count_expansion(m, field, packing):
    """The Leibniz expansion with an inversion count per permutation, as
    `expand_minor` computed its signs before it cached their parities."""
    n = m.size
    bit = [[1 << packing.shift[gv(i, j)] for j in m.cols] for i in m.rows]
    plus, minus = field.coerce(1), field.coerce(-1)
    terms = {}
    for perm in permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        terms[sum(row[b] for row, b in zip(bit, perm))] = minus if inversions & 1 else plus
    return Polynomial(field, terms, packing)


@pytest.mark.parametrize("block", [poly._LEIBNIZ_BLOCK, 1, 3], ids=["table", "block-1", "block-3"])
def test_expand_minor_matches_the_inversion_count_expansion(monkeypatch, block):
    # Sizes up to _LEIBNIZ_BLOCK read their signs from the cached table, and
    # larger ones are Laplace sums along the first row down to blocks of
    # that size: with blocks of 1 or 3 rows, sizes 2 to 6 take that path
    # too, and at the real size so do one minor of size 7 and one of 8.  The
    # terms come in the order of `permutations`.  Over GF(2) both signs
    # are 1.
    monkeypatch.setattr(poly, "_LEIBNIZ_BLOCK", block)
    rng = random.Random(720)
    packing = packing_of(gv(i, j) for i in range(1, 10) for j in range(1, 10))
    cases = [(n, field) for n in range(1, 7) for field in (QQ, GF(2), GF(3), GF(5))]
    if block == poly._LEIBNIZ_BLOCK:
        cases += [(7, QQ), (8, GF(3))]
    for n, field in cases:
        rows = tuple(sorted(rng.sample(range(1, 10), n)))
        cols = tuple(sorted(rng.sample(range(1, 10), n)))
        m = Minor(rows, cols)
        f = expand_minor(m, field, packing)
        expected = _inversion_count_expansion(m, field, packing)
        assert f == expected and list(f.terms) == list(expected.terms)
        assert len(f.terms) == math.factorial(n)
        if field == GF(2):
            assert set(f.terms.values()) == {1}


def test_time_limit_is_shared_with_groebner():
    import ladderdet
    from ladderdet import groebner

    assert groebner._check_deadline is poly._check_deadline and time_limit is ladderdet.time_limit
    assert groebner.InstanceTooLarge is InstanceTooLarge is ladderdet.InstanceTooLarge


def test_expand_minor_examples():
    assert expand_minor(Minor((1,), (1,))) == Polynomial.variable(QQ, gv(1, 1))
    det2 = expand_minor(Minor((1, 2), (1, 2)))
    assert det2 == P("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    assert lead(det2) == mono((gv(1, 2), 1), (gv(2, 1), 1))
    det3 = expand_minor(Minor((1, 2, 3), (1, 2, 3)))
    assert len(det3.terms) == 6
    assert det3.degree() == 3
    assert str(lead(det3)) == "x[1,3]*x[2,2]*x[3,1]"


def test_expand_minor_against_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(12):
        size = rng.randint(1, 4)
        rows = tuple(sorted(rng.sample(range(1, 6), size)))
        cols = tuple(sorted(rng.sample(range(1, 6), size)))
        assert expand_minor(Minor(rows, cols)) == cofactor_det(rows, cols)


def test_determinant_alternating_in_rows():
    # Swapping two rows negates the determinant (oracle-level check).
    rows, cols = (1, 2, 3), (1, 2, 3)
    swapped = cofactor_det((2, 1, 3), cols)
    assert swapped == -cofactor_det(rows, cols)


def test_minor_antidiagonal_lead_property():
    rng = random.Random(11)
    for _ in range(20):
        size = rng.randint(1, 4)
        rows = tuple(sorted(rng.sample(range(1, 7), size)))
        cols = tuple(sorted(rng.sample(range(1, 7), size)))
        m = Minor(rows, cols)
        f = expand_minor(m)
        coeff = f.leading_term()[1]
        assert lead(f) == m.antidiagonal_monomial()
        assert coeff == Fraction(-1) ** (size * (size - 1) // 2)


def test_minor_stores_any_index_sequence_as_a_tuple():
    rng = random.Random(26)
    for _ in range(200):
        size = rng.randint(1, 5)
        rows = tuple(sorted(rng.sample(range(1, 12), size)))
        cols = tuple(sorted(rng.sample(range(1, 12), size)))
        m = Minor(rows, cols)
        for r, c in [(list(rows), list(cols)), (iter(rows), (j for j in cols)), (rows, list(cols))]:
            other = Minor(r, c)
            assert other == m and type(other.rows) is tuple and type(other.cols) is tuple
        # The antidiagonal monomial is the product of the antidiagonal cells.
        assert m.antidiagonal_cells() == [(rows[a], cols[size - 1 - a]) for a in range(size)]
        expected = mono(*((grid_var(i, j), 1) for i, j in m.antidiagonal_cells()))
        got = m.antidiagonal_monomial()
        assert got == expected and got.variables == expected.packing.variables
        assert got.value == expected.value
    m = Minor(range(2, 5), range(3, 6))
    assert m.rows == (2, 3, 4) and m.cols == (3, 4, 5)
    # Cells whose variables nobody has interned yet.
    fresh = Minor((7001, 7002), (9001, 9003)).antidiagonal_monomial()
    assert fresh.variables == (grid_var(7001, 9003), grid_var(7002, 9001))


@pytest.mark.parametrize("rows, cols, message", [
    ((1, 2), (1,), "minor needs equally many rows and cols: (1, 2)|(1,)"),
    ([1], [1, 2], "minor needs equally many rows and cols: (1,)|(1, 2)"),
    ((), (), "minor needs equally many rows and cols: ()|()"),
    ((2, 1), (1, 2), "minor indices must strictly increase: (2, 1)|(1, 2)"),
    ([1, 2], [3, 3], "minor indices must strictly increase: (1, 2)|(3, 3)"),
    ((0, 0), (1, 2), "minor indices must strictly increase: (0, 0)|(1, 2)"),
    ((0, 1), (1, 2), "minor indices are 1-based"),
    (range(1, 3), range(0, 2), "minor indices are 1-based"),
])
def test_minor_rejects_bad_indices(rows, cols, message):
    with pytest.raises(ValueError) as err:
        Minor(rows, cols)
    assert str(err.value) == message


def test_packed_in_moves_each_field_to_its_variable():
    rng = random.Random(27)
    grid = [grid_var(i, j) for i in range(1, 5) for j in range(1, 5)]
    target = packing_of(grid)
    for _ in range(200):
        pairs = [(v, rng.randint(1, MAX_EXPONENT)) for v in rng.sample(grid, rng.randint(0, 8))]
        m = mono(*pairs)
        assert m.packed_in(target) == target.pack(pairs)
        assert m.packed_in(m.packing) == m.value
    with pytest.raises(ValueError, match="outside the ring"):
        mono((grid_var(5, 1), 1), (grid_var(1, 1), 2)).packed_in(target)


def test_leading_term_examples():
    one = Polynomial.one(QQ)
    assert one.leading_term() == (MONO_ONE, Fraction(1))
    with pytest.raises(ValueError):
        Polynomial.zero(QQ).leading_term()
    prod = expand_minor(Minor((1, 2), (1, 2))) * expand_minor(Minor((2, 3), (2, 3)))
    assert str(lead(prod)) == "x[1,2]*x[2,3]*x[2,1]*x[3,2]"


def test_lead_multiplicativity():
    rng = random.Random(3)
    packing = packing_of(gv(i, j) for i in range(1, 4) for j in range(1, 4))
    monos = [packing.pack([(gv(rng.randint(1, 3), rng.randint(1, 3)), rng.randint(1, 2))])
             for _ in range(6)]
    f = Polynomial.from_terms(QQ, [(m, rng.randint(1, 5)) for m in monos[:3]], packing)
    g = Polynomial.from_terms(QQ, [(m, rng.randint(-5, -1)) for m in monos[3:]], packing)
    fm, fc = f.leading_term()
    gm, gc = g.leading_term()
    pm, pc = (f * g).leading_term()
    assert pm == mono_mul(fm, gm)
    assert pc == fc * gc


def reduce_mod(f, p):
    """Image in GF(p) of a rational polynomial with p-integral coefficients."""
    return Polynomial.from_terms(GF(p), f.terms.items(), f.packing)


def test_modular_matches_rational_mod_p():
    rng = random.Random(9)
    for p in (2, 5):
        f = P("3*x[1,1]^2 - 7*x[2,2]")
        g = expand_minor(Minor((1, 2), (1, 2)))
        for h in (f + g, f * g, f * g - g, (f + g) ** 2):
            reduced = reduce_mod(h, p)
            direct_terms = {m: c % p for m, c in h.terms.items() if c % p}
            assert reduced.terms == direct_terms


def test_pow_and_scalars():
    x = Polynomial.variable(QQ, gv(1, 1))
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x * 0).is_zero
    assert (x ** 0) == Polynomial.one(QQ)


# Names, and auxiliaries of rank 1 and above, which print as `name[r]`.
_NAMES = [aux_var(name) for name in ("s", "t", "y_2", "Alpha")] + [aux_var("t", 1),
                                                                   aux_var("s", 12)]


def _random_polynomial(rng, field):
    """A seeded polynomial over grid variables and names, exponents up to
    `MAX_EXPONENT`, and (over QQ) negative and fractional coefficients."""
    variables = rng.sample([gv(i, j) for i in range(1, 4) for j in range(1, 12)] + _NAMES,
                           rng.randint(1, 6))
    packing = packing_of(variables)
    terms = []
    for _ in range(rng.randint(1, 5)):
        exponents = [(v, rng.choice([0, 1, 2, 3, rng.randint(4, MAX_EXPONENT)]))
                     for v in rng.sample(variables, rng.randint(0, len(variables)))]
        coeff = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7]) if field == QQ else 1)
        terms.append((packing.pack(exponents), coeff))
    return Polynomial.from_terms(field, terms, packing)


def test_text_roundtrip():
    f = 3 * expand_minor(Minor((1, 2), (1, 2))) + Polynomial.constant(QQ, Fraction(1, 2))
    assert parse_polynomial(poly_to_str(f)) == f
    g = parse_polynomial("3*x[1,2]^2*x[3,1] - t + 1/4")
    assert poly_to_str(g) == "-t + 3*x[1,2]^2*x[3,1] + 1/4"
    assert parse_polynomial(poly_to_str(g)) == g
    assert poly_to_str(Polynomial.zero(QQ)) == "0"
    # An auxiliary of rank 1 prints with its rank in brackets, so it is not
    # read back as another name, `t1`, of rank 0 and below `z`.
    h = Polynomial.variable(QQ, aux_var("t", 1)) + Polynomial.variable(QQ, aux_var("z"))
    assert poly_to_str(h) == "t[1] + z"
    assert parse_polynomial(poly_to_str(h)) == h
    assert parse_polynomial("t [ 1 ]^2 - t[0]") == parse_polynomial("t[1]^2 - t")
    # Seeded polynomials read back to themselves, in the ring of the
    # variables they use.
    rng = random.Random(49)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(300):
            f = _random_polynomial(rng, field)
            g = parse_polynomial(poly_to_str(f), field)
            assert g == f and poly_to_str(g) == poly_to_str(f)
            used = {v for m in f.terms for v, _ in Monomial(f.packing, m).exponents()}
            assert g.packing.variables == packing_of(used).variables


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x[1,2] %% 3")
    with pytest.raises(ValueError):
        parse_polynomial("")
    # Text outside the printed grammar, which a reader that skips every `*`
    # and starts a term at every sign would misread: the error names the
    # factor it could not read, or says that a factor is empty.
    for text, factor in [("x[1,1]**2", None), ("x[1,1]*-x[1,2]", None), ("--x[1,1]", None),
                         ("+-x[1,1]", None), ("x[1,1]+", None), ("*x[1,1]", None),
                         ("x[1,1]*", None), ("2x[1,1]", "2x[1,1]"),
                         ("x[1,1] x[2,2]", "x[1,1] x[2,2]"), ("1e5", "1e5"), ("tē", "tē")]:
        named = "empty factor" if factor is None else f"cannot read factor {factor!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_polynomial(text)


def test_operator_soup_is_refused_or_read_in_the_printed_grammar():
    # Random strings of factors and operators: each is refused, or read as
    # a polynomial that its printed text reads back to.
    rng = random.Random(4949)
    pieces = ["x[1,1]", "x[2,3]", "t", "s", "2", "1/3", "0", "*", "*", "+", "-", "^", "^2",
              " ", "**", "x", "[", "1"]
    read = 0
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
        try:
            f = parse_polynomial(text)
        except ValueError:
            continue
        read += 1
        assert parse_polynomial(poly_to_str(f)) == f, text
    assert read > 100


def test_field_arithmetic_and_inverse():
    F7 = GF(7)
    assert F7.inv(3) == 5
    assert F7.coerce(Fraction(1, 3)) == 5
    assert QQ.coerce("2/6") == Fraction(1, 3)
    with pytest.raises(ValueError):
        GF(6)


def test_rational_inverse_and_quotient_of_an_int_are_exact():
    # An integral value is an int and any other one a Fraction: 1 / 3 of two
    # ints would be a float.
    for value, expected in ((QQ.inv(3), Fraction(1, 3)), (QQ.div(2, 4), Fraction(1, 2)),
                            (QQ.div(-3, 2), Fraction(-3, 2))):
        assert type(value) is Fraction and value == expected
    for value, expected in ((QQ.inv(1), 1), (QQ.inv(-1), -1), (QQ.div(6, 3), 2),
                            (QQ.div(6, -1), -6), (QQ.div(Fraction(2, 3), Fraction(1, 3)), 2),
                            (QQ.add(Fraction(1, 2), Fraction(1, 2)), 1),
                            (QQ.mul(Fraction(2, 3), 3), 2), (QQ.coerce(Fraction(4, 2)), 2),
                            (QQ.coerce("6/3"), 2)):
        assert type(value) is int and value == expected
    assert GF(7).div(3, 5) == 2 and GF(7).div(4, 1) == 4
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    x = Polynomial.variable(QQ, gv(1, 1))
    half = (x * Fraction(1, 2) + 1).monic()
    assert [type(c) for _, c in half.sorted_terms()] == [int, int]
    assert half == x + 2


def test_malformed_coefficients_raise_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_polynomial("1/0*x[1,1]")
    with pytest.raises(ValueError, match="not invertible mod 7"):
        parse_polynomial("1/7*x[1,1]", GF(7))
    with pytest.raises(ValueError, match="not invertible mod 3"):
        reduce_mod(parse_polynomial("1/6*x[1,1]"), 3)
    with pytest.raises(ValueError):
        QQ.coerce("1/0")


def test_distinct_auxiliaries_do_not_collide():
    s, t = aux_var("s"), aux_var("t")
    assert s is not t and s.key != t.key
    f = parse_polynomial("s*t + t^2 - s")
    assert len(f.terms) == 3
    assert parse_polynomial(poly_to_str(f)) == f
    # higher rank outranks the name, keeping fresh eliminations stacked above
    assert aux_var("a", 1).key > aux_var("z", 0).key


def test_support_masks_decide_coprimality_and_reject_non_divisors():
    rng = random.Random(7)
    masks = {mono_mask(_PACKING.pack([(v, 1)]), _PACKING) for v in _VARIABLES}
    assert len(masks) == len(_VARIABLES) and all(m.bit_count() == 1 for m in masks)
    guard = _PACKING.guard
    for _ in range(500):
        a, b = (_PACKING.pack(p) for p in _random_pairs(rng, 2))
        ma, mb = mono_mask(a, _PACKING), mono_mask(b, _PACKING)
        assert (not ma & mb) == (mono_lcm(a, b, guard) == mono_mul(a, b))
        if ma & ~mb:
            assert not mono_divides(a, b, guard)


def test_equality_and_hash_do_not_depend_on_the_packing():
    f = P("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    wide = f.repack(packing_of(gv(i, j) for i in range(1, 4) for j in range(1, 4)))
    assert wide.packing is not f.packing and wide.terms != f.terms
    assert wide == f and hash(wide) == hash(f)
    assert {wide} == {f} and wide != P("x[1,1]*x[2,2] + x[1,2]*x[2,1]")
    assert P("x[1,1]") != P("x[2,2]")
    with pytest.raises(ValueError):
        P("x[3,3]").repack(f.packing)


@pytest.mark.parametrize("other", [None, "abc", "3", [1], object()],
                         ids=["None", "abc", "str-3", "list", "object"])
def test_a_polynomial_is_unequal_to_what_is_not_a_number(other):
    # Only a polynomial or a rational number can equal a polynomial: a
    # constant is not its decimal string, and no comparison raises.
    for f in (P("3"), Polynomial.zero(QQ), P("x[1,1] + 3")):
        assert not f == other and f != other
        assert f not in [other]
    three = P("3")
    assert three == 3 and three == Fraction(3) and three != Fraction(1, 3)
    assert Polynomial.zero(GF(3)) == 0 == Polynomial.constant(GF(3), 3)
    # 1/3 has no image in GF(3), so no element there equals it.
    for f in (Polynomial.zero(GF(3)), Polynomial.constant(GF(3), 1)):
        assert not f == Fraction(1, 3) and f != Fraction(1, 3)
