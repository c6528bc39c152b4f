"""Polynomial core: variable order, monomial comparison, minors, formats."""

import random
import time
from fractions import Fraction

import pytest

from ladderdet.fields import GF, QQ
from ladderdet.poly import (
    ANTIDIAG,
    ELIM,
    GREVLEX,
    InstanceTooLarge,
    Minor,
    Polynomial,
    TermOrder,
    aux_var,
    compare_monomials,
    expand_minor,
    grid_var,
    mono,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
    mono_to_str,
    parse_polynomial,
    poly_to_str,
    time_limit,
)


def gv(i, j):
    return grid_var(i, j)


def P(text, field=QQ):
    return parse_polynomial(text, field)


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


def test_compare_monomials_examples():
    a = mono((gv(1, 2), 1))
    b = mono((gv(1, 1), 1))
    assert compare_monomials(ANTIDIAG, a, b) == 1
    assert compare_monomials(ANTIDIAG, a, a) == 0
    lead = mono((gv(1, 2), 1), (gv(2, 1), 1))
    tail = mono((gv(1, 1), 1), (gv(2, 2), 1))
    assert compare_monomials(ANTIDIAG, lead, tail) == 1


def test_aux_above_grid():
    t = aux_var("t")
    assert compare_monomials(ANTIDIAG, mono((t, 1)), mono((gv(1, 9), 5))) == 1


def test_grevlex_classics():
    x, y, z = gv(1, 3), gv(1, 2), gv(1, 1)  # x > y > z
    assert compare_monomials(GREVLEX, mono((x, 2)), mono((x, 1), (y, 1))) == 1
    assert compare_monomials(GREVLEX, mono((x, 1), (y, 1)), mono((z, 2))) == 1
    assert compare_monomials(GREVLEX, mono((x, 3)), mono((x, 1), (y, 1))) == 1  # degree first


def test_grevlex_differs_from_lex():
    x, y, z = gv(1, 3), gv(1, 2), gv(1, 1)
    a, b = mono((x, 1), (z, 1)), mono((y, 2))
    assert compare_monomials(ANTIDIAG, a, b) == 1   # lex looks at x first
    assert compare_monomials(GREVLEX, a, b) == -1   # grevlex punishes the z


def test_elimination_order_blocks():
    t = aux_var("t")
    order = TermOrder("elim")
    with_aux = mono((t, 1), (gv(2, 2), 1))
    without = mono((gv(1, 3), 4), (gv(1, 1), 4))
    assert compare_monomials(order, with_aux, without) == 1


def _reference_block_key(m):
    """The elimination key as a two-block tuple: aux part, then grid part."""
    split = 0
    while split < len(m) and m[split][0][0] == 1:
        split += 1
    return (m[:split], m[split:])


def _random_monomials(seed, count):
    rng = random.Random(seed)
    variables = [gv(i, j) for i in range(1, 5) for j in range(1, 5)]
    variables += [aux_var("t"), aux_var("t", 1), aux_var("s")]
    return [mono(*((rng.choice(variables), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))))
            for _ in range(count)]


def test_elim_antidiag_sorts_as_native_tuples():
    assert ANTIDIAG.is_native and ELIM.is_native
    assert not GREVLEX.is_native
    monos = _random_monomials(11, 500)
    assert sum(1 for m in monos if m and m[0][0][0] == 1) > 100  # plenty with aux
    expected = sorted(monos, key=_reference_block_key)
    assert sorted(monos) == expected
    assert sorted(monos, key=ELIM.key) == expected
    rng = random.Random(12)
    for _ in range(500):
        a, b = rng.choice(monos), rng.choice(monos)
        ka, kb = _reference_block_key(a), _reference_block_key(b)
        assert compare_monomials(ELIM, a, b) == (ka > kb) - (ka < kb)


def test_expand_minor_honours_time_limit():
    eight = Minor(tuple(range(1, 9)), tuple(range(1, 9)))
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.05):
            expand_minor(eight)
    assert time.monotonic() - start < 0.5


def test_time_limit_is_shared_with_groebner():
    import ladderdet
    from ladderdet import groebner

    assert groebner.time_limit is time_limit is ladderdet.time_limit
    assert groebner.InstanceTooLarge is InstanceTooLarge is ladderdet.InstanceTooLarge


def test_expand_minor_examples():
    assert expand_minor(Minor((1,), (1,))) == Polynomial.variable(QQ, gv(1, 1))
    det2 = expand_minor(Minor((1, 2), (1, 2)))
    assert det2 == P("x[1,1]*x[2,2] - x[1,2]*x[2,1]")
    assert det2.leading_term(ANTIDIAG)[0] == mono((gv(1, 2), 1), (gv(2, 1), 1))
    det3 = expand_minor(Minor((1, 2, 3), (1, 2, 3)))
    assert len(det3.terms) == 6
    assert det3.degree() == 3
    assert mono_to_str(det3.leading_term(ANTIDIAG)[0]) == "x[1,3]*x[2,2]*x[3,1]"


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
        lead, coeff = expand_minor(m).leading_term(ANTIDIAG)
        assert lead == m.antidiagonal_monomial()
        assert coeff == Fraction(-1) ** (size * (size - 1) // 2)


def test_leading_term_examples():
    one = Polynomial.one(QQ)
    assert one.leading_term(ANTIDIAG) == ((), Fraction(1))
    with pytest.raises(ValueError):
        Polynomial.zero(QQ).leading_term(ANTIDIAG)
    prod = expand_minor(Minor((1, 2), (1, 2))) * expand_minor(Minor((2, 3), (2, 3)))
    assert mono_to_str(prod.leading_term(ANTIDIAG)[0]) == "x[1,2]*x[2,3]*x[2,1]*x[3,2]"


def test_lead_multiplicativity():
    rng = random.Random(3)
    monos = [mono((gv(rng.randint(1, 3), rng.randint(1, 3)), rng.randint(1, 2))) for _ in range(6)]
    f = Polynomial.from_terms(QQ, [(m, rng.randint(1, 5)) for m in monos[:3]])
    g = Polynomial.from_terms(QQ, [(m, rng.randint(-5, -1)) for m in monos[3:]])
    fm, fc = f.leading_term(ANTIDIAG)
    gm, gc = g.leading_term(ANTIDIAG)
    pm, pc = (f * g).leading_term(ANTIDIAG)
    from ladderdet.poly import mono_mul

    assert pm == mono_mul(fm, gm)
    assert pc == fc * gc


def test_modular_matches_rational_mod_p():
    rng = random.Random(9)
    for p in (2, 5):
        f = Polynomial.from_terms(QQ, [(mono((gv(1, 1), 2)), 3), (mono((gv(2, 2), 1)), -7)])
        g = expand_minor(Minor((1, 2), (1, 2)))
        for h in (f + g, f * g, f * g - g, (f + g) ** 2):
            reduced = h.reduce_mod(p)
            direct_terms = {m: c % p for m, c in h.terms.items() if c % p}
            assert reduced.terms == direct_terms


def test_pow_and_scalars():
    x = Polynomial.variable(QQ, gv(1, 1))
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x * 0).is_zero
    assert (x ** 0) == Polynomial.one(QQ)


def test_text_roundtrip():
    f = 3 * expand_minor(Minor((1, 2), (1, 2))) + Polynomial.constant(QQ, Fraction(1, 2))
    assert parse_polynomial(poly_to_str(f)) == f
    g = parse_polynomial("3*x[1,2]^2*x[3,1] - t + 1/4")
    assert poly_to_str(g) == "-t + 3*x[1,2]^2*x[3,1] + 1/4"
    assert parse_polynomial(poly_to_str(g)) == g
    assert poly_to_str(Polynomial.zero(QQ)) == "0"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x[1,2] %% 3")
    with pytest.raises(ValueError):
        parse_polynomial("")


def test_field_arithmetic_and_inverse():
    F7 = GF(7)
    assert F7.inv(3) == 5
    assert F7.coerce(Fraction(1, 3)) == 5
    assert QQ.coerce("2/6") == Fraction(1, 3)
    with pytest.raises(ValueError):
        GF(6)


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
    variables = [gv(i, j) for i in range(1, 5) for j in range(1, 5)] + [aux_var("t"), aux_var("t", 1)]
    assert len({mono_mask(mono((v, 1))) for v in variables}) == len(variables)
    for _ in range(500):
        a, b = (mono(*((rng.choice(variables), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))))
                for _ in range(2))
        ma, mb = mono_mask(a), mono_mask(b)
        assert (not ma & mb) == (mono_lcm(a, b) == mono_mul(a, b))
        if ma & ~mb:
            assert not mono_divides(a, b)
