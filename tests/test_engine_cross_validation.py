"""Cross-validation of the Groebner engine against sympy on random ideals.

sympy's polys module is an independent implementation; agreement of the
reduced bases on seeded random inputs guards the engine that every other
check in the suite leans on.  The 3x3 cases use exponents up to 2 and
non-integral coefficients, so the engine meets both forms of a rational
coefficient, int and Fraction, and leading coefficients other than 1.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from ladderdet.fields import GF, QQ
from ladderdet.groebner import Ideal, Ring, buchberger, is_groebner_basis
from ladderdet.ideals import mixed_ladder_ideal
from ladderdet.ladders import Ladder
from ladderdet.poly import (MONO_ONE, Minor, Monomial, Polynomial, expand_minor, grid_var,
                            packing_of)
from test_groebner import assert_exact_coefficients

SCALARS = (-2, -1, 1, 3, Fraction(2, 3), Fraction(-1, 2))
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "ladderdet" / "fixtures"
PAIRS = [(1, 2), (1, 3), (2, 3)]


def _random_poly(rng, variables, max_terms=4, max_deg=3, field=QQ,
                 coeffs=(-3, -2, -1, 1, 2, 3), max_exp=1):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = []
        for _ in range(rng.randint(0, max_deg)):
            m.append((rng.choice(variables), rng.randint(1, max_exp) if max_exp > 1 else 1))
        coeff = rng.choice(coeffs)
        terms.append((m, coeff))
    packing = packing_of(v for m, _ in terms for v, _ in m)
    return Polynomial.from_terms(field, [(packing.pack(m), c) for m, c in terms], packing)


def _to_sympy(f, variables, symbols, sring):
    expr = sring.zero
    index = {v: i for i, v in enumerate(variables)}
    for m, c in f.terms.items():
        exps = [0] * len(variables)
        for v, e in Monomial(f.packing, m).exponents():
            exps[index[v]] = e
        term = sring.one
        for s, e in zip(sring.gens, exps):
            term *= s**e
        if isinstance(c, Fraction):
            coeff = sympy.Rational(c.numerator, c.denominator)
        else:
            coeff = c
        expr += coeff * term
    return expr


def _basis_as_sets(basis, variables):
    index = {v: i for i, v in enumerate(variables)}
    out = set()
    for g in basis:
        entry = []
        for m, c in sorted(g.terms.items()):
            exps = [0] * len(variables)
            for v, e in Monomial(g.packing, m).exponents():
                exps[index[v]] = e
            entry.append((tuple(exps), Fraction(c) if not isinstance(c, int) else c))
        out.add(frozenset(entry))
    return out


def _assert_exact_basis(basis):
    assert_exact_coefficients(c for g in basis for c in g.terms.values())


def _grid3_variables():
    return sorted((grid_var(i, j) for i in (1, 2, 3) for j in (1, 2, 3)),
                  key=lambda v: v.key, reverse=True)


def _minors_plus_noise(rng, variables, field):
    """Three scaled 2-minors of the generic 3x3 matrix and two random
    polynomials with exponents up to 2, all with coefficients from SCALARS."""
    gens = [expand_minor(Minor(rng.choice(PAIRS), rng.choice(PAIRS)), field)
            * field.coerce(rng.choice(SCALARS)) for _ in range(3)]
    gens += [_random_poly(rng, variables, max_terms=3, max_deg=2, field=field,
                          coeffs=SCALARS, max_exp=2) for _ in range(2)]
    return [g for g in gens if not g.is_zero]


def _sympy_groebner(gens, variables, domain, order_name):
    from sympy.polys.groebnertools import groebner as sympy_groebner

    symbols = sympy.symbols(f"v0:{len(variables)}")
    sring, *_ = sympy.ring(",".join(str(s) for s in symbols), domain, order_name)
    return sympy_groebner([_to_sympy(g, variables, symbols, sring) for g in gens], sring)


def _sympy_basis_as_sets(basis, nvars, modulus=None):
    out = set()
    for g in basis:
        entry = []
        for monom, coeff in zip(g.monoms(), g.coeffs()):
            if modulus is None:
                q = sympy.Rational(coeff)
                entry.append((tuple(monom), Fraction(int(q.p), int(q.q))))
            else:
                entry.append((tuple(monom), int(coeff) % modulus))
        out.add(frozenset(entry))
    return out


@pytest.mark.parametrize("order_name", ["lex"])
def test_random_ideals_match_sympy(order_name):
    rng = random.Random(42)
    for trial in range(12):
        k, l = 2, 2
        variables = [grid_var(i, j) for i in range(1, k + 1) for j in range(l, 0, -1)]
        variables.sort(key=lambda v: v.key, reverse=True)
        gens = [_random_poly(rng, variables) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue

        symbols = sympy.symbols(f"v0:{len(variables)}")
        sring, *_ = sympy.ring(",".join(str(s) for s in symbols), sympy.QQ, order_name)
        sympy_gens = [_to_sympy(g, variables, symbols, sring) for g in gens]
        from sympy.polys.groebnertools import groebner as sympy_groebner

        expected = sympy_groebner(sympy_gens, sring)
        got = buchberger(gens)
        _assert_exact_basis(got)
        assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables))


def test_determinantal_bases_match_sympy():
    variables = sorted((grid_var(i, j) for i in (1, 2, 3) for j in (1, 2, 3)),
                       key=lambda v: v.key, reverse=True)
    gens = [expand_minor(Minor((r1, r2), (c1, c2)))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    gens.append(expand_minor(Minor((1, 2, 3), (1, 2, 3))) + Polynomial.one(QQ))

    symbols = sympy.symbols(f"v0:{len(variables)}")
    sring, *_ = sympy.ring(",".join(str(s) for s in symbols), sympy.QQ, "lex")
    from sympy.polys.groebnertools import groebner as sympy_groebner

    expected = sympy_groebner([_to_sympy(g, variables, symbols, sring) for g in gens], sring)
    got = buchberger(gens)
    _assert_exact_basis(got)
    assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
@pytest.mark.parametrize("name", ["full2x2", "full2x3", "full3x3", "full3x4",
                                  "staircase_sub4x4", "staircase10"])
def test_ladder_minor_bases_match_sympy(name, field):
    """The generating minors of each bundled ladder (mixed sizes on
    staircase10) are a Groebner basis under antidiagonal-lex, and their
    reduced basis is sympy's reduced lex basis with the ladder ring's
    variables in its order.  Over GF(2) the minors are permanents."""
    L, t = Ladder.from_json((FIXTURES / f"{name}.json").read_text())
    I = mixed_ladder_ideal(L, t or 2, field)
    variables = list(I.ring.variables)
    assert is_groebner_basis(I.gens)
    got = buchberger(I.gens)
    domain, modulus = (sympy.QQ, None) if field is QQ else (sympy.GF(field.p), field.p)
    expected = _sympy_groebner(I.gens, variables, domain, "lex")
    assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables),
                                                                  modulus)


def test_modular_bases_match_sympy():
    rng = random.Random(44)
    p = 5
    field = GF(p)
    variables = sorted((grid_var(i, j) for i in (1, 2) for j in (1, 2)),
                       key=lambda v: v.key, reverse=True)
    for _ in range(8):
        gens = [_random_poly(rng, variables, field=field) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        symbols = sympy.symbols(f"v0:{len(variables)}")
        sring, *_ = sympy.ring(",".join(str(s) for s in symbols), sympy.GF(p), "lex")
        from sympy.polys.groebnertools import groebner as sympy_groebner

        expected = sympy_groebner([_to_sympy(g, variables, symbols, sring) for g in gens], sring)
        got = buchberger(gens)
        assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables), p)


@pytest.mark.parametrize("order_name", ["lex"])
def test_rational_3x3_bases_match_sympy(order_name):
    rng = random.Random(45)
    variables = _grid3_variables()
    non_integral = 0
    for _ in range(8):
        gens = _minors_plus_noise(rng, variables, QQ)
        got = buchberger(gens)
        _assert_exact_basis(got)
        non_integral += sum(c.denominator != 1 for g in got for c in g.terms.values())
        expected = _sympy_groebner(gens, variables, sympy.QQ, order_name)
        assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables))
    assert non_integral > 0


def test_modular_3x3_bases_match_sympy():
    rng = random.Random(47)
    p = 7
    variables = _grid3_variables()
    for _ in range(8):
        gens = _minors_plus_noise(rng, variables, GF(p))
        got = buchberger(gens)
        expected = _sympy_groebner(gens, variables, sympy.GF(p), "lex")
        assert _basis_as_sets(got, variables) == _sympy_basis_as_sets(expected, len(variables), p)


def _elimination_case(rng, field, coeffs):
    """Random ideals I, J of the 2x3 grid ring, none visibly (1), and the
    generators t*I + (1 - t)*J that `Ideal.intersect` eliminates t from."""
    ring = Ring.for_grid(field, 2, 3)

    def ideal():
        gens = [_random_poly(rng, ring.variables, max_terms=3, max_deg=2, field=field,
                             coeffs=coeffs, max_exp=2) for _ in range(rng.randint(1, 2))]
        return Ideal(ring, [g for g in gens if g.terms.keys() != {MONO_ONE}])

    I, J = ideal(), ideal()
    aux = ring.fresh_aux()
    packing = packing_of((aux,) + ring.variables)
    t = Polynomial.variable(field, aux).repack(packing)
    gens = [t * g.repack(packing) for g in I.gens]
    gens += [h - t * h for h in (h.repack(packing) for h in J.gens)]
    return ring, I, J, (aux,) + ring.variables, gens


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=["QQ", "GF2", "GF3", "GF7"])
def test_elimination_bases_match_sympy(field):
    """Antidiagonal-lex is lex with the auxiliary on top: buchberger must give
    sympy's reduced lex basis of t*I + (1 - t)*J, and `Ideal.intersect`
    the t-free part of that basis."""
    rng = random.Random(48 if field is QQ else 49)
    modulus = None if field is QQ else field.p
    domain = sympy.QQ if field is QQ else sympy.GF(field.p)
    coeffs = SCALARS if field is QQ else tuple(c for c in (-3, -2, -1, 1, 2, 3) if c % field.p)
    compared = proper = 0
    for _ in range(14):
        ring, I, J, variables, gens = _elimination_case(rng, field, coeffs)
        if not I.gens or not J.gens:
            continue
        got = buchberger(gens)
        expected = _sympy_basis_as_sets(_sympy_groebner(gens, variables, domain, "lex"),
                                        len(variables), modulus)
        assert _basis_as_sets(got, variables) == expected
        t_free = {frozenset((exps[1:], c) for exps, c in g)
                  for g in expected if all(exps[0] == 0 for exps, _ in g)}
        K = I.intersect(J)
        if field is QQ:
            _assert_exact_basis(K.gens)
        assert _basis_as_sets(K.gens, ring.variables) == t_free
        compared += 1
        proper += bool(t_free) and not K.is_unit()
    assert compared >= 9 and proper >= 9
