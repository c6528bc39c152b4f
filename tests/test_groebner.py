"""Groebner engine: division, bases, ideal operations, monomial ideals."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, permutations

import pytest

import ladderdet
from ladderdet.acceptance import generic_multiplicity
from ladderdet.fields import GF, QQ
from ladderdet.groebner import (
    Ideal,
    InstanceTooLarge,
    MonomialIdeal,
    Reducer,
    Ring,
    _Leads,
    _buchberger_loop,
    _certified_intersection,
    _cover_bits,
    _divisor,
    _eliminated_intersection,
    _exact_quotient,
    _height_and_multiplicity,
    _hilbert_numerator,
    _index_add,
    _initial_pairs,
    _one_packing,
    _update_pairs,
    buchberger,
    interreduce,
    is_groebner_basis,
    min_cover_size,
    minimal_covers,
    normal_form,
    s_polynomial,
)
from ladderdet.ideals import ladder_ring, minors_in_ladder, mixed_ladder_ideal
from ladderdet.ladders import Ladder
from ladderdet.poly import (
    ANTIDIAG,
    GREVLEX,
    Minor,
    Polynomial,
    aux_var,
    expand_minor,
    grid_var,
    MONO_ONE,
    ExponentOverflow,
    Monomial,
    _packing,
    join_packings,
    mono,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mask,
    mono_mul,
    parse_polynomial,
    poly_to_str,
    time_limit,
)
import reference_pairs
from monomial_ideals import contains_monomial_ideal, monomial_power
import tuple_monomials as ref


def gv(i, j):
    return grid_var(i, j)


def P(text, field=QQ):
    return parse_polynomial(text, field)


def minor(rows, cols, field=QQ):
    return expand_minor(Minor(tuple(rows), tuple(cols)), field)


# -- brute-force membership oracle: linear algebra in bounded degree


def all_monomials(packing, degree):
    out = [0]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(packing.variables, d):
            out.append(packing.pack((v, 1) for v in combo))
    return sorted(set(out))


def brute_force_member(f, gens, packing, degree):
    """Solve a linear system: is f a polynomial combination of gens with
    multiplier degree <= degree - deg(gen)?  Works in `packing`."""
    f = f.repack(packing)
    gens = [g.repack(packing) for g in gens]
    columns = []
    for g in gens:
        gdeg = g.degree()
        for m in all_monomials(packing, max(degree - gdeg, 0)):
            prod = g.mul_term(m, 1)
            if prod.degree() <= degree:
                columns.append(prod)
    basis_monos = sorted({mm for c in columns for mm in c.terms} | set(f.terms))
    index = {m: i for i, m in enumerate(basis_monos)}
    matrix = [[Fraction(0)] * len(columns) for _ in basis_monos]
    for ci, c in enumerate(columns):
        for m, coeff in c.terms.items():
            matrix[index[m]][ci] = coeff
    target = [Fraction(0)] * len(basis_monos)
    for m, coeff in f.terms.items():
        target[index[m]] = coeff
    # Gaussian elimination over the rationals.
    rows = [row + [t] for row, t in zip(matrix, target)]
    pivot_col = 0
    r = 0
    ncols = len(columns)
    while r < len(rows) and pivot_col < ncols:
        pivot = next((i for i in range(r, len(rows)) if rows[i][pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][pivot_col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][pivot_col]:
                factor = rows[i][pivot_col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        pivot_col += 1
    # consistent iff no row reads 0 = nonzero
    return not any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in rows)


def test_normal_form_examples():
    x11 = Polynomial.variable(QQ, gv(1, 1))
    assert normal_form(x11, [x11]).is_zero

    basis = [minor((1, 2), (1, 2)), minor((1, 2), (2, 3))]
    rem = normal_form(minor((1, 2), (1, 3)), basis)
    assert not rem.is_zero  # the third maximal minor is not in the other two

    # Laplace relation: x11*[12|23] - x12*[12|13] + x13*[12|12] = 0
    laplace = (
        Polynomial.variable(QQ, gv(1, 1)) * minor((1, 2), (2, 3))
        - Polynomial.variable(QQ, gv(1, 2)) * minor((1, 2), (1, 3))
        + Polynomial.variable(QQ, gv(1, 3)) * minor((1, 2), (1, 2))
    )
    assert laplace.is_zero
    prod = Polynomial.variable(QQ, gv(1, 2)) * minor((1, 2), (1, 3))
    assert normal_form(prod, basis).is_zero


def test_a_constant_in_the_basis_reduces_everything_to_zero():
    g = minor((1, 2), (1, 2))
    f = P("x[1,1]*x[2,2]^2 + 3*x[1,2] - 1/2")
    one = Polynomial.one(QQ)
    assert normal_form(f, [one, g]).is_zero
    assert normal_form(f, [g, one]).is_zero
    reducer = Reducer([g, one])
    assert reducer.reduce(f).is_zero and reducer.reduce(one).is_zero


def _first_divisor_by_scan(filed, m, guard):
    """The item `_divisor` returns, by a linear scan of the filed (monomial,
    mask, item) triples in search order: buckets from the top bit down, the
    constant's bucket 0 last, each in filing order.  With guard 0 the
    monomials are bit sets."""
    def bucket(entry):
        top = entry[1].bit_length()
        return -top if top else 1

    for d, _, item in sorted(filed, key=bucket):
        if (mono_divides(d, m, guard) if guard else not d & ~m):
            return item
    return None


def test_divisor_index_matches_a_linear_scan():
    rng = random.Random(32)
    packing = Ring.for_grid(QQ, 3, 3).packing
    variables = [gv(i, j) for i in range(1, 4) for j in range(1, 4)]

    def random_mono():
        return mono(*((v, rng.randint(1, 3))
                      for v in rng.sample(variables, rng.randint(0, 4)))).packed_in(packing)

    for trial in range(300):
        if trial % 3 == 2:  # bit sets under guard 0
            guard, mask_of = 0, (lambda m: m)
            filed_monos = [rng.getrandbits(9) for _ in range(rng.randint(0, 12))]
            queries = [rng.getrandbits(9) for _ in range(20)]
        else:  # packed monomials, sometimes with the constant 1
            guard, mask_of = packing.guard, (lambda m: mono_mask(m, packing))
            filed_monos = [random_mono() for _ in range(rng.randint(0, 12))]
            if trial % 3 == 1:
                filed_monos.insert(rng.randint(0, len(filed_monos)), MONO_ONE)
            queries = [random_mono() for _ in range(20)] + filed_monos
        index, filed = {}, []
        for item, m in enumerate(filed_monos):
            _index_add(index, m, mask_of(m), item)
            filed.append((m, mask_of(m), item))
        for m in queries:
            found = _divisor(index, m, mask_of(m), guard)
            assert found == _first_divisor_by_scan(filed, m, guard)
            assert _divisor({}, m, mask_of(m), guard) is None
            if MONO_ONE in filed_monos and guard:
                assert found is not None


def test_buchberger_examples():
    x11 = Polynomial.variable(QQ, gv(1, 1))
    assert buchberger([x11]) == [x11]

    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    basis = buchberger(nine)
    assert len(basis) == 9
    assert set(basis) == {g.monic() for g in nine}

    basis2 = buchberger([minor((1, 2), (1, 2)), x11])
    assert set(basis2) == {x11, P("x[1,2]*x[2,1]")}


def test_unit_ideal_reduced_basis():
    f = P("x[1,1]")
    g = P("x[1,1] + 1")
    assert buchberger([f, g]) == [Polynomial.one(QQ)]


def test_is_groebner_basis_examples():
    assert is_groebner_basis([P("x[1,1]"), P("x[2,2]")])
    union = buchberger([P("x[1,1]")]) + buchberger([minor((1, 2), (1, 2))])
    assert is_groebner_basis(list(union))
    # Coprime antidiagonal leads: a Groebner pair.
    assert is_groebner_basis([minor((1, 2), (1, 2)), minor((1, 2), (2, 3))])
    # Shared lead variable with a nonzero S-remainder: not a basis
    # (x11*[12|23] lands in the ideal with lead outside the two leads).
    assert not is_groebner_basis([minor((1, 2), (1, 2)), minor((1, 2), (1, 3))])


def test_groebner_membership_matches_bruteforce():
    rng = random.Random(17)
    ring = Ring.for_grid(QQ, 2, 3)
    gens = [minor((1, 2), (1, 2)), minor((1, 2), (2, 3))]
    I = Ideal(ring, gens)
    candidates = [
        minor((1, 2), (1, 3)),
        Polynomial.variable(QQ, gv(1, 2)) * minor((1, 2), (1, 3)),
        Polynomial.variable(QQ, gv(1, 1)) * minor((1, 2), (1, 2)),
        P("x[1,1]*x[2,2]"),
        minor((1, 2), (1, 2)) + P("x[1,1]"),
    ]
    for _ in range(3):
        m1 = ring.packing.pack([(gv(rng.randint(1, 2), rng.randint(1, 3)), 1)])
        candidates.append(I.gens[0].mul_term(m1, rng.randint(1, 3)) + gens[1])
    for f in candidates:
        fast = I.contains(f)
        slow = brute_force_member(f, gens, ring.packing, max(f.degree(), 4))
        assert fast == slow


def test_ideal_intersection_examples():
    ring = Ring.for_grid(QQ, 2, 2)
    I = Ideal(ring, [P("x[1,1]")])
    assert I.intersect(I).equal(I)
    J = Ideal(ring, [P("x[2,2]")])
    assert I.intersect(J).equal(Ideal(ring, [P("x[1,1]*x[2,2]")]))


def _count_buchberger(monkeypatch):
    from ladderdet import groebner

    calls = []
    real = groebner.buchberger

    def counted(gens, order=ANTIDIAG, **kwargs):
        calls.append(order)
        return real(gens, order, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    return calls


def test_intersect_runs_one_elimination(monkeypatch):
    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]])
    J = Ideal(ring, [P("x[1,2]"), P("x[2,2]")])
    calls = _count_buchberger(monkeypatch)
    _eliminated_intersection(I, J)
    assert calls == [ANTIDIAG]


def test_intersect_with_unit_ideal():
    ring = Ring.for_grid(QQ, 2, 2)
    J = Ideal(ring, [P("x[1,2]*x[2,1]"), P("x[2,2]^2 - x[1,1]")])
    hidden = Ideal(ring, [P("x[1,1]"), P("x[1,1] + 1")])  # (1), no constant generator
    assert Ideal(ring, _eliminated_intersection(hidden, J)).equal(J)
    assert Ideal(ring, _eliminated_intersection(J, hidden)).equal(J)
    reduced = J.groebner_basis()
    assert [str(g) for g in reduced] == ["x[1,1] - x[2,2]^2", "x[1,2]*x[2,1]"]
    # One rule for a unit operand: J's reduced basis in either argument
    # order, whether or not the unit side has cached its basis (1).
    for gens in (hidden.gens, [P("x[1,1]"), P("3")]):
        for cached in (False, True):
            for unit_first in (True, False):
                X = Ideal(ring, gens)
                if cached:
                    assert X.is_unit()  # caches the basis (1) under antidiag-lex
                K = X.intersect(J) if unit_first else J.intersect(X)
                assert K.gens == reduced


def test_band_intersection_s_pair_count(monkeypatch):
    """wide cap inner on the full 4x4 grid at t = 2, delta = 1, j = 1 over
    GF(5), as in the `intersection-identity` criterion.  Counted with this
    wrapper: sugar-first selection reduces 288 S-pairs here, and normal
    selection (the order's key of the lcm first, sugar as a tie-break)
    908, so a return to normal selection fails the bound."""
    from ladderdet import groebner

    calls = []
    real = groebner.s_polynomial

    def counted(*args):
        calls.append(None)
        return real(*args)

    F = GF(5)
    L = Ladder.full(4, 4)
    ring = ladder_ring(F, L)
    wide = mixed_ladder_ideal(L.band("cols", 1, 4), 2, F, ring)
    inner = mixed_ladder_ideal(L.band("cols", 2, 3), 1, F, ring)
    monkeypatch.setattr(groebner, "s_polynomial", counted)
    K = Ideal(ring, _eliminated_intersection(wide, inner))
    assert 0 < len(calls) <= 288
    left = mixed_ladder_ideal(L.band("cols", 1, 3), 2, F, ring)
    right = mixed_ladder_ideal(L.band("cols", 2, 4), 2, F, ring)
    assert (left + right).equal(K)


def test_intersect_leaves_aux_free_basis():
    ring = Ring.for_grid(QQ, 3, 3)
    I = Ideal(ring, [minor((1, 2), (1, 2)), minor((2, 3), (2, 3)), P("x[1,3]^2")])
    J = Ideal(ring, [P("x[2,2]"), P("x[1,3] - x[3,1]")])
    for K in (I.intersect(J), J.intersect(I), I.colon_poly(P("x[2,2]"))):
        assert K.gens
        assert all(g.packing is ring.packing for g in K.gens)
        assert Ideal(ring, K.gens).gens == K.gens  # distinct and nonzero
        assert not any(v.is_aux for g in K.gens for m in g.terms
                       for v, _ in Monomial(g.packing, m).exponents())
        assert K.groebner_basis() == tuple(buchberger(K.gens))
    assert I.intersect(J).contains_ideal(Ideal(ring, [g * h for g in I.gens for h in J.gens]))


def test_band_sum_equals_band_intersection():
    # ([12|12],[12|13],[12|23]) cap (x12, x22) == ([12|12],[12|23]) on 2x3
    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]])
    J = Ideal(ring, [P("x[1,2]"), P("x[2,2]")])
    expected = Ideal(ring, [minor((1, 2), (1, 2)), minor((1, 2), (2, 3))])
    assert I.intersect(J).equal(expected)


def test_colon_and_saturation():
    ring = Ring.for_grid(QQ, 2, 2)
    x = P("x[1,1]")
    I = Ideal(ring, [x * x])
    assert I.colon(Ideal(ring, [x])).equal(Ideal(ring, [x]))

    det = minor((1, 2), (1, 2))
    quotient = Ideal(ring, [det * det]).colon(Ideal(ring, [det]))
    assert quotient.equal(Ideal(ring, [det]))

    sat, steps = Ideal(ring, [x * x]).saturate(Ideal(ring, [x]))
    assert steps == 2 and sat.is_unit()
    again = sat.colon(Ideal(ring, [x]))
    assert again.equal(sat)


def test_saturation_gives_up_after_its_step_cap(monkeypatch):
    # (x^2) : x^infinity grows twice, (x^2) < (x) < (1), so a cap of two
    # colon steps never sees the fixpoint.
    from ladderdet import groebner

    ring = Ring.for_grid(QQ, 2, 2)
    x = P("x[1,1]")
    monkeypatch.setattr(groebner, "_SATURATION_STEPS", 2)
    with pytest.raises(InstanceTooLarge, match="within 2 colon iterations"):
        Ideal(ring, [x * x]).saturate(Ideal(ring, [x]))
    monkeypatch.setattr(groebner, "_SATURATION_STEPS", 3)
    assert Ideal(ring, [x * x]).saturate(Ideal(ring, [x]))[1] == 2


def test_colon_degenerate_inputs():
    ring = Ring.for_grid(QQ, 2, 2)
    I = Ideal(ring, [P("x[1,1]")])
    zero = Ideal(ring, [])
    assert I.colon(zero).is_unit()
    assert zero.colon(I).is_zero
    assert zero.intersect(I).is_zero


def test_frobenius_bracket():
    F2 = GF(2)
    ring = Ring.for_grid(F2, 2, 2)
    x = Polynomial.variable(F2, gv(1, 1))
    assert Ideal(ring, [x]).bracket(2).equal(Ideal(ring, [x * x]))

    det = minor((1, 2), (1, 2), F2)
    assert Ideal(ring, [det]).bracket(2).equal(Ideal(ring, [det * det]))

    m = ring.maximal_ideal()
    squares = Ideal(ring, [Polynomial.variable(F2, v) ** 2 for v in ring.variables])
    assert m.bracket(2).equal(squares)

    with pytest.raises(ValueError):
        Ideal(Ring.for_grid(QQ, 2, 2), [minor((1, 2), (1, 2))]).bracket(2)
    with pytest.raises(ValueError):
        m.bracket(3)


def test_products_past_the_exponent_field_raise():
    F2 = GF(2)
    ring = Ring.for_grid(F2, 2, 2)
    I = Ideal(ring, [minor((1, 2), (1, 2), F2)])
    assert I.bracket(2 ** 7).gens == (minor((1, 2), (1, 2), F2) ** 2 ** 7,)
    with pytest.raises(ExponentOverflow):
        I.bracket(2 ** 8)  # x^256 does not fit in a field
    x = Polynomial.variable(QQ, gv(1, 1))
    with pytest.raises(ExponentOverflow):
        Ideal(Ring.for_grid(QQ, 2, 2), [x ** 200]).power(2)
    M = MonomialIdeal.from_monomials(ring, [mono((gv(1, 1), 200))])
    with pytest.raises(ExponentOverflow):
        monomial_power(M, 2)
    # Buchberger meets the limit where lex degrees grow: x11 - x12^200 and
    # x11^2 give x12^400.
    with pytest.raises(ExponentOverflow):
        buchberger([P("x[1,2] - x[1,1]^200"), P("x[1,2]^2")])


def test_bracket_of_reduced_basis_is_reduced_basis():
    # The cache seed must agree with a from-scratch computation.
    F2 = GF(2)
    ring = Ring.for_grid(F2, 2, 3)
    I = Ideal(ring, [minor((1, 2), c, F2) for c in [(1, 2), (1, 3), (2, 3)]])
    I.groebner_basis()
    seeded = I.bracket(2)
    fresh = Ideal(ring, [g ** 2 for g in I.gens])
    assert seeded.gens == fresh.gens and all(g.packing is ring.packing for g in seeded.gens)
    assert tuple(seeded.groebner_basis()) == tuple(buchberger(list(fresh.gens)))


def monomials(M):
    """The generators of a monomial ideal as `Monomial`s."""
    return [Monomial(M.ring.packing, g) for g in M.gens]


def test_initial_ideal_examples():
    ring22 = Ring.for_grid(QQ, 2, 2)
    I = Ideal(ring22, [minor((1, 2), (1, 2))])
    assert monomials(I.initial_ideal()) == [mono((gv(1, 2), 1), (gv(2, 1), 1))]

    ring33 = Ring.for_grid(QQ, 3, 3)
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    init = Ideal(ring33, nine).initial_ideal()
    assert len(init.gens) == 9 and init.is_squarefree()
    assert init.dim() == 5 and init.height() == 4


def test_initial_containment_chain():
    # in(I)^n is inside in(I^n) (instances of the universal containment).
    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]])
    for n in (2, 3):
        left = monomial_power(I.initial_ideal(), n)
        right = I.power(n).initial_ideal()
        assert contains_monomial_ideal(right, left)


def test_monomial_ideal_utilities():
    ring = Ring.for_grid(QQ, 1, 2)
    x, y = gv(1, 1), gv(1, 2)
    M = MonomialIdeal.from_monomials(ring, [mono((x, 1), (y, 1))])
    primes = M.min_primes()
    assert sorted(sorted(str(v) for v in p) for p in primes) == [["x[1,1]"], ["x[1,2]"]]
    assert M.dim() == ring.nvars - 1
    assert monomials(M.symbolic_power(2)) == [mono((x, 2), (y, 2))]
    assert M.symbolic_power(1).gens == M.gens

    with pytest.raises(ValueError):
        MonomialIdeal.from_monomials(ring, [mono((x, 2))]).symbolic_power(2)


def _reference_symbolic_power(M, n):
    """I^(n) by the power-then-intersect route: each minimal prime power P^n
    as its own ideal, intersected one at a time through the lcms of every
    pair of generators."""
    ring, guard = M.ring, M.ring.packing.guard
    result = None
    for cover in minimal_covers(M.supports()):
        # The cover's guard bit 9f + 8 marks the variable 1 << 9f.
        prime = [1 << b - 8 for b in range(cover.bit_length()) if cover >> b & 1]
        power = monomial_power(MonomialIdeal.from_monomials(ring, prime), n)
        result = power if result is None else MonomialIdeal.from_monomials(
            ring, [mono_lcm(a, b, guard) for a in result.gens for b in power.gens])
    return result


def _fixture_initial_ideal(name, t=None):
    L, fixture_t = ladderdet.load_fixture(name)
    return mixed_ladder_ideal(L, t or fixture_t, GF(5)).initial_ideal()


@pytest.mark.parametrize("k, l, t, n", [(3, 3, 2, 2), (3, 3, 2, 3), (3, 4, 2, 3), (3, 4, 3, 3),
                                        (4, 4, 2, 2), (4, 4, 3, 3)])
def test_symbolic_power_matches_reference_on_generic_grids(k, l, t, n):
    M = _generic_initial_ideal(k, l, t)
    assert M.symbolic_power(n).gens == _reference_symbolic_power(M, n).gens


def test_symbolic_power_matches_reference_on_staircase_sub4x4():
    M = _fixture_initial_ideal("staircase_sub4x4", [2])
    assert M.symbolic_power(3).gens == _reference_symbolic_power(M, 3).gens


def test_symbolic_power_matches_reference_on_random_squarefree_ideals():
    rng = random.Random(22)
    ring = Ring.for_grid(QQ, 3, 3)
    variables = [gv(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(150):
        monos = [mono(*((v, 1) for v in rng.sample(variables, rng.randint(1, 4))))
                 for _ in range(rng.randint(1, 6))]
        M = MonomialIdeal.from_monomials(ring, monos)
        for n in (1, 2, 3):
            assert M.symbolic_power(n).gens == _reference_symbolic_power(M, n).gens
    zero = MonomialIdeal(ring, ())
    assert zero.symbolic_power(300) is zero


def test_symbolic_power_exponent_limit():
    ring = Ring.for_grid(QQ, 1, 2)
    x, y = gv(1, 1), gv(1, 2)
    M = MonomialIdeal.from_monomials(ring, [mono((x, 1), (y, 1))])
    assert monomials(M.symbolic_power(255)) == [mono((x, 255), (y, 255))]
    with pytest.raises(ExponentOverflow):
        M.symbolic_power(256)
    with pytest.raises(ValueError):
        M.symbolic_power(0)
    with pytest.raises(ValueError):
        MonomialIdeal(ring, (MONO_ONE,)).symbolic_power(2)


def test_symbolic_power_honours_time_limit():
    # Unlimited, staircase10 at n = 2 runs about 3 s on a 2-CPU machine.
    M = _fixture_initial_ideal("staircase10")
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.05):
            M.symbolic_power(2)
    assert time.monotonic() - start < 1.0


def _mask(bits):
    return sum(1 << b for b in bits)


def _brute_minimal_covers(supports):
    """Minimal covers by trying every subset of the bits, in output order."""
    universe = sorted(set().union(*supports))
    covering = [frozenset(c) for size in range(len(universe) + 1)
                for c in combinations(universe, size)
                if all(s & set(c) for s in supports)]
    return [_mask(c) for c in covering if not any(o < c for o in covering)]


_RING_3X4 = Ring.for_grid(QQ, 3, 4)


def _check_against_bruteforce(supports):
    """Supports are sets of bit positions, here the guard bits of the 3x4
    grid's packing (the support masks of its variables)."""
    expected = _brute_minimal_covers(supports)
    masks = [_mask(s) for s in supports]
    assert minimal_covers(masks) == expected
    height = expected[0].bit_count()
    assert min_cover_size(masks)[0] == height
    # The multiplicity of a squarefree monomial ideal counts its minimal
    # primes of least height.
    M = MonomialIdeal.from_monomials(_RING_3X4, [m >> 8 for m in masks])
    assert M.supports() == sorted(set(M.supports())) and set(M.supports()) <= set(masks)
    assert M.multiplicity() == sum(1 for c in expected if c.bit_count() == height)


def _random_supports(rng, pool, count, size=4):
    return [frozenset(rng.sample(pool, rng.randint(1, min(size, len(pool)))))
            for _ in range(count)]


def _bit(v):
    """The guard bit of variable v in the 3x4 grid's packing."""
    return _RING_3X4.packing.shift[v] + 8


_GRID_KEYS = [_bit(gv(i, j)) for i in range(1, 4) for j in range(1, 5)]


def test_minimal_covers_against_bruteforce():
    # Up to 10 grid-variable keys, supports of size up to 4, with duplicate
    # and nested (non-minimal) supports mixed in.
    rng = random.Random(2024)
    for _ in range(150):
        pool = rng.sample(_GRID_KEYS, rng.randint(1, 10))
        supports = _random_supports(rng, pool, rng.randint(1, 7))
        supports += [s | {rng.choice(pool)} for s in supports[:2]]
        supports += supports[:1]
        rng.shuffle(supports)
        _check_against_bruteforce(supports)


def test_covers_of_disconnected_supports():
    # Two or three blocks of supports on disjoint keys.
    rng = random.Random(7)
    for _ in range(60):
        keys = rng.sample(_GRID_KEYS, 12)
        blocks = [keys[:4], keys[4:8], keys[8:]][:rng.randint(2, 3)]
        supports = [s for block in blocks
                    for s in _random_supports(rng, block, rng.randint(1, 4), size=3)]
        rng.shuffle(supports)
        _check_against_bruteforce(supports)


def test_covers_with_singleton_supports():
    # Singletons on their own keys, inside other supports, and repeated.
    rng = random.Random(11)
    for _ in range(60):
        pool = rng.sample(_GRID_KEYS, rng.randint(3, 11))
        supports = _random_supports(rng, pool, rng.randint(1, 6))
        singles = [frozenset({k}) for k in rng.sample(pool, rng.randint(1, 3))]
        supports += singles + singles[:1]
        rng.shuffle(supports)
        _check_against_bruteforce(supports)
    _check_against_bruteforce([frozenset({k}) for k in _GRID_KEYS[:5]])


def test_covers_with_repeated_pivot_subproblems():
    # The 2-minor antidiagonals of full and staircase grids: pivoting on x
    # and then y reaches the same subproblem as pivoting on y and then x.
    cells_3x4 = [(i, j) for i in range(1, 4) for j in range(1, 5)]
    shapes = [cells_3x4, [(i, j) for i, j in cells_3x4 if j <= 3],
              [(i, j) for i, j in cells_3x4 if j - i <= 1],
              [(i, j) for i, j in cells_3x4 if i - j <= 1 and j - i <= 2]]
    for cells in shapes:
        cell_set = set(cells)
        supports = [frozenset({_bit(gv(i1, j2)), _bit(gv(i2, j1))})
                    for (i1, j1) in cells for (i2, j2) in cells
                    if i1 < i2 and j1 < j2 and (i1, j2) in cell_set and (i2, j1) in cell_set]
        _check_against_bruteforce(supports)
    keys = _GRID_KEYS
    _check_against_bruteforce([frozenset({keys[i], keys[j]})
                               for i in range(6) for j in range(i + 1, 6)])
    _check_against_bruteforce([frozenset(keys[i:i + 3]) for i in range(10)])


def test_covers_where_a_shrunk_support_swallows_another():
    # {x} + r shrinks to r under ": x", and r + {y} has no x: the colon must
    # drop r + {y}, and must keep the supports that contain no shrunk one.
    rng = random.Random(13)
    for _ in range(80):
        x, *pool = rng.sample(_GRID_KEYS, rng.randint(4, 11))
        shrunk = _random_supports(rng, pool, rng.randint(1, 3), size=3)
        supports = [r | {x} for r in shrunk]
        supports += [r | {rng.choice(pool)} for r in shrunk]
        supports += _random_supports(rng, pool, rng.randint(0, 3))
        rng.shuffle(supports)
        _check_against_bruteforce(supports)
    a, b, c, d, x = _GRID_KEYS[:5]
    _check_against_bruteforce([frozenset(s) for s in
                               [{x, a}, {a, b}, {x, b, c}, {b, c, d}, {c, d}, {d, a}]])


def test_cover_edge_cases():
    assert min_cover_size([])[0] == 0
    assert minimal_covers([]) == [0]
    x = 1 << _bit(gv(1, 1))
    for search in (min_cover_size, minimal_covers):
        with pytest.raises(ValueError):
            search([x, 0])


def test_cover_bits_do_not_depend_on_the_order_of_the_supports():
    # Sets of these masks iterate in an order that depends on insertion
    # (the 5040 orders gave 18 different outputs when ties in popcount
    # followed set order); the output must not.
    keys = _GRID_KEYS
    supports = [1 << keys[i] | 1 << keys[i + 5] for i in range(7)]
    expected = _cover_bits(supports)
    positions, masks = expected
    assert [m.bit_count() for m in masks] == sorted(m.bit_count() for m in masks)
    assert all(x < y for x, y in zip(masks, masks[1:]) if x.bit_count() == y.bit_count())
    for perm in permutations(supports):
        assert _cover_bits(list(perm)) == expected


def test_radical_of_squarefree_ideal_is_itself():
    ring = Ring.for_grid(QQ, 2, 2)
    x, y, z = gv(1, 1), gv(1, 2), gv(2, 1)
    M = MonomialIdeal.from_monomials(ring, [mono((x, 1), (y, 1)), mono((z, 1))])
    assert M.radical() is M
    N = MonomialIdeal.from_monomials(ring, [mono((x, 2), (y, 1)), mono((x, 1), (y, 3), (z, 1)),
                                            mono((z, 2))])
    assert N.radical() == MonomialIdeal.from_monomials(ring, [mono((x, 1), (y, 1)), mono((z, 1))])


def test_height_and_min_primes_read_the_supports_of_any_ideal():
    # A generator and its radical have the same support: the covers of the
    # generators' supports are those of the radical's.
    rng = random.Random(27)
    ring = Ring.for_grid(QQ, 3, 4)
    variables = [gv(i, j) for i in range(1, 4) for j in range(1, 5)]
    not_squarefree = 0
    for _ in range(3000):
        monos = [mono(*((v, rng.randint(1, 3)) for v in rng.sample(variables, rng.randint(1, 4))))
                 for _ in range(rng.randint(1, 8))]
        M = MonomialIdeal.from_monomials(ring, monos)
        not_squarefree += not M.is_squarefree()
        radical = M.radical().supports()
        assert M.height() == min_cover_size(radical)[0]
        assert M.min_primes() == [frozenset(ring.packing.variables_of(c)) for c in minimal_covers(radical)]
    assert not_squarefree > 2500


def _generic_antidiagonals(k, l, t):
    rows = list(combinations(range(1, k + 1), t))
    cols = list(combinations(range(1, l + 1), t))
    return [Minor(r, c).antidiagonal_monomial() for r in rows for c in cols]


def _generic_initial_ideal(k, l, t):
    """in(I_t) of the generic k x l matrix under the antidiagonal order.

    Distinct t-minors have distinct squarefree antidiagonal monomials of one
    degree, so these already form the minimal generators.
    """
    ring = Ring.for_grid(QQ, k, l)
    gens = sorted(m.packed_in(ring.packing) for m in _generic_antidiagonals(k, l, t))
    return MonomialIdeal(ring, tuple(gens))


def test_generic_heights_match_closed_form():
    # height I_t = (k-t+1)(l-t+1) for the generic k x l matrix.
    for t in (2, 3):
        for k in range(t, 8):
            for l in range(k, 8):
                assert _generic_initial_ideal(k, l, t).height() == (k - t + 1) * (l - t + 1)


def test_generic_multiplicities_match_herzog_trung():
    for k in range(1, 6):
        for l in range(k, 6):
            for t in range(1, k + 1):
                M = _generic_initial_ideal(k, l, t)
                assert M.multiplicity() == generic_multiplicity(k, l, t)
    assert [generic_multiplicity(2, l, 2) for l in range(2, 6)] == [2, 3, 4, 5]
    assert generic_multiplicity(3, 3, 2) == 6 and generic_multiplicity(4, 4, 3) == 20


def test_multiplicity_edge_cases():
    ring = Ring.for_grid(QQ, 2, 2)
    x, y = gv(1, 1), gv(1, 2)
    assert MonomialIdeal(ring, ()).multiplicity() == 1
    assert MonomialIdeal.from_monomials(ring, [mono((x, 1)), mono((y, 1))]).multiplicity() == 1
    with pytest.raises(ValueError):
        MonomialIdeal.from_monomials(ring, [mono((x, 2))]).multiplicity()
    with pytest.raises(ValueError):
        MonomialIdeal(ring, (MONO_ONE,)).multiplicity()


def test_height_dim_and_multiplicity_share_one_cover_search(monkeypatch):
    from ladderdet import groebner

    calls = []
    real = groebner._pivot_recursion

    def counted(masks, base, join):
        calls.append(len(masks))
        return real(masks, base, join)

    monkeypatch.setattr(groebner, "_pivot_recursion", counted)
    for k, l, t in ((4, 5, 2), (5, 5, 3)):
        M = _generic_initial_ideal(k, l, t)
        before = len(calls)
        assert M.dim() == k * l - (k - t + 1) * (l - t + 1)
        assert M.multiplicity() == generic_multiplicity(k, l, t)
        assert M.height() == (k - t + 1) * (l - t + 1)
        assert len(calls) == before + 1
        # The same answers as a fresh search, which runs the recursion again.
        assert (M.height(), M.multiplicity()) == _height_and_multiplicity(M.supports())
        assert len(calls) == before + 2


def _antichain(supports):
    """The distinct supports (bit masks) that contain no other one."""
    supports = set(supports)
    return [s for s in supports if not any(r != s and r & s == r for r in supports)]


def _inclusion_exclusion_numerator(masks):
    """N(t) = sum over subsets S of the supports of (-1)^|S| t^|union of S|,
    trailing zeros stripped."""
    num = [0] * (sum(m.bit_count() for m in masks) + 1)
    for k in range(len(masks) + 1):
        for subset in combinations(masks, k):
            union = 0
            for s in subset:
                union |= s
            num[union.bit_count()] += (-1) ** k
    return _strip_zeros(num)


def _strip_zeros(num):
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    return num


def _random_masks(rng, bits, count, size):
    return [_mask(rng.sample(bits, rng.randint(1, min(size, len(bits))))) for _ in range(count)]


def _hilbert_cases():
    """About 200 seeded antichains of at most 10 supports, by kind."""
    rng = random.Random(26)
    cases = {"plain": [], "singletons": [], "blocks": [], "pivots": []}
    for _ in range(60):
        bits = rng.sample(range(14), rng.randint(2, 10))
        cases["plain"].append(_random_masks(rng, bits, rng.randint(1, 10), 5))
    for _ in range(50):
        # Singletons on their own bits and inside other supports.
        bits = rng.sample(range(14), rng.randint(3, 10))
        masks = _random_masks(rng, bits, rng.randint(1, 7), 4)
        cases["singletons"].append(masks + [1 << b for b in rng.sample(bits, rng.randint(1, 3))])
    for _ in range(50):
        # Two or three blocks of supports on disjoint bits.
        bits = rng.sample(range(15), 15)
        blocks = [bits[:5], bits[5:10], bits[10:]][:rng.randint(2, 3)]
        cases["blocks"].append([m for block in blocks
                                for m in _random_masks(rng, block, rng.randint(1, 3), 3)])
    for _ in range(40):
        # Edges of small graphs: pivoting on x and then y reaches the same
        # subproblem as pivoting on y and then x.
        edges = list(combinations(rng.sample(range(12), rng.randint(3, 6)), 2))
        cases["pivots"].append([_mask(e) for e in rng.sample(edges, min(len(edges), rng.randint(3, 10)))])
    cases["pivots"] += [[_mask(e) for e in combinations(range(5), 2)],
                        [_mask(range(i, i + 3)) for i in range(8)],
                        [_mask({i, (i + 1) % 7}) for i in range(7)]]
    return {kind: [_antichain(masks)[:10] for masks in found] for kind, found in cases.items()}


def test_hilbert_numerator_matches_inclusion_exclusion():
    # Every coefficient of N(t), not only the height and the multiplicity
    # read off it.
    cases = _hilbert_cases()
    assert sum(map(len, cases.values())) >= 200
    assert all(len(masks) <= 10 for found in cases.values() for masks in found)
    assert any(m.bit_count() == 1 for masks in cases["singletons"] for m in masks)
    for found in cases.values():
        for masks in found:
            expected = _inclusion_exclusion_numerator(masks)
            assert _strip_zeros(_hilbert_numerator(masks)) == expected, masks
            assert _strip_zeros(_hilbert_numerator(masks[::-1])) == expected, masks
    assert _strip_zeros(_hilbert_numerator([])) == [1]
    # (1 - t)^3 (1 - t^2) for {x}, {y}, {z}, {u, v}.
    assert _strip_zeros(_hilbert_numerator([1, 2, 4, 24])) == [1, -3, 2, 2, -3, 1]


def _order_and_lead(num):
    """(h, e) for N(t) = (1 - t)^h Q(t) with e = Q(1): the order of N at
    t = 1 and its leading coefficient in u = 1 - t."""
    h = 0
    while sum(num) == 0:
        num = list(accumulate(num))[:-1]  # N / (1 - t)
        h += 1
    return h, sum(num)


def test_height_and_multiplicity_match_inclusion_exclusion():
    for found in _hilbert_cases().values():
        for masks in found:
            expected = _order_and_lead(_inclusion_exclusion_numerator(masks))
            assert _height_and_multiplicity(masks) == expected, masks
            assert _height_and_multiplicity(masks[::-1]) == expected, masks
    assert _height_and_multiplicity([]) == (0, 1)
    # u^3 (2 + O(u)) for {x}, {y}, {z}, {u, v}.
    assert _height_and_multiplicity([1, 2, 4, 24]) == (4, 2)


def test_both_values_of_the_pivot_recursion_agree():
    # (h, e) carried through the recursion equals (h, e) read off the
    # numerator the same recursion carries.
    ideals = [_generic_initial_ideal(k, l, t)
              for k in range(2, 7) for l in range(k, 7) for t in range(2, k + 1)]
    ideals.append(_fixture_initial_ideal("staircase10"))
    for M in ideals:
        _, masks = _cover_bits(M.supports())
        assert _height_and_multiplicity(M.supports()) == _order_and_lead(_hilbert_numerator(masks))


def test_time_limit_reaches_inside_one_hilbert_node():
    # 4,126 supports through one variable x, whose quotients by x are 66
    # pairs and 4,060 triples, and 10,626 supports of four other variables
    # without x.  The root node pivots on x and tests each support without
    # x against every quotient: 44 million tests, about 3 s on a 2-CPU
    # machine with no budget check inside the node.
    ring = Ring.for_grid(QQ, 7, 10)
    x, *rest = [1 << ring.packing.shift[v] for v in ring.variables[:67]]
    pairs, triples, fours = rest[:12], rest[12:42], rest[42:66]
    through_x = [x + sum(c) for c in combinations(pairs, 2)] + [x + sum(c) for c in combinations(triples, 3)]
    without_x = [sum(c) for c in combinations(fours, 4)]
    M = MonomialIdeal(ring, tuple(sorted(through_x + without_x)))
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.3):
            M.height()
    assert time.monotonic() - start < 1.5


def test_time_limit_bounds_dim():
    # dim of in(I_3) of the generic 9x9 matrix takes several seconds of
    # Hilbert-series recursion; a 1 s budget must stop it.
    M = _generic_initial_ideal(9, 9, 3)
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(1.0):
            M.dim()
    assert time.monotonic() - start < 3.0


def test_full_hilbert_memo_starts_over_with_the_same_answers(monkeypatch):
    from ladderdet import groebner

    monkeypatch.setattr(groebner, "_HILBERT_MEMO_ENTRIES", 3)
    for k, l, t in [(4, 5, 2), (5, 5, 3), (6, 6, 3)]:
        M = _generic_initial_ideal(k, l, t)
        assert M.height() == (k - t + 1) * (l - t + 1)
        assert M.multiplicity() == generic_multiplicity(k, l, t)
    test_covers_with_repeated_pivot_subproblems()


_HEIGHT_MEMORY_CHILD = """
from itertools import combinations
from ladderdet.fields import QQ
from ladderdet.groebner import InstanceTooLarge, MonomialIdeal, Ring
from ladderdet.poly import Minor, time_limit


def peak_kib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


rows = list(combinations(range(1, 10), 3))
ring = Ring.for_grid(QQ, 9, 9)
gens = sorted(Minor(r, c).antidiagonal_monomial().packed_in(ring.packing) for r in rows for c in rows)
M = MonomialIdeal(ring, tuple(gens))
before = peak_kib()
try:
    with time_limit(3.0):
        M.height()
except InstanceTooLarge:
    pass
print(peak_kib() - before)
"""


def test_height_memory_stays_bounded():
    # height() on in(I_3) of the generic 9x9 matrix, which ends within this
    # 3 s budget on a 2-CPU machine, raised the child's peak RSS by 5.5-6.2
    # MiB with the Hilbert-series memo bounded, and by 15 MiB with it
    # unbounded (Python 3.10 to 3.13), so 10 MiB tells the two apart.  The
    # child reads VmHWM, which starts afresh at exec; ru_maxrss starts at the
    # parent's high-water mark and would hide any rise below the peak of the
    # test process.
    if sys.platform != "linux":
        pytest.skip("VmHWM is read from /proc/self/status on Linux only")
    proc = subprocess.run([sys.executable, "-c", _HEIGHT_MEMORY_CHILD],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 10 * 1024


def test_from_monomials_is_fast_on_an_antichain():
    # 3136 monomials of one degree: none can divide another.
    monos = _generic_antidiagonals(8, 8, 3)
    assert len(monos) == 3136
    start = time.monotonic()
    M = MonomialIdeal.from_monomials(Ring.for_grid(QQ, 8, 8), monos)
    assert time.monotonic() - start < 0.5
    assert M == _generic_initial_ideal(8, 8, 3)


def _reference_minimalize(monos, packing):
    """Quadratic minimalisation on tuple monomials, packed at the end."""
    out = []
    tuples = {ref.tuple_mono(m.exponents()): m for m in monos}
    for t in sorted(tuples, key=lambda t: (ref.mono_degree(t), t)):
        if not any(ref.mono_divides(g, t) for g in out):
            out.append(t)
    return tuple(sorted(packing.pack(tuples[t].exponents()) for t in out))


def test_from_monomials_matches_quadratic_reference():
    rng = random.Random(17)
    ring = Ring.for_grid(QQ, 3, 3)
    variables = [gv(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(300):
        monos = [mono(*((v, rng.randint(1, 3)) for v in rng.sample(variables, rng.randint(0, 4))))
                 for _ in range(rng.randint(0, 15))]
        assert (MonomialIdeal.from_monomials(ring, monos).gens
                == _reference_minimalize(monos, ring.packing))


def test_from_monomials_honours_time_limit():
    monos = _generic_antidiagonals(8, 8, 3)
    with pytest.raises(InstanceTooLarge):
        with time_limit(1e-9):
            MonomialIdeal.from_monomials(Ring.for_grid(QQ, 8, 8), monos)


def test_time_limit_nests_and_stays_in_its_thread():
    import threading

    ring = Ring.for_grid(QQ, 1, 2)
    gens = MonomialIdeal.from_monomials(ring, [mono((gv(1, 1), 1), (gv(1, 2), 1))]).gens

    def dim():  # on a fresh ideal each time: an ideal keeps its first cover search
        return MonomialIdeal(ring, gens).dim()

    with time_limit(1e-9):
        with time_limit(None):
            assert dim() == 1  # the inner limit replaces the outer one
        with pytest.raises(InstanceTooLarge):
            dim()  # and the outer one is back
        results = []
        worker = threading.Thread(target=lambda: results.append(dim()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and results == [1]  # new threads start unlimited
    assert dim() == 1


def _reference_list_dedupe(gens):
    seen = []
    for g in gens:
        if g not in seen:
            seen.append(g)
    return seen


def test_ideal_dedupes_generators_in_first_occurrence_order():
    ring = Ring.for_grid(QQ, 3, 3)
    # Packed in the ring already, so the ideal keeps these very objects.
    a, b, same_as_a = (P(text).repack(ring.packing)
                       for text in ("x[1,1] - x[2,2]", "x[1,2]*x[2,1]", "-x[2,2] + x[1,1]"))
    assert same_as_a is not a and same_as_a == a
    gens = Ideal(ring, [a, b, same_as_a, P("0"), b]).gens
    assert gens == (a, b) and gens[0] is a
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    I = Ideal(ring, nine)
    products = []
    for combo in combinations_with_replacement(I.gens, 5):
        g = combo[0]
        for h in combo[1:]:
            g = g * h
        products.append(g)
    assert len(products) == 1287
    assert I.power(5).gens == tuple(_reference_list_dedupe(products))


def test_time_limit_raises():
    ring = Ring.for_grid(QQ, 3, 3)
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    I = Ideal(ring, nine).power(2)
    with pytest.raises(InstanceTooLarge):
        with time_limit(1e-9):
            I.groebner_basis()


def test_time_limit_bounds_power():
    # 3003 products of up to six minors; a 10 ms budget must stop them.
    ring = Ring.for_grid(QQ, 3, 3)
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.01):
            Ideal(ring, nine).power(6)
    assert time.monotonic() - start < 2.0


# -- the Gebauer-Moeller pair update against the set-based reference it
# -- replaced, on the tuple monomials that the packed ints replaced


def _reference_update_pairs(lmG, P, lmf, order):
    n = len(lmG)
    kept = set()
    for (i, j) in P:
        lcm_ij = ref.mono_lcm(lmG[i], lmG[j])
        if (
            not ref.mono_divides(lmf, lcm_ij)
            or ref.mono_lcm(lmG[i], lmf) == lcm_ij
            or ref.mono_lcm(lmG[j], lmf) == lcm_ij
        ):
            kept.add((i, j))
    lcm_groups: dict = {}
    for i in range(n):
        lcm_groups.setdefault(ref.mono_lcm(lmG[i], lmf), []).append(i)
    minimal = []
    for L in sorted(lcm_groups, key=ref.order_key(order)):
        if all(not ref.mono_divides(Lmin, L) for Lmin in minimal):
            minimal.append(L)
    for L in minimal:
        members = lcm_groups[L]
        if any(ref.mono_lcm(lmG[i], lmf) == ref.mono_mul(lmG[i], lmf) for i in members):
            continue
        kept.add((min(members), n))
    return kept


def _reference_initial_pairs(lmG, order):
    P: set = set()
    for n, lm in enumerate(lmG):
        P = _reference_update_pairs(lmG[:n], P, lm, order)
    return P


def _seeded_leads(rng, variables):
    """Lead monomials as (variable, exponent) lists: repeated leads, and
    leads coprime to most others."""
    pool = [[(rng.choice(variables), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 14))]
    leads = pool + [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    leads += [[(rng.choice(variables), 1)] for _ in range(rng.randint(0, 2))]
    rng.shuffle(leads)
    return leads


# Each order over grid leads, and antidiagonal-lex over leads that may also
# hold an auxiliary variable on top, as an intersection's do.
ORDER_CASES = [pytest.param(ANTIDIAG, False, id="antidiag-lex"),
               pytest.param(GREVLEX, False, id="grevlex"),
               pytest.param(ANTIDIAG, True, id="antidiag-lex-aux-on-top")]


@pytest.mark.parametrize("order,aux", ORDER_CASES)
def test_initial_pairs_match_set_based_reference(order, aux):
    rng = random.Random(2025)
    variables = [gv(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    if aux:
        variables.append(aux_var("t"))
    ring = Ring(QQ, tuple(variables))
    guard = ring.packing.guard
    for _ in range(200):
        leads = _seeded_leads(rng, variables)
        packed = [ring.packing.pack(pairs) for pairs in leads]
        _, P = _initial_pairs(packed, ring.packing)
        assert set(P) == _reference_initial_pairs([ref.tuple_mono(pairs) for pairs in leads], order)
        assert all(lcm == mono_lcm(packed[i], packed[j], guard) for (i, j), lcm in P.items())
        # No pair of coprime leads: their S-polynomial reduces to zero.
        masks = [mono_mask(lm, ring.packing) for lm in packed]
        assert all(masks[i] & masks[j] for i, j in P)


# -- the pair update against the packed-int updates it replaced
# -- (tests/reference_pairs.py): the same pair dicts, and against the
# -- all-leads scan the lead index replaced, the same insertion order


def _assert_updates_match_reference(lmG, order, packing, rng):
    # Step by step on one pair set, which the update edits in place, with
    # live pairs dropped at random between steps as the Buchberger driver
    # pops them.  The update returns the pairs it added: those of the new
    # lead, index n.
    masks = [mono_mask(lm, packing) for lm in lmG]
    leads = _Leads(packing)
    P: dict = {}
    scanned: dict = {}
    for n, lm in enumerate(lmG):
        expected = reference_pairs.update_pairs(lmG[:n], masks, P, lm, order, packing)
        reference_pairs.scan_update_pairs(lmG[:n], scanned, lm, packing)
        new = _update_pairs(leads, P, lm)
        assert P == expected
        assert list(P.items()) == list(scanned.items())
        assert new == {pair: lcm for pair, lcm in P.items() if pair[1] == n}
        assert leads.lms == lmG[:n + 1]
        for pair in expected:
            if rng.random() >= 0.8:
                del P[pair]
                del scanned[pair]
    leads, initial = _initial_pairs(lmG, packing)
    assert leads.lms == lmG
    assert initial == reference_pairs.initial_pairs(lmG, order, packing)
    assert list(initial.items()) == list(reference_pairs.scan_initial_pairs(lmG, packing).items())


@pytest.mark.parametrize("order,aux", ORDER_CASES)
def test_pair_update_matches_the_reference_update(order, aux):
    rng = random.Random(4049)
    variables = [gv(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    if aux:
        variables.append(aux_var("t"))
    packing = Ring(QQ, tuple(variables)).packing
    for _ in range(300):
        lmG = [packing.pack(pairs) for pairs in _seeded_leads(rng, variables)]
        _assert_updates_match_reference(lmG, order, packing, rng)


def _grid_minor_leads(k, t):
    """The antidiagonal leads of the t-minors of the full k x k grid."""
    packing = Ring.for_grid(QQ, k, k).packing
    return [Minor(r, c).antidiagonal_monomial().packed_in(packing)
            for r in combinations(range(1, k + 1), t)
            for c in combinations(range(1, k + 1), t)], packing


def _quotient_leads(rng, packing):
    """Leads chosen by their lcm with the last one, lmf: each is a divisor
    of lmf times a quotient in the variables outside lmf (then its lcm with
    lmf is lmf times that quotient).  The quotients are 1, one variable to
    the first, second or third power, or a product of two variables; the
    divisor can be 1 (a lead coprime to lmf) or lmf itself."""
    variables = packing.variables
    inside = rng.sample(variables, rng.randint(1, 3))
    outside = [v for v in variables if v not in inside]
    exps = {v: rng.randint(1, 3) for v in inside}
    lmf = packing.pack(exps.items())
    leads = []
    for _ in range(rng.randint(2, 12)):
        divisor = [(v, rng.randint(0, e)) for v, e in exps.items()]
        quotient = rng.choice([
            [],
            [(rng.choice(outside), 1)],
            [(rng.choice(outside), rng.randint(2, 3))],
            [(v, rng.randint(1, 2)) for v in rng.sample(outside, 2)],
        ])
        leads.append(packing.pack(divisor + quotient))
    return leads + [lmf]


def _products_of_minors(rng):
    # Not squarefree where the two antidiagonals overlap.
    leads, packing = _grid_minor_leads(3, 2)
    products = [mono_mul(a, b) for a, b in combinations_with_replacement(leads, 2)]
    return [(products, packing), (rng.sample(products, len(products)), packing)]


def _random_leads(rng, packing, count):
    return [packing.pack((rng.choice(packing.variables), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3)))
            for _ in range(count)]


def _exponents_to_3(rng):
    packing = Ring.for_grid(QQ, 3, 3).packing
    return [(_random_leads(rng, packing, rng.randint(2, 16)), packing) for _ in range(150)]


def _quotient_cases(rng):
    packing = Ring.for_grid(QQ, 3, 3).packing
    return [(_quotient_leads(rng, packing), packing) for _ in range(400)]


def _shared_variable(rng):
    # The intersection shape: the aux variable t, on top, is in every lead,
    # as in the generators t*f and (1 - t)*g of an intersection; then the
    # same leads followed by t-free ones, as the driver adds them.
    packing = Ring(QQ, (aux_var("t"), *(gv(i, j) for i in (1, 2, 3) for j in (1, 2, 3)))).packing
    cases = []
    for _ in range(150):
        grid = [packing.pack((rng.choice(packing.variables[1:]), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(2, 14))]
        with_t = [m + packing.pack([(aux_var("t"), rng.randint(1, 2))]) for m in grid]
        cases.append((with_t, packing))
        cases.append((with_t + rng.sample(grid, rng.randint(1, len(grid))), packing))
    return cases


def _constant_lead(rng):
    # MONO_ONE at the start, in the middle and at the end.
    packing = Ring.for_grid(QQ, 3, 3).packing
    cases = []
    for _ in range(100):
        leads = _random_leads(rng, packing, rng.randint(2, 12))
        for at in (0, len(leads) // 2, len(leads)):
            cases.append((leads[:at] + [MONO_ONE] + leads[at:], packing))
    return cases


def _divides_a_later_lead(rng):
    packing = Ring.for_grid(QQ, 3, 3).packing
    cases = []
    for _ in range(200):
        leads = _random_leads(rng, packing, rng.randint(2, 12))
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(leads))
            multiple = leads[at] + _random_leads(rng, packing, 1)[0]
            leads.insert(rng.randint(at + 1, len(leads)), multiple)
        cases.append((leads, packing))
    return cases


def _duplicate_leads(rng):
    packing = Ring.for_grid(QQ, 3, 3).packing
    cases = []
    for _ in range(200):
        leads = _random_leads(rng, packing, rng.randint(1, 10))
        leads += [rng.choice(leads) for _ in range(rng.randint(1, 6))]
        rng.shuffle(leads)
        cases.append((leads, packing))
    return cases


def _staircase10_minor_leads(rng):
    # The leads of the minors at the fixture's sizes (2, 3, 1, 2): 85 of
    # degree 1 to 3, so coprime leads and later divisors of mixed degree.
    L, t = ladderdet.load_fixture("staircase10")
    packing = ladder_ring(QQ, L).packing
    leads = [m.antidiagonal_monomial().packed_in(packing) for m in minors_in_ladder(L, t)]
    assert len(leads) == 85 and {mono_degree(lm) for lm in leads} == {1, 2, 3}
    return [(leads, packing)]


_STRUCTURED_LEADS = {
    **{f"minors-{k}x{k}-t{t}": (lambda rng, k=k, t=t: [_grid_minor_leads(k, t)])
       for k in (5, 6) for t in (2, 3)},
    "staircase10-minors": _staircase10_minor_leads,
    "products-of-minors": _products_of_minors,
    "exponents-to-3": _exponents_to_3,
    "quotients": _quotient_cases,
    "shared-variable": _shared_variable,
    "constant-lead": _constant_lead,
    "divides-a-later-lead": _divides_a_later_lead,
    "duplicate-leads": _duplicate_leads,
}


@pytest.mark.parametrize("name", list(_STRUCTURED_LEADS))
def test_pair_update_matches_the_reference_on_structured_leads(name):
    rng = random.Random(name)
    for lmG, packing in _STRUCTURED_LEADS[name](rng):
        _assert_updates_match_reference(lmG, ANTIDIAG, packing, rng)


def test_initial_pairs_respect_the_time_budget():
    lmG, packing = _grid_minor_leads(9, 2)
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.01):
            _initial_pairs(lmG, packing)
    assert time.monotonic() - start < 0.5


def _count_s_pairs(monkeypatch):
    """Clears the verdict record and routes `s_polynomial` through a
    counter; returns the list the counter appends to, once per S-pair."""
    from ladderdet import groebner

    calls = []
    real = groebner.s_polynomial

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(groebner, "_verdict", None)
    monkeypatch.setattr(groebner, "s_polynomial", counted)
    return calls


def test_buchberger_then_is_groebner_basis_reduces_the_pairs_once(monkeypatch):
    # The ladder minors are a Groebner basis, so the driver adds no element
    # and records the verdict: every `_near_pairs` call is its one build's,
    # one per lead, and no later run on the generators, in any order and
    # with repeats, forms an S-pair.
    from ladderdet import groebner

    L, t = ladderdet.load_fixture("staircase10")
    gens = list(mixed_ladder_ideal(L, t).gens)
    near_calls = []

    def near(leads, lmf):
        near_calls.append(lmf)
        return real_near(leads, lmf)

    real_near = groebner._near_pairs
    monkeypatch.setattr(groebner, "_near_pairs", near)
    calls = _count_s_pairs(monkeypatch)
    basis = buchberger(gens)
    assert calls and len(near_calls) == len(gens)
    calls.clear()
    assert is_groebner_basis(gens)
    assert is_groebner_basis(gens[::-1] + gens[:3])
    assert buchberger(gens[::-1]) == basis
    assert not calls and len(near_calls) == len(gens)


def test_buchberger_records_a_non_basis(monkeypatch):
    gens = [minor((1, 2), (1, 2)), minor((1, 2), (1, 3))]
    calls = _count_s_pairs(monkeypatch)
    basis = buchberger(gens)
    assert len(basis) > len(gens) and calls
    calls.clear()
    assert not is_groebner_basis(gens)
    assert not calls
    assert is_groebner_basis(basis)


@pytest.mark.parametrize("entry", [
    lambda gens: buchberger(gens),
    lambda gens: is_groebner_basis(gens),
    lambda gens: normal_form(gens[0], gens[1:]),
], ids=["buchberger", "is_groebner_basis", "normal_form"])
def test_groebner_entry_points_refuse_mixed_fields(monkeypatch, entry):
    # A basis over QQ is recorded, then asked about with a GF(5) copy of its
    # monomial generator added: the monic entries are the recorded ones, so
    # only a field check made before the record is read refuses the set.
    monkeypatch.setattr(ladderdet.groebner, "_verdict", None)
    basis = [P("x[1,1]"), minor((1, 2), (1, 2))]
    assert is_groebner_basis(basis)
    with pytest.raises(ValueError, match=r"mixed coefficient fields: QQ vs GF\(5\)"):
        entry(basis + [P("x[1,1]", GF(5))])


@pytest.mark.parametrize("entry", ["normal_form", "contains", "contains_ideal"])
def test_ideal_membership_refuses_another_field(entry):
    F = GF(5)
    ideal = mixed_ladder_ideal(Ladder.full(2, 2), 2, F)
    f = P("x[1,1]*x[2,2] - x[1,2]*x[2,1] + 5")  # over QQ
    assert ideal.contains(P("x[1,1]*x[2,2] - x[1,2]*x[2,1] + 5", F))  # caches the basis
    arg = Ideal(Ring.for_grid(QQ, 2, 2), [f]) if entry == "contains_ideal" else f
    with pytest.raises(ValueError, match=r"mixed coefficient fields: QQ vs GF\(5\)"):
        getattr(ideal, entry)(arg)


def _count_monic_reducers(monkeypatch):
    """Routes `_monic_reducer` through a counter; returns the list the
    counter appends to, once per reducer built."""
    from ladderdet import groebner

    built = []
    real = groebner._monic_reducer

    def counted(gens, order):
        built.append(order)
        return real(gens, order)

    monkeypatch.setattr(groebner, "_monic_reducer", counted)
    return built


@pytest.mark.parametrize("verdict", [True, False])
def test_a_decided_list_is_answered_before_any_reducer(monkeypatch, verdict):
    # `buchberger` records the generator list it decided, so the same
    # polynomial objects, in the same order, are answered by identity; the
    # same objects in another order, or with a repeat, need the key.
    if verdict:
        L, t = ladderdet.load_fixture("staircase10")
        gens = list(mixed_ladder_ideal(L, t).gens)
    else:
        gens = _one_packing([minor((1, 2), (1, 2)), minor((1, 2), (1, 3))])
    calls = _count_s_pairs(monkeypatch)
    buchberger(gens)
    built = _count_monic_reducers(monkeypatch)
    calls.clear()
    assert is_groebner_basis(list(gens)) is verdict
    assert is_groebner_basis(tuple(gens)) is verdict
    assert not built and not calls
    assert is_groebner_basis(gens[::-1]) is verdict
    assert is_groebner_basis(gens + gens[:1]) is verdict
    assert built == [ANTIDIAG, ANTIDIAG] and not calls


def test_a_replaced_record_answers_the_first_list_by_pairs(monkeypatch):
    cells = list(combinations((1, 2, 3), 2))
    first = _one_packing([minor(r, c) for r in cells for c in cells])
    other = [minor((1, 2), (1, 2)), minor((1, 2), (1, 3))]
    calls = _count_s_pairs(monkeypatch)
    assert is_groebner_basis(first)
    built = _count_monic_reducers(monkeypatch)
    assert is_groebner_basis(first) and not built  # answered by identity
    assert not is_groebner_basis(other)  # replaces the record
    calls.clear()
    built.clear()
    assert is_groebner_basis(first)
    assert built == [ANTIDIAG] and calls


def test_an_antidiag_record_does_not_answer_a_grevlex_call(monkeypatch):
    # A basis under antidiagonal-lex only, in one packing: the GREVLEX
    # call on the same objects must walk its own pairs.
    gens = _one_packing([P("x[1,2] - x[1,1]^2"), P("x[1,1]^2 - x[1,1]")])
    calls = _count_s_pairs(monkeypatch)
    assert is_groebner_basis(gens, ANTIDIAG)
    calls.clear()
    assert not is_groebner_basis(gens, GREVLEX)
    assert calls
    calls.clear()
    assert not is_groebner_basis(gens, GREVLEX)
    assert not calls


@pytest.mark.parametrize("case", ["first", "late"])
def test_a_non_basis_completes_from_the_walks_remainder(monkeypatch, case):
    """The walk stops at the first initial pair in one case and after the
    zero pairs of a basis in the other; the Buchberger loop goes on from the
    remainder it stopped at to the same reduced basis."""
    from ladderdet import groebner

    if case == "first":
        gens = [minor((1, 2), (1, 2)), minor((1, 2), (1, 3))]
        expected = ["x[1,2]*x[2,1] - x[1,1]*x[2,2]", "x[1,3]*x[2,1] - x[1,1]*x[2,3]",
                    "x[1,3]*x[1,1]*x[2,2] - x[1,2]*x[1,1]*x[2,3]"]
    else:
        cells = list(combinations((1, 2, 3), 2))
        gens = [minor(r, c) for r in cells for c in cells]
        gens += [P("x[1,1]*x[3,3] - x[2,2]^2"), P("x[1,1]^2 - x[3,3]^2")]
        expected = [
            "x[2,1]^4*x[3,2]^4 - x[3,3]^4*x[3,1]^4", "x[2,2]*x[3,1] - x[2,1]*x[3,2]",
            "x[2,2]*x[2,1]^3*x[3,2]^3 - x[3,3]^4*x[3,1]^3",
            "x[2,2]^2*x[2,1]^2*x[3,2]^2 - x[3,3]^4*x[3,1]^2",
            "x[2,2]^3*x[2,1]*x[3,2] - x[3,3]^4*x[3,1]", "x[2,2]^4 - x[3,3]^4",
            "x[2,3]*x[3,1] - x[2,1]*x[3,3]", "x[2,3]*x[3,2] - x[2,2]*x[3,3]",
            "x[1,1]*x[3,3] - x[2,2]^2", "x[1,1]*x[2,1]^2*x[3,2]^2 - x[3,3]^3*x[3,1]^2",
            "x[1,1]*x[2,2]*x[2,1]*x[3,2] - x[3,3]^3*x[3,1]", "x[1,1]*x[2,2]^2 - x[3,3]^3",
            "x[1,1]^2 - x[3,3]^2", "x[1,2]*x[3,1] - x[1,1]*x[3,2]",
            "x[1,2]*x[2,1] - x[1,1]*x[2,2]", "x[1,3]*x[3,1] - x[2,2]^2",
            "x[1,3]*x[3,2] - x[1,2]*x[3,3]", "x[1,3]*x[3,3]^3 - x[1,2]*x[1,1]*x[2,3]*x[2,2]",
            "x[1,3]*x[2,1] - x[1,1]*x[2,3]", "x[1,3]*x[2,2] - x[1,2]*x[2,3]"]
    calls = _count_s_pairs(monkeypatch)
    real_walk, stops = groebner._walk, []

    def walk(reducer, pairs):
        walked = real_walk(reducer, pairs)
        stops.append(len(calls))
        return walked

    monkeypatch.setattr(groebner, "_walk", walk)
    assert [poly_to_str(g, ANTIDIAG) for g in buchberger(gens)] == expected
    if case == "first":
        assert stops == [1]
    else:
        assert stops[0] > 1
    assert len(calls) > stops[0]
    assert not is_groebner_basis(gens)
    assert len(stops) == 1


def test_a_recorded_basis_answers_for_no_other_set(monkeypatch):
    """Each case records a Groebner basis and then asks about a set that
    is none, with the same leads where a set can have them.

    The monic GF(5) minors, read over QQ, have the recorded entries in
    another field.  A set with the leads of a basis under another order is
    a basis there too (its initial ideals under the two orders then
    agree), and the same terms read in another packing reduce alike, so
    the order case takes a set whose leads the orders choose differently,
    and the packing case the set with one tail coefficient changed, in a
    wider grid's packing.
    """
    calls = _count_s_pairs(monkeypatch)
    cells = list(combinations((1, 2, 3), 2))
    grid = [minor(r, c) for r in cells for c in cells]
    F = GF(5)
    gf5 = [minor(r, c, F) for r in cells for c in cells]
    monic_over_qq = [
        Polynomial(QQ, {m: F.div(c, g.leading_term(ANTIDIAG)[1]) for m, c in g.terms.items()},
                   g.packing) for g in gf5]
    f = grid[0]
    lm = f.leading_term(ANTIDIAG)[0]
    tail_varied = [Polynomial(QQ, {m: c if m == lm else 2 * c for m, c in f.terms.items()},
                              f.packing)] + grid[1:]
    wide = Ring.for_grid(QQ, 3, 4).packing
    lex_basis = [P("x[1,2] - x[1,1]^2"), P("x[1,1]^2 - x[1,1]")]
    cases = [
        (grid, ANTIDIAG, tail_varied, ANTIDIAG),
        (gf5, ANTIDIAG, monic_over_qq, ANTIDIAG),
        (lex_basis, ANTIDIAG, lex_basis, GREVLEX),
        (grid, ANTIDIAG, [g.repack(wide) for g in tail_varied], ANTIDIAG),
    ]
    for basis, order, other, other_order in cases:
        assert is_groebner_basis(basis, order)
        calls.clear()
        assert not is_groebner_basis(other, other_order)
        assert calls


@pytest.mark.parametrize("stopped", ["buchberger", "is_groebner_basis"])
def test_a_run_the_budget_stops_records_nothing(monkeypatch, stopped):
    """The budget runs out inside the walk of the initial pairs, after ten
    S-pairs reduce to zero; nothing is recorded, and an unbounded
    `is_groebner_basis` on the same generators then reduces its pairs."""
    from ladderdet import groebner

    L, t = ladderdet.load_fixture("staircase10")
    gens = list(mixed_ladder_ideal(L, t).gens)
    calls = _count_s_pairs(monkeypatch)
    counted = groebner.s_polynomial

    def slow(*args):
        if len(calls) == 9:
            time.sleep(0.3)
        return counted(*args)

    real_walk, walks = groebner._walk, []

    def walk(reducer, pairs):
        walks.append(len(pairs))
        return real_walk(reducer, pairs)

    monkeypatch.setattr(groebner, "s_polynomial", slow)
    monkeypatch.setattr(groebner, "_walk", walk)
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.2):
            getattr(groebner, stopped)(gens)
    assert len(calls) == 10 and len(walks) == 1 and walks[0] > 10  # stopped inside the walk
    assert groebner._verdict is None
    monkeypatch.setattr(groebner, "s_polynomial", counted)
    calls.clear()
    assert is_groebner_basis(gens)
    assert calls
    assert groebner._verdict is not None


def test_pair_update_edge_cases():
    # a > b > c: x[1,2] > x[1,1] > x[2,2].
    packing = Ring.for_grid(QQ, 2, 2).packing
    a, b, c = (1 << packing.shift[v] for v in packing.variables[:3])
    # Each case: leads, pair set, lmf, the pairs added, the pair set after.
    cases = [
        # q = 1: the lead a divides lmf = ab, so ab is the only minimal
        # lcm; bc shares b with lmf, and its lcm abc (quotient c) is no
        # minimal one.
        ([a, b + c], {}, a + b, {(0, 2): a + b}, {(0, 2): a + b}),
        # Quotients a (from a^2) and a^2 (from a^3): only a is minimal.
        ([2 * a, 3 * a], {(0, 1): 3 * a}, a + b,
         {(0, 2): 2 * a + b}, {(0, 1): 3 * a, (0, 2): 2 * a + b}),
        # One group, lcm ab, holds ab and the lead b, which is coprime to a.
        ([a + b, b], {(0, 1): a + b}, a, {}, {(0, 1): a + b}),
        # Quotient b is a lead coprime to lmf = a: no pair; quotient c (of
        # ac) is no lead.
        ([b, a + c], {}, a, {(1, 2): a + c}, {(1, 2): a + c}),
        # B_k: b divides abc = lcm(ab, bc), which differs from ab and bc,
        # so the pair (0, 1) is deleted from the pair set.
        ([a + b, b + c], {(0, 1): a + b + c}, b,
         {(0, 2): a + b, (1, 2): b + c}, {(0, 2): a + b, (1, 2): b + c}),
    ]
    for lmG, pairs, lmf, added, after in cases:
        leads = _Leads(packing)
        for lm in lmG:
            leads.add(lm)
        assert _update_pairs(leads, pairs, lmf) == added
        assert pairs == after


def test_driver_pops_live_pairs_by_sugar_first(monkeypatch):
    """Replays the pair updates and S-pairs of one Buchberger run: the
    intersection of the 2-minors of columns 1-2 and 2-4 of the 4x4 grid
    over GF(5).  Its generators t*f and (1 - t)*g are inhomogeneous,
    so sugar can exceed degree, and its updates drop pairs the driver has
    already pushed.  The loop first walks the initial pair set in build
    order: the walked pairs must be exactly the prefix that reduces to zero
    on the generators, then the pair that does not.  After the walk each
    S-pair must be the live pair of least (sugar, order's key of the lcm,
    indices); a new element must take the sugar of the pair it came from;
    and a pair an update drops must never be reduced."""
    from ladderdet import groebner

    events, runs = [], []
    real_initial, real_walk, real_update, real_spoly, real_loop = (
        groebner._initial_pairs, groebner._walk, groebner._update_pairs,
        groebner.s_polynomial, groebner._buchberger_loop)

    def initial(lmG, packing):
        leads, pairs = real_initial(lmG, packing)
        events.append(("initial", dict(pairs)))
        return leads, pairs

    def walk(reducer, pairs):
        walked = real_walk(reducer, pairs)
        events.append(("walked", walked))
        return walked

    def update(leads, pairs, lmf):
        before, n = list(pairs), len(leads.lms)
        added = real_update(leads, pairs, lmf)
        events.append(("update", n, [ij for ij in before if ij not in pairs], added))
        return added

    def spoly(a, b, lcm, guard, field):
        events.append(("spair", a, b, lcm))
        return real_spoly(a, b, lcm, guard, field)

    def loop(gens, order):
        entries = real_loop(gens, order)
        runs.append((gens, order, entries))
        return entries

    F = GF(5)
    L = Ladder.full(4, 4)
    ring = ladder_ring(F, L)
    left = mixed_ladder_ideal(L.band("cols", 1, 2), 2, F, ring)
    right = mixed_ladder_ideal(L.band("cols", 2, 4), 2, F, ring)
    monkeypatch.setattr(groebner, "_verdict", None)
    monkeypatch.setattr(groebner, "_initial_pairs", initial)
    monkeypatch.setattr(groebner, "_walk", walk)
    monkeypatch.setattr(groebner, "_update_pairs", update)
    monkeypatch.setattr(groebner, "s_polynomial", spoly)
    monkeypatch.setattr(groebner, "_buchberger_loop", loop)
    _eliminated_intersection(left, right)

    [(gens, order, entries)] = runs
    index = {id(e): k for k, e in enumerate(entries)}
    lmG = [e[0] for e in entries]
    packing = gens[0].packing

    # The walk: the initial pairs in build order, up to the first whose
    # S-polynomial has a nonzero remainder on the generators.
    assert events[0][0] == "initial"
    initial_pairs = list(events[0][1].items())
    on_gens = Reducer((), order, F, packing)
    for entry in entries[:len(gens)]:
        on_gens.add_entry(entry)
    prefix = 0
    while not on_gens.remainder(real_spoly(entries[initial_pairs[prefix][0][0]],
                                           entries[initial_pairs[prefix][0][1]],
                                           initial_pairs[prefix][1], packing.guard, F)):
        prefix += 1
    assert prefix > 0  # the walk deletes zero pairs before it stops
    walked = [(index[id(a)], index[id(b)]) for _, a, b, _ in events[1:prefix + 2]]
    assert walked == [ij for ij, _ in initial_pairs[:prefix + 1]]
    assert events[prefix + 2][0] == "walked"
    (stop, rem) = events[prefix + 2][1]
    assert stop == initial_pairs[prefix][0] and rem

    def sugar_key(ij, L_ij):
        i, j = ij
        d = mono_degree(L_ij)
        sugar = max(sugars[i] + d - mono_degree(lmG[i]), sugars[j] + d - mono_degree(lmG[j]))
        return (sugar, order.key(L_ij), i, j)

    sugars = [f.degree() for f in gens]
    live = dict(initial_pairs[prefix + 1:])
    pair_sugar = sugar_key(stop, initial_pairs[prefix][1])[0]
    reduced = dropped = 0
    for event in events[prefix + 3:]:
        if event[0] == "update":
            _, n, gone, added = event
            assert n >= len(gens)  # the driver adds element n
            sugars.append(pair_sugar)
            dropped += len(gone)
            for ij in gone:
                del live[ij]
            live.update(added)
            continue
        assert event[0] == "spair"
        _, a, b, lcm = event
        keys = {ij: sugar_key(ij, L_ij) for ij, L_ij in live.items()}
        ij = min(keys, key=keys.get)
        assert ij == (index[id(a)], index[id(b)])
        assert live.pop(ij) == lcm
        pair_sugar = keys[ij][0]
        reduced += 1
    assert not live
    assert reduced and dropped
    # Sugar exceeds degree for some new elements, so inheriting the pair's
    # sugar is not taking the lead's or the lcm's degree.
    assert any(s > mono_degree(lm) for s, lm in zip(sugars[len(gens):], lmG[len(gens):]))


def _random_polynomial(rng, field, packing, variables):
    """2 to 5 terms of degree at most 3; over QQ the coefficients are
    nonintegral or other than +-1 as often as not."""
    terms = {}
    for _ in range(rng.randint(2, 5)):
        m = packing.pack((rng.choice(variables), 1) for _ in range(rng.randint(0, 3)))
        if field.p is None:
            c = field.div(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 3, 7]))
        else:
            c = rng.randrange(1, field.p)
        terms[m] = c
    return Polynomial(field, terms, packing)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("order", [ANTIDIAG, GREVLEX], ids=str)
def test_exact_s_pair_remainder_is_the_normal_form_of_the_s_polynomial(field, order):
    rng = random.Random(7127)
    variables = [gv(i, j) for i in (1, 2) for j in (1, 2, 3)]
    packing = Ring(field, tuple(variables)).packing
    guard = packing.guard
    for _ in range(150):
        f, g = (_random_polynomial(rng, field, packing, variables) for _ in range(2))
        basis = [_random_polynomial(rng, field, packing, variables)
                 for _ in range(rng.randint(0, 3))]
        basis = [b for b in basis if b.leading_term(order)[0] != MONO_ONE]
        (lmf, lcf), (lmg, lcg) = f.leading_term(order), g.leading_term(order)
        lcm = mono_lcm(lmf, lmg, guard)
        a, b = Reducer([f, g], order).entries
        s = (f.mul_term(mono_div(lcm, lmf, guard), field.inv(lcf))
             - g.mul_term(mono_div(lcm, lmg, guard), field.inv(lcg)))
        rem = Reducer(basis, order, field, packing).remainder(
            s_polynomial(a, b, lcm, guard, field))
        assert_exact_coefficients(rem.values())
        assert Polynomial(field, rem, packing) == normal_form(s, basis, order)
        keys = [order.key(m) for m in rem]
        assert keys == sorted(keys, reverse=True)  # leading term first


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("order", [ANTIDIAG, GREVLEX], ids=str)
def test_is_groebner_basis_agrees_with_buchberger_on_perturbed_minors(field, order):
    # A generating set is a Groebner basis iff its leads generate the
    # initial ideal of its reduced basis.
    rng = random.Random(31337)
    ring = Ring.for_grid(field, 3, 3)
    cells = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    nine = [minor(r, c, field) for r in combinations((1, 2, 3), 2)
            for c in combinations((1, 2, 3), 2)]
    verdicts = set()
    for _ in range(40):
        gens = rng.sample(nine, rng.randint(2, 6))
        for k in rng.sample(range(len(gens)), rng.randint(0, 2)):
            i, j = rng.choice(cells)
            extra = Polynomial.variable(field, gv(i, j)) * rng.choice([1, 2, Fraction(2, 3)])
            if rng.random() < 0.5:
                i, j = rng.choice(cells)
                extra = extra * Polynomial.variable(field, gv(i, j))
            gens[k] = gens[k] + extra
        gens = [g for g in gens if not g.is_zero]
        leads = MonomialIdeal.from_monomials(
            ring, [g.repack(ring.packing).leading_term(order)[0] for g in gens])
        reduced = buchberger(gens, order)
        initial = MonomialIdeal.from_monomials(
            ring, [g.repack(ring.packing).leading_term(order)[0] for g in reduced])
        verdict = is_groebner_basis(gens, order)
        assert verdict == (leads == initial)
        assert is_groebner_basis(reduced, order)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_groebner_basis_rejects_perturbed_minors():
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    assert is_groebner_basis(nine)
    for k, extra in enumerate(["x[3,3]^2", "x[1,1]*x[3,3]", "2/3*x[2,2]"]):
        perturbed = nine[:k] + [nine[k] + P(extra)] + nine[k + 1:]
        assert not is_groebner_basis(perturbed)
        assert is_groebner_basis(buchberger(perturbed))


@pytest.mark.parametrize("run", [buchberger, is_groebner_basis], ids=lambda f: f.__name__)
def test_time_limit_stops_the_s_pair_loop(run):
    nine = [minor(r, c) for r in combinations((1, 2, 3), 2) for c in combinations((1, 2, 3), 2)]
    with pytest.raises(InstanceTooLarge):
        with time_limit(1e-9):
            run(nine)


def test_time_limit_reaches_the_pair_build():
    # The 784 2-minors of the full 8 x 8 grid: building their pair set
    # alone takes seconds, and no S-pair is reduced before it is built.
    ring = Ring.for_grid(QQ, 8, 8)
    rows = list(combinations(range(1, 9), 2))
    gens = [expand_minor(Minor(r, c), QQ, ring.packing) for r in rows for c in rows]
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.2):
            is_groebner_basis(gens)
    assert time.monotonic() - start < 1.5


def test_s_pair_step_raises_past_the_exponent_field():
    # With a > b: S(a - b^200, a*b^100 + 1) = -b^300 - 1.
    packing = Ring.for_grid(QQ, 2, 2).packing
    a, b = packing.variables[:2]
    f = Polynomial(QQ, {packing.pack([(a, 1)]): 1, packing.pack([(b, 200)]): -1}, packing)
    g = Polynomial(QQ, {packing.pack([(a, 1), (b, 100)]): 1, MONO_ONE: 1}, packing)
    ef, eg = Reducer([f, g]).entries
    with pytest.raises(ExponentOverflow):
        s_polynomial(ef, eg, mono_lcm(ef[0], eg[0], packing.guard), packing.guard, QQ)


def assert_exact_coefficients(coefficients):
    """Each rational coefficient is an int when integral, else a Fraction:
    never a float, and never an integral Fraction."""
    for c in coefficients:
        assert type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1), c


def test_rational_results_hold_exact_coefficients():
    f = P("2/3*x[1,1]*x[2,2] - x[1,2]*x[2,1] + 5*x[1,1]")
    g = P("3*x[1,1]*x[1,2] + 1/2*x[2,2]")
    results = [normal_form(f, [g]), normal_form(P("x[1,2]"), [f]), *buchberger([f, g]),
               f.monic(), f * g, f + g, f.mul_term(MONO_ONE, Fraction(3, 2))]
    for h in results:
        assert_exact_coefficients(h.terms.values())
    assert {type(c) for h in results for c in h.terms.values()} == {int, Fraction}
    packing = join_packings(f.packing, g.packing)
    f, g = f.repack(packing), g.repack(packing)
    (lmf, lcf), (lmg, lcg) = f.leading_term(), g.leading_term()
    lcm = mono_lcm(lmf, lmg, packing.guard)
    a, b = Reducer([f, g]).entries
    s = Polynomial(QQ, s_polynomial(a, b, lcm, packing.guard, QQ), packing)
    assert s == (f.mul_term(mono_div(lcm, lmf, packing.guard), QQ.inv(lcf))
                 - g.mul_term(mono_div(lcm, lmg, packing.guard), QQ.inv(lcg)))


def _driver_entries(gens, order):
    """The generators in one packing, and the monic `Reducer` entries the
    Buchberger driver ends with on them."""
    gens = _one_packing(g for g in gens if not g.is_zero)
    return gens, _buchberger_loop(gens, order)


def test_interreduce_produces_monic_antichain():
    gens = [minor((1, 2), (1, 2)), P("2*x[1,1]"), P("x[1,1]*x[2,2] + x[1,1]")]
    gens, entries = _driver_entries(gens, ANTIDIAG)
    reduced = interreduce(entries, ANTIDIAG, QQ, gens[0].packing)
    assert len(reduced) < len(entries)
    assert reduced == buchberger(gens)
    leads = [g.leading_term(ANTIDIAG) for g in reduced]
    assert all(c == 1 for _, c in leads)
    guard = reduced[0].packing.guard
    assert all(g.packing is reduced[0].packing for g in reduced)
    for i, (mi, _) in enumerate(leads):
        for jj, (mj, _) in enumerate(leads):
            if i != jj:
                assert not mono_divides(mi, mj, guard)


def _reference_interreduce(G, order):
    """Reduced basis from a Groebner basis given as Polynomials, as
    `interreduce` built it before it took the driver's entries."""
    G = [g.monic(order) for g in _one_packing(G) if not g.is_zero]
    if not G:
        return []
    G.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    packing = G[0].packing
    minimal = []
    leads = []
    for g in G:
        lm = g.leading_term(order)[0]
        mask = mono_mask(lm, packing)
        if not any(not mh & ~mask and mono_divides(h, lm, packing.guard) for h, mh in leads):
            minimal.append(g)
            leads.append((lm, mask))
    reducer = Reducer(minimal, order)
    field = reducer.field
    return [Polynomial(field, {lm: lc, **reducer.remainder(dict(tail))}, packing)
            for lm, lc, tail, _ in reducer.entries]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("order,aux", ORDER_CASES)
def test_interreduce_of_driver_entries_matches_the_polynomial_reference(field, order, aux):
    rng = random.Random(9173)
    variables = [gv(i, j) for i in (1, 2) for j in (1, 2)]
    if aux:
        variables.append(aux_var("t"))
    packing = Ring(field, tuple(variables)).packing
    units = [packing.pack([(v, 1)]) for v in variables]
    shared = checked = dropped = 0
    for _ in range(30):
        # No constant terms, so that few of these ideals are (1).
        gens = [Polynomial(field, {m: c for m, c in f.terms.items() if m != MONO_ONE}, packing)
                for f in (_random_polynomial(rng, field, packing, variables)
                          for _ in range(rng.randint(1, 3)))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        # A generator that shares its lead with another, by a variable
        # below that lead.
        g = gens[0]
        lm = g.leading_term(order)[0]
        below = [u for u in units if order.key(u) < order.key(lm)]
        if below:
            gens.append(g.mul_term(MONO_ONE, 2) + Polynomial(field, {rng.choice(below): 1}, packing))
        gens, entries = _driver_entries(gens, order)
        if entries is None:  # the unit ideal
            continue
        checked += 1
        shared += len({e[0] for e in entries[:len(gens)]}) < len(gens)
        entry_polys = [Polynomial(field, {lm: lc, **dict(tail)}, packing)
                       for lm, lc, tail, _ in entries]
        reduced = interreduce(entries, order, field, packing)
        expected = _reference_interreduce(entry_polys, order)
        assert reduced == expected
        assert [g.terms for g in reduced] == [g.terms for g in expected]
        assert reduced == buchberger(gens, order)
        dropped += len(reduced) < len(entries)
    assert checked >= 20 and shared >= 10 and dropped >= 10


def _small_random_ideal(rng, ring):
    """One or two polynomials of 2 or 3 terms of degree 1 or 2: a lex
    elimination of more or larger ones can run for seconds."""
    field, variables = ring.field, list(ring.variables)
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            m = ring.packing.pack((rng.choice(variables), 1) for _ in range(rng.randint(1, 2)))
            terms[m] = (field.div(rng.choice([1, -1, 2, -3]), rng.choice([1, 1, 2, 3]))
                        if field.p is None else rng.randrange(1, field.p))
        gens.append(Polynomial(field, terms, ring.packing))
    return Ideal(ring, gens)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_intersect_is_the_aux_free_slice_of_the_full_elimination(field):
    rng = random.Random(6151)
    ring = Ring.for_grid(field, 2, 2)

    def hidden_unit(x):
        v = Polynomial(field, {ring.packing.pack([(x, 1)]): 1}, ring.packing)
        return Ideal(ring, [v, v + Polynomial(field, {MONO_ONE: 1}, ring.packing)])

    cases = [(_small_random_ideal(rng, ring), _small_random_ideal(rng, ring)) for _ in range(12)]
    cases.append((hidden_unit(gv(1, 1)), hidden_unit(gv(2, 2))))  # (1) cap (1) = (1)
    for I, J in cases:
        if any(g.terms.keys() == {MONO_ONE} for g in I.gens + J.gens):
            continue
        aux = ring.fresh_aux()
        packing = _packing((aux,) + ring.variables)
        t = 1 << packing.shift[aux]
        gens = [g.repack(packing).mul_term(t, 1) for g in I.gens]
        gens += [h - h.mul_term(t, 1) for h in (h.repack(packing) for h in J.gens)]
        full = buchberger(gens, ANTIDIAG)
        expected = [Polynomial(field, b.terms, ring.packing)
                    for b in full if b.leading_term(ANTIDIAG)[0] < t]
        kept = _eliminated_intersection(I, J)
        assert list(kept) == expected
        assert [g.terms for g in kept] == [g.terms for g in expected]
        assert all(g.packing is ring.packing for g in kept)
        assert kept == tuple(buchberger(kept))
    kept = _eliminated_intersection(*cases[-1])
    assert kept == (Polynomial.one(field),) and Ideal(ring, kept).is_unit()


def _both_routes(I, J):
    """Whether the leads certify I cap J; either way `intersect` gives the
    elimination's reduced basis, term for term, and caches it, and a
    certified basis is that same tuple."""
    eliminated = [list(g.terms.items()) for g in _eliminated_intersection(I, J)]
    certified = _certified_intersection(I, J)
    if certified is not None:
        assert [list(g.terms.items()) for g in certified] == eliminated
    K = I.intersect(J)
    assert [list(g.terms.items()) for g in K.gens] == eliminated
    assert K.groebner_basis() is K.gens
    return certified is not None


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_certified_intersection_is_the_eliminations_basis(field):
    # The band intersections of the paper, wide cap inner by columns and by
    # rows, are certified; two overlapping bands of one size need not be.
    for k, l, t in ((3, 4, 2), (4, 4, 2), (4, 5, 2), (4, 4, 3)):
        L = Ladder.full(k, l)
        ring = ladder_ring(field, L)
        for axis, n in (("cols", l), ("rows", k)):
            wide = mixed_ladder_ideal(L.band(axis, 1, n), t, field, ring)
            inner = mixed_ladder_ideal(L.band(axis, 2, n - 1), t - 1, field, ring)
            assert _both_routes(wide, inner)
            left = mixed_ladder_ideal(L.band(axis, 1, 2), 2, field, ring)
            right = mixed_ladder_ideal(L.band(axis, 2, n), 2, field, ring)
            _both_routes(left, right)
    # Random small ideals A, B on 2x2 and 2x3 grids: A cap B mostly falls
    # back, and A cap (A + B) = A is certified.
    rng = random.Random(6151)
    for k, l in ((2, 2), (2, 3)):
        ring = Ring.for_grid(field, k, l)
        routes = []
        for _ in range(8):
            A, B = _small_random_ideal(rng, ring), _small_random_ideal(rng, ring)
            routes.append(_both_routes(A, B))
            assert _both_routes(A, A + B)
        assert not all(routes)
    # The colon's intersection with a principal ideal, each way.
    ring = Ring.for_grid(field, 3, 3)
    I = Ideal(ring, [minor((1, 2), (1, 2), field), minor((2, 3), (2, 3), field),
                     P("x[1,3]^2", field)])
    routes = []
    for g in (P("x[2,2]", field), minor((1, 2), (1, 2), field)):
        principal = Ideal(ring, [g])
        routes.append(_both_routes(I, principal))
        g = principal.gens[0]
        expected = [_exact_quotient(h, g) for h in _eliminated_intersection(I, principal)]
        assert list(I.colon_poly(g).gens) == expected
    assert routes == [False, True]  # g in I: I cap (g) = (g)


def test_a_certified_intersection_eliminates_nothing(monkeypatch):
    # The 2x3 band of test_band_sum_equals_band_intersection.
    from ladderdet import groebner

    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]])
    J = Ideal(ring, [P("x[1,2]"), P("x[2,2]")])
    packings = []
    real = groebner.buchberger

    def recorded(gens, order=ANTIDIAG, **kwargs):
        packings.extend(g.packing for g in gens)
        return real(gens, order, **kwargs)

    def refused(I, J):
        raise AssertionError("eliminated a certified intersection")

    monkeypatch.setattr(groebner, "buchberger", recorded)
    monkeypatch.setattr(groebner, "_eliminated_intersection", refused)
    K = I.intersect(J)
    assert packings and not any(v.is_aux for p in packings for v in p.variables)
    assert K.equal(Ideal(ring, [minor((1, 2), (1, 2)), minor((1, 2), (2, 3))]))


def test_an_uncertified_intersection_falls_back_to_the_elimination():
    # in((x) cap (x + y)) = (x^2) is strictly inside in(x) cap in(x + y) = (x):
    # neither generator lies in the other ideal, so no lead covers the lcm x.
    ring = Ring.for_grid(QQ, 2, 2)
    J, K = Ideal(ring, [P("x[1,1]")]), Ideal(ring, [P("x[1,1] + x[2,2]")])
    assert _certified_intersection(J, K) is None
    eliminated = _eliminated_intersection(J, K)
    assert eliminated == (P("x[1,1]^2 + x[1,1]*x[2,2]"),)
    assert J.intersect(K).gens == eliminated == K.intersect(J).gens


def test_a_unit_basis_certifies_the_other_sides_basis(monkeypatch):
    from ladderdet import groebner

    ring = Ring.for_grid(QQ, 2, 2)
    J = Ideal(ring, [P("x[1,2]*x[2,1]"), P("x[2,2]^2 - x[1,1]")])
    monkeypatch.setattr(groebner, "_eliminated_intersection", None)
    for gens in ([P("x[1,1]"), P("x[1,1] + 1")], [P("x[2,1] - 2"), P("x[2,1]^2")]):
        hidden, again = Ideal(ring, gens), Ideal(ring, gens)  # (1), not visibly
        assert not hidden._cache and not again._cache
        assert hidden.intersect(J).gens == J.groebner_basis() == J.intersect(again).gens


@pytest.mark.parametrize("order", [ANTIDIAG, GREVLEX], ids=str)
def test_ideal_normal_form_on_the_kept_reducer(order):
    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]] + [P("x[1,1]^2")])
    inside = [P("x[1,1]*x[2,2]"), P("x[1,2]*x[2,3] + 3*x[1,1]"),
              P("x[1,3]*x[2,1]*x[2,2] - 2/3*x[1,1]^3"), P("x[2,3]")]
    outside = [P("x[3,1]*x[1,2]*x[2,1]"), P("x[1,2]*x[2,1]*x[3,3] - x[1,1]^2*x[3,3]"),
               P("x[4,4]")]  # variables outside the ring

    def check(ideal, basis):
        for f in inside + outside + inside:
            got, expected = ideal.normal_form(f, order), normal_form(f, basis, order)
            assert got == expected and got.packing is expected.packing
            assert ideal.contains(f) == expected.is_zero

    basis = I.groebner_basis(order)
    check(I, basis)
    reducers = I._reducers[order]
    assert ring.packing in reducers and len(reducers) == 1 + len(outside)
    kept = dict(reducers)
    check(I, basis)
    assert all(I._reducers[order][k] is r for k, r in kept.items())  # reused, not rebuilt
    # An ideal built on a known basis starts with no reducers and reduces
    # on that basis.
    other = Ideal(ring, [P("x[1,1]"), P("x[2,2] - x[1,3]")]).groebner_basis(order)
    J = Ideal._with_bases(ring, other, {order: other})
    assert not J._reducers
    check(J, other)
    assert J.initial_ideal(order) == MonomialIdeal.from_monomials(
        ring, [g.leading_term(order)[0] for g in other])


def test_golden_reduced_basis_strings():
    # Canonical serialization: monic generators sorted by leading monomial.
    ring = Ring.for_grid(QQ, 3, 3)
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    I = Ideal(ring, nine)
    assert I.canonical_strings() == [
        "x[2,2]*x[3,1] - x[2,1]*x[3,2]",
        "x[2,3]*x[3,1] - x[2,1]*x[3,3]",
        "x[2,3]*x[3,2] - x[2,2]*x[3,3]",
        "x[1,2]*x[3,1] - x[1,1]*x[3,2]",
        "x[1,2]*x[2,1] - x[1,1]*x[2,2]",
        "x[1,3]*x[3,1] - x[1,1]*x[3,3]",
        "x[1,3]*x[3,2] - x[1,2]*x[3,3]",
        "x[1,3]*x[2,1] - x[1,1]*x[2,3]",
        "x[1,3]*x[2,2] - x[1,2]*x[2,3]",
    ]


def test_concurrent_basis_reads():
    from concurrent.futures import ThreadPoolExecutor

    ring = Ring.for_grid(QQ, 3, 3)
    nine = [minor((r1, r2), (c1, c2))
            for r1, r2 in [(1, 2), (1, 3), (2, 3)]
            for c1, c2 in [(1, 2), (1, 3), (2, 3)]]
    I = Ideal(ring, nine)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: I.groebner_basis(), range(8)))
    assert all(r == results[0] for r in results)


def test_bracket_generators_are_pth_powers():
    F2 = GF(2)
    ring = Ring.for_grid(F2, 2, 2)
    I = Ideal(ring, [minor((1, 2), (1, 2), F2), P("x[1,1]", F2)])
    bracket = I.bracket(2)
    assert all(g == h ** 2 for g, h in zip(bracket.gens, I.gens))


def test_ring_mismatch_rejected():
    ring_a = Ring.for_grid(QQ, 2, 2)
    ring_b = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring_a, [P("x[1,1]")])
    J = Ideal(ring_b, [P("x[1,1]")])
    with pytest.raises(ValueError):
        I.intersect(J)
    with pytest.raises(ValueError):
        Ideal(ring_a, [P("x[1,3]")])  # generator outside the ring
    with pytest.raises(ValueError):
        Ideal(ring_a, [P("x[1,1]", GF(2))])  # wrong coefficient field


def test_ideal_equal_is_reflexive_and_symmetric():
    ring = Ring.for_grid(QQ, 2, 3)
    I = Ideal(ring, [minor((1, 2), (1, 2)), minor((1, 2), (2, 3))])
    # same ideal under a different presentation
    J = Ideal(ring, [minor((1, 2), (1, 2)) + minor((1, 2), (2, 3)),
                     minor((1, 2), (2, 3)) * 3])
    assert I.equal(I)
    assert I.equal(J) and J.equal(I)
    K = Ideal(ring, [minor((1, 2), (1, 3))])
    assert not I.equal(K) and not K.equal(I)
