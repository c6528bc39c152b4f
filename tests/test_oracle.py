"""Symbolic-power counts, splitting certificates, Fedder membership, and
the initial-ideal comparison."""

import json
import random
import time

import pytest

import ladderdet
from ladderdet.fields import GF, QQ
from ladderdet import poly
from ladderdet.groebner import Ideal, InstanceTooLarge, Ring
from ladderdet.ideals import (
    f_of_matrix,
    f_witness,
    g_witness_data,
    ladder_ring,
    minor_product,
    minor_product_symbolic_degree,
    mixed_ladder_ideal,
)
from ladderdet.ladders import Ladder, antidiagonal_profile, height, random_valid_ladder
from ladderdet.oracle import (
    fedder_check,
    initial_symbolic_compare,
    outside_frobenius_power_of_m,
    saturation_strategy,
    symbolic_fsplit_certificate,
    symbolic_power_saturation,
)
from ladderdet.poly import (
    Minor,
    Polynomial,
    expand_minor,
    grid_var,
    mono,
    mono_is_squarefree,
    mono_pow,
)
from monomial_ideals import contains_monomial_ideal, monomial_power


def test_symbolic_degree_examples():
    det3 = Minor((1, 2, 3), (1, 2, 3))
    assert minor_product_symbolic_degree([det3], 2) == 2
    two = Minor((1, 2), (1, 2))
    assert minor_product_symbolic_degree([two, two], 2) == 2
    assert minor_product_symbolic_degree([Minor((1,), (1,))], 2) == 0
    for t in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            minor_product_symbolic_degree([two], t)


def test_symbolic_degree_ladder_containment():
    # The count holds for factors in the ladder, which the caller checks.
    block = Ladder((3, 3), ((1, 3),), ((2, 2),))
    assert not block.contains_minor(Minor((1, 2), (1, 2)))
    inside = Minor((1, 2), (2, 3))
    assert block.contains_minor(inside)
    assert minor_product_symbolic_degree([inside], 2) == 1


def test_witness_degree_equals_height_randomized():
    rng = random.Random(12)
    for _ in range(40):
        L, t = random_valid_ladder(rng, 8, mixed=True)
        if len(set(t)) != 1:
            continue
        factors = antidiagonal_profile(L, t).witness_factors
        assert all(L.contains_minor(m) for m in factors)
        assert minor_product_symbolic_degree(list(factors), t[0]) == height(L, t)


def test_certificate_3x3():
    cert = symbolic_fsplit_certificate(Ladder.full(3, 3), (2,))
    assert cert.h == 4 and cert.counts == (1, 2, 1)
    assert len(cert.lead.exponents()) == 7
    payload = json.loads(cert.to_json())
    assert payload["h"] == 4 and payload["counts"] == [1, 2, 1]
    assert payload["checks"]["lead_squarefree"]
    f = witness_polynomial(cert, QQ)
    assert f == f_witness(Ladder.full(3, 3), (2,))


def witness_polynomial(cert, field):
    """The expanded witness f of a certificate: the product of its factors."""
    return minor_product([m for m, _, _, _ in cert.factors], field)


def test_certificate_2x2():
    cert = symbolic_fsplit_certificate(Ladder.full(2, 2), (2,))
    assert cert.h == 1 and cert.counts == (1,)
    assert str(cert.lead) == "x[1,2]*x[2,1]"


def test_certificate_staircase10_mixed():
    L, t = ladderdet.load_fixture("staircase10")
    cert = symbolic_fsplit_certificate(L, t)
    assert sum(cert.counts) == cert.h == height(L, t)
    assert all(c.ok for c in cert.checks)


def test_certificate_refuses_too_many_variables_before_packing_the_lead():
    # On the full 600 x 600 ladder the lead has 359,998 variables; interning
    # one per antidiagonal cell took seconds and about 200 MB before the
    # ring cap.  The factor sizes, which the profile holds, are refused first.
    # The profile reads each level off two bisections, so the 30000 x 30000
    # ladder is refused in about 1.6 s on a 2-CPU machine.
    interned = len(poly._GRID)
    for n, got, seconds in ((600, 359998, 3), (30000, 899999998, 6)):
        start = time.monotonic()
        with pytest.raises(InstanceTooLarge, match=f"at most 1024 variables, got {got}$"):
            symbolic_fsplit_certificate(Ladder.full(n, n), [2])
        assert time.monotonic() - start < seconds
    assert len(poly._GRID) == interned
    cert = symbolic_fsplit_certificate(Ladder.full(32, 32), [2])
    assert len(cert.lead.variables) == sum(g for _, g, _, _ in cert.factors) == 1022
    with pytest.raises(InstanceTooLarge, match="got 1087"):
        symbolic_fsplit_certificate(Ladder.full(33, 33), [2])


def test_g_witness_count_is_both_former_counts():
    # The one count equals the symbolic degree of the factors for unmixed
    # sizes, and gamma_beta - t_v plus the other levels' counts for mixed
    # ones.
    rng = random.Random(27)
    seen = mixed = 0
    while seen < 2000:
        L, t = random_valid_ladder(rng, 7, mixed=rng.random() < 0.5)
        if t[-1] < 2:
            continue
        data = g_witness_data(L, t)
        seen += 1
        if len(set(t)) == 1:
            assert all(L.contains_minor(m) for m in data.factors), (L, t)
            former = minor_product_symbolic_degree(list(data.factors), t[0])
        else:
            mixed += 1
            witness = antidiagonal_profile(L, t).witness
            gamma = next(ld.gamma for ld in witness if ld.r == data.beta)
            former = gamma - t[-1] + sum(ld.count for ld in witness if ld.r != data.beta)
        assert data.count == former == height(L, t) - 1, (L, t)
    assert mixed >= 100


def test_g_witness_degree_count_randomized():
    rng = random.Random(13)
    seen = 0
    for _ in range(60):
        L, t = random_valid_ladder(rng, 7, mixed=False)
        if t[-1] < 2:
            continue
        data = g_witness_data(L, t)
        seen += 1
        assert all(L.contains_minor(m) for m in data.factors)
        assert minor_product_symbolic_degree(list(data.factors), t[0]) == height(L, t) - 1
    assert seen >= 10


def test_symbolic_power_principal_and_variables():
    ring = Ring.for_grid(QQ, 2, 2)
    det = expand_minor(Minor((1, 2), (1, 2)))
    I = Ideal(ring, [det])
    for n in (1, 2, 3):
        out = symbolic_power_saturation(I, n, ring.maximal_ideal())
        assert out.equal(I.power(n))

    ones = Ladder.full(2, 2)
    I1 = mixed_ladder_ideal(ones, 1, QQ)
    out = symbolic_power_saturation(I1, 2, saturation_strategy(ones, 1, I1.ring))
    assert out.equal(I1.power(2))


def test_symbolic_square_contains_determinant():
    F5 = GF(5)
    L3 = Ladder.full(3, 3)
    ring = ladder_ring(F5, L3)
    I = mixed_ladder_ideal(L3, 2, F5, ring)
    out = symbolic_power_saturation(I, 2, saturation_strategy(L3, 2, ring))
    det3 = expand_minor(Minor((1, 2, 3), (1, 2, 3)), F5)
    assert out.contains(det3)
    assert not I.power(2).contains(det3)


def test_symbolic_power_refuses_mixed_and_oversize():
    L, t = ladderdet.load_fixture("staircase10")
    with pytest.raises(ValueError, match="the saturation oracle handles unmixed sizes only"):
        saturation_strategy(L, t, ladder_ring(QQ, L))
    ring = Ring.for_grid(QQ, 4, 4)
    I = Ideal(ring, [Polynomial.variable(QQ, grid_var(1, 1))])
    with pytest.raises(ValueError):
        symbolic_power_saturation(I, 2, ring.maximal_ideal())  # 16 > 9 variables
    ring1 = Ring.for_grid(QQ, 1, 2)
    J = Ideal(ring1, [Polynomial.variable(QQ, grid_var(1, 1))])
    with pytest.raises(ValueError):
        symbolic_power_saturation(J, 4, ring1.maximal_ideal())


def test_fedder_examples():
    F2 = GF(2)
    ring = Ring.for_grid(F2, 2, 2)
    det = expand_minor(Minor((1, 2), (1, 2)), F2)
    I = Ideal(ring, [det])
    assert fedder_check(I, 2, f_of_matrix(2, 2, F2))

    # non-radical: never F-pure, any candidate fails
    ring1 = Ring.for_cells(F2, [(1, 1)])
    x = Polynomial.variable(F2, grid_var(1, 1))
    J = Ideal(ring1, [x * x])
    assert not fedder_check(J, 2, x)
    assert not fedder_check(J, 2, Polynomial.one(F2))
    assert not fedder_check(J, 2, x * x * x)

    L3 = Ladder.full(3, 3)
    ring3 = ladder_ring(F2, L3)
    I3 = mixed_ladder_ideal(L3, 2, F2, ring3)
    assert fedder_check(I3, 2, f_witness(L3, 2, F2))


def test_fedder_p3():
    F3 = GF(3)
    ring = Ring.for_grid(F3, 2, 2)
    det = expand_minor(Minor((1, 2), (1, 2)), F3)
    I = Ideal(ring, [det])
    assert fedder_check(I, 3, f_of_matrix(2, 2, F3) ** 2)


def _fedder_by_products(I, p, candidate):
    """Fedder's test with every product candidate * g formed from the
    candidate itself, not from its normal form."""
    bracket = I.bracket(p)
    return (all(bracket.contains(candidate * g) for g in I.gens)
            and any(outside_frobenius_power_of_m(m, p) for m in candidate.terms))


@pytest.mark.parametrize("p", [2, 3])
def test_fedder_verdicts_match_the_unreduced_products(p):
    # staircase_sub4x4 at p = 3 takes seconds through the unreduced
    # products; CI's console-script step runs it through fedder_check.
    names = ["full2x2", "full2x3", "full3x3", "full3x4"] + (["staircase_sub4x4"] if p == 2 else [])
    field = GF(p)
    for name in names:
        L, _ = ladderdet.load_fixture(name)
        I = mixed_ladder_ideal(L, 2, field)
        witness = f_witness(L, 2, field) ** (p - 1)
        x = Polynomial.variable(field, grid_var(1, 1))
        g = I.gens[0]
        # The witness power passes and a variable is not in the colon.  g^p
        # lies in I^[p]: its normal form is 0, so every product passes, but
        # it lies in m^[p] too.  witness * x is only compared.
        assert I.bracket(p).normal_form(g ** p).is_zero
        for candidate, expected in [(witness, True), (x, False), (witness * x, None),
                                    (g ** p, False)]:
            verdict = fedder_check(I, p, candidate)
            assert verdict == _fedder_by_products(I, p, candidate), (name, p, candidate)
            if expected is not None:
                assert verdict is expected, (name, p, candidate)


def test_fedder_field_mismatch():
    ring = Ring.for_grid(QQ, 2, 2)
    I = Ideal(ring, [expand_minor(Minor((1, 2), (1, 2)))])
    with pytest.raises(ValueError):
        fedder_check(I, 2, f_of_matrix(2, 2))


def test_initial_symbolic_compare_trivial_cases():
    F5 = GF(5)
    ring = Ring.for_grid(F5, 2, 2)
    det = expand_minor(Minor((1, 2), (1, 2)), F5)
    I = Ideal(ring, [det])
    res = initial_symbolic_compare(I, 1, strategy=ring.maximal_ideal())
    assert res.equal
    res2 = initial_symbolic_compare(I, 2, strategy=ring.maximal_ideal())
    assert res2.equal


def test_initial_symbolic_compare_needs_a_strategy():
    # Saturating by the maximal ideal, a default would report a gap for
    # I = m, where in(m^(2)) = in(m)^(2).
    F5 = GF(5)
    ring = Ring.for_grid(F5, 2, 2)
    I = ring.maximal_ideal()
    with pytest.raises(TypeError):
        initial_symbolic_compare(I, 2)
    assert initial_symbolic_compare(I, 2, strategy=Ideal(ring, [Polynomial.one(F5)])).equal


def test_containment_chain_on_instances():
    # in(I)^n <= in(I^(n)) <= in(I)^(n)
    F5 = GF(5)
    L = Ladder.full(2, 3)
    ring = ladder_ring(F5, L)
    I = mixed_ladder_ideal(L, 2, F5, ring)
    for n in (2, 3):
        sym = symbolic_power_saturation(I, n, ring.maximal_ideal())
        left = monomial_power(I.initial_ideal(), n)
        mid = sym.initial_ideal()
        right = I.initial_ideal().symbolic_power(n)
        assert contains_monomial_ideal(mid, left)
        assert contains_monomial_ideal(right, mid)


def test_certificate_rejects_bad_spec():
    from ladderdet.ladders import LadderError

    with pytest.raises(LadderError):
        symbolic_fsplit_certificate(Ladder.full(3, 3), (2, 2))  # wrong spec length
    with pytest.raises(LadderError):
        symbolic_fsplit_certificate(Ladder.full(3, 3), (0,))


def test_squarefree_witness_lead_lands_in_symbolic_initial():
    # The witness f lies in I^(h) with squarefree lead, so in(I^(h)) picks
    # up a squarefree monomial and in(I) is radical on this instance.
    F5 = GF(5)
    L = Ladder.full(2, 3)
    ring = ladder_ring(F5, L)
    I = mixed_ladder_ideal(L, 2, F5, ring)
    h = height(L, (2,))
    assert h == 2
    sym = symbolic_power_saturation(I, h, saturation_strategy(L, 2, ring))
    f = f_witness(L, 2, F5)
    assert sym.contains(f)
    lead = f.leading_term()[0]
    assert sym.initial_ideal().contains(lead)
    init = I.initial_ideal()
    assert init.is_squarefree() and init.radical().gens == init.gens


def test_initial_compare_reports_witness_when_strategy_too_weak():
    # With the trivial strategy the left side is just in(I^2), which misses
    # the determinant's lead; the comparison must report a gap monomial.
    F5 = GF(5)
    L3 = Ladder.full(3, 3)
    ring = ladder_ring(F5, L3)
    I = mixed_ladder_ideal(L3, 2, F5, ring)
    unit = Ideal(ring, [Polynomial.one(F5)])
    res = initial_symbolic_compare(I, 2, strategy=unit)
    assert not res.equal and res.witness is not None
    assert res.right.contains(res.witness) and not res.left.contains(res.witness)
    det_lead = expand_minor(Minor((1, 2, 3), (1, 2, 3)), F5).leading_term()[0]
    assert res.right.contains(det_lead)


def test_frobenius_check_on_non_squarefree_lead():
    x, y = grid_var(1, 1), grid_var(1, 2)
    for p in (2, 3, 5):
        F = GF(p)
        bracket = Ring.for_grid(F, 1, 2).maximal_ideal().bracket(p)
        # The predicate is non-membership in m^[p].
        for m in (mono((x, p - 1), (y, p - 1)), mono((x, p), (y, 1)), mono((x, 1), (y, p + 1))):
            outside = not bracket.contains(Polynomial(F, {m.value: F.one}, m.packing))
            assert outside_frobenius_power_of_m(m.value, p) == outside
        # A non-squarefree lead to the (p-1) fails it, a squarefree one passes.
        for m, outside in ((mono((x, 2), (y, 1)), False), (mono((x, 1), (y, 1)), True)):
            power = mono_pow(m.value, p - 1, m.packing.guard)
            assert outside_frobenius_power_of_m(power, p) == outside
    # It is not squarefreeness: x^2 avoids m^[3] but is not squarefree.
    assert outside_frobenius_power_of_m(mono((x, 2)).value, 3)
    assert not mono_is_squarefree(mono((x, 2)).value)
