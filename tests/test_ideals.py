"""Determinantal ideal constructors and witness polynomials."""

import random
import time
import tracemalloc
from itertools import combinations

import pytest

import ladderdet
from ladderdet.fields import QQ
from ladderdet.groebner import Ideal, InstanceTooLarge, Ring
from ladderdet.ideals import (
    GWitnessError,
    PartialPermutation,
    PosetIdealSpec,
    antidiagonal_lead,
    corner_ideal,
    corner_ladder,
    f_of_matrix,
    f_witness,
    g_witness,
    g_witness_data,
    ladder_ring,
    minor_leq,
    minor_product,
    minor_poset,
    minors_in_ladder,
    mixed_ladder_ideal,
    omega_delta_ideal,
    poset_ideal,
    poset_ideal_brute,
    schubert_ideal,
)
from ladderdet.ladders import (Ladder, LadderError, antidiagonal_profile, height,
                               random_valid_ladder, validate)
from ladderdet.poly import (Minor, Monomial, Polynomial, expand_minor, grid_var, mono,
                            mono_is_squarefree, time_limit)


def test_minors_in_ladder_examples():
    assert [str(m) for m in minors_in_ladder(Ladder.full(2, 2), 2)] == ["[12|12]"]
    assert len(minors_in_ladder(Ladder.full(3, 3), 2)) == 9
    block = Ladder((3, 3), ((1, 3),), ((2, 2),))
    assert [str(m) for m in minors_in_ladder(block, 2)] == ["[12|23]"]
    assert minors_in_ladder(Ladder.full(2, 2), 3) == []


def test_minors_brute_force_containment():
    rng = random.Random(4)
    for _ in range(15):
        L, _ = random_valid_ladder(rng, 6, mixed=False)
        for t in (1, 2, 3):
            fast = {(m.rows, m.cols) for m in minors_in_ladder(L, t)}
            from itertools import combinations

            slow = set()
            cells = L.cells
            for rows in combinations(sorted({i for i, _ in cells}), t):
                for cols in combinations(sorted({j for _, j in cells}), t):
                    if all((i, j) in cells for i in rows for j in cols):
                        slow.add((rows, cols))
            assert fast == slow


def _staircases(k, l):
    """Every nonempty corner list strictly increasing in rows and columns."""
    for u in range(1, min(k, l) + 1):
        for rows in combinations(range(1, k + 1), u):
            for cols in combinations(range(1, l + 1), u):
                yield tuple(zip(rows, cols))


def test_mixed_ladder_ideal_is_the_ideal_of_its_minors_on_every_small_ladder():
    # A corner repeated in a row or a column bounds no more cells than its
    # neighbour, so these corner lists give every ladder up to 4x4 (8,072).
    ladders = {}
    for k in range(1, 5):
        for l in range(1, 5):
            for upper in _staircases(k, l):
                for lower in _staircases(k, l):
                    L = Ladder((k, l), upper, lower)
                    ladders.setdefault((L.shape, L.spans), L)
    assert len(ladders) == 8072
    for L in ladders.values():
        ring = ladder_ring(QQ, L)
        for t in range(1, min(L.shape) + 1):
            built = mixed_ladder_ideal(L, t, QQ, ring)
            expected = Ideal(ring, [expand_minor(m, QQ, ring.packing)
                                    for m in minors_in_ladder(L, t)])
            assert built.gens == expected.gens
            assert [list(g.terms.items()) for g in built.gens] == [
                list(g.terms.items()) for g in expected.gens]
            assert not built._cache


def test_grid_var_interns_only_valid_cells():
    assert grid_var(2, 3) is grid_var(2, 3)
    for _ in range(2):  # a refused cell is not interned, so it is refused again
        for i, j in ((0, 1), (1, -2)):
            with pytest.raises(ValueError, match="1-based"):
                grid_var(i, j)


def test_mixed_ladder_ideal_staircase10():
    L, t = ladderdet.load_fixture("staircase10")
    mixed = {(m.rows, m.cols) for m in minors_in_ladder(L, t)}
    union = set()
    for j, tj in enumerate(t, start=1):
        union |= {(m.rows, m.cols) for m in minors_in_ladder(L.subladder(j), tj)}
    assert mixed == union

    const = {(m.rows, m.cols) for m in minors_in_ladder(L, (2, 2, 2, 2))}
    plain = {(m.rows, m.cols) for m in minors_in_ladder(L, 2)}
    assert const == plain


def test_mixed_ladder_sizes_follow_size_vector():
    L, _ = ladderdet.load_fixture("staircase10")
    with pytest.raises(LadderError):
        mixed_ladder_ideal(L, (2, 3))
    one = {(m.rows, m.cols) for m in minors_in_ladder(L, (2,))}
    assert one == {(m.rows, m.cols) for m in minors_in_ladder(L, 2)}


def test_f_witness_examples():
    L3 = Ladder.full(3, 3)
    expected = (
        expand_minor(Minor((1, 2), (1, 2)))
        * expand_minor(Minor((1, 2, 3), (1, 2, 3)))
        * expand_minor(Minor((2, 3), (2, 3)))
    )
    assert f_witness(L3, (2,)) == expected

    assert f_witness(Ladder.full(2, 2), (2,)) == expand_minor(Minor((1, 2), (1, 2)))

    f23 = f_witness(Ladder.full(2, 3), (2,))
    factors23 = antidiagonal_profile(Ladder.full(2, 3), (2,)).witness_factors
    assert [str(m) for m in factors23] == ["[12|12]", "[12|23]"]
    lead = f23.leading_term()[0]
    assert mono_is_squarefree(lead)


def test_f_witness_lead_squarefree_randomized():
    rng = random.Random(6)
    for _ in range(25):
        L, t = random_valid_ladder(rng, 8, mixed=True)
        lead = antidiagonal_lead(antidiagonal_profile(L, t).witness_factors)
        assert mono_is_squarefree(lead.value)


def test_f_of_matrix_examples():
    f22 = f_of_matrix(2, 2)
    x11 = Polynomial.variable(QQ, grid_var(1, 1))
    x22 = Polynomial.variable(QQ, grid_var(2, 2))
    assert f22 == x11 * x22 * expand_minor(Minor((1, 2), (1, 2)))

    # The factors of the full grid's t = 1 witness in (gamma, r) order, the
    # order `knutson.corner_derivation` lists them in: NW 1, SE 1, NW 2, ...,
    # then the full-width bands.
    def factors(k, l):
        witness = antidiagonal_profile(Ladder.full(k, l), 1).witness
        return [str(ld.minor) for ld in sorted(witness, key=lambda ld: (ld.gamma, ld.r))]

    assert factors(3, 3) == ["[1|1]", "[3|3]", "[12|12]", "[23|23]", "[123|123]"]
    assert factors(2, 3) == ["[1|1]", "[2|3]", "[12|12]", "[12|23]"]
    assert factors(3, 2) == ["[1|1]", "[3|2]", "[12|12]", "[23|12]"]


def test_f_of_matrix_lead_is_every_variable():
    for k in (2, 3, 4):
        for l in (2, 3, 4):
            f = f_of_matrix(k, l)
            lead = f.leading_term()[0]
            assert mono_is_squarefree(lead) and len(Monomial(f.packing, lead).exponents()) == k * l


def test_g_witness_3x3():
    data = g_witness_data(Ladder.full(3, 3), (2,))
    assert data.beta == 4
    assert str(data.y_minor) == "[12|23]"
    assert sorted(str(m) for m in data.factors) == ["[12|12]", "[12|23]", "[23|23]"]
    assert data.count == 3  # height - 1
    assert mono_is_squarefree(data.lead.value)
    assert "x[3,1]" not in str(data.lead)
    # g is a product of three 2-minors inside the ladder: g in I^3 <= I^(3)
    g = g_witness(Ladder.full(3, 3), (2,))
    ring = ladder_ring(QQ, Ladder.full(3, 3))
    I = mixed_ladder_ideal(Ladder.full(3, 3), 2, QQ, ring)
    assert I.power(3).contains(g)


def test_g_witness_2x2_degenerate():
    data = g_witness_data(Ladder.full(2, 2), (2,))
    assert [str(m) for m in data.factors] == ["[1|2]"]
    assert data.count == 0
    assert g_witness(Ladder.full(2, 2), (2,)) == Polynomial.variable(QQ, grid_var(1, 2))


def test_g_witness_requires_tv_above_one():
    with pytest.raises(GWitnessError):
        g_witness_data(Ladder.full(3, 3), (1,))


def _check_g_witness(L, t):
    """g_witness_data builds, and its witness passes the checks it makes."""
    data = g_witness_data(L, t)
    k = L.shape[0]
    assert data.alpha == len(L.lower) and L.lower[-1][0] == k
    assert data.beta == k + L.lower[-1][1]
    assert mono_is_squarefree(data.lead.value)
    assert grid_var(k, L.lower[-1][1]) not in data.lead.packing.shift
    assert data.count == height(L, t) - 1
    assert L.contains_minor(data.y_minor)


@pytest.mark.parametrize("shape,lower", [((6, 4), ((6, 1), (6, 3))),
                                         ((3, 7), ((3, 1), (3, 6)))])
def test_g_witness_two_lower_corners_in_the_last_row(shape, lower):
    # alpha is the last lower corner in row k, whose subladder is L_v; the
    # first one there leaves level k + c_alpha with p = 1 instead of v.
    L = Ladder(shape, ((1, shape[1]),), lower)
    assert validate(L, (3, 2)).valid
    _check_g_witness(L, (3, 2))


def test_g_witness_builds_on_seeded_ladders():
    rng = random.Random(1)
    built = 0
    for n in range(400):
        L, t = random_valid_ladder(rng, 8, mixed=n % 2 == 1)
        if t[-1] > 1:
            _check_g_witness(L, t)
            built += 1
    assert built >= 100


def from_one_line(word):
    """Permutation in one-line notation: w[i] = column of the 1 in row i."""
    return PartialPermutation((len(word), len(word)),
                              frozenset((i + 1, w) for i, w in enumerate(word) if w))


def test_schubert_examples():
    w = from_one_line([2, 1, 3])
    I = schubert_ideal(w)
    assert [str(g) for g in I.gens] == ["x[1,1]"]

    identity = from_one_line([1, 2, 3])
    assert schubert_ideal(identity).is_zero

    ring = Ring.for_grid(QQ, 3, 3)
    for t in (2, 3):
        w = PartialPermutation((3, 3), frozenset((i, i) for i in range(1, t)))
        classical = Ideal(ring, [expand_minor(m) for m in minors_in_ladder(Ladder.full(3, 3), t)])
        assert schubert_ideal(w).equal(classical)


def test_schubert_single_condition_matches_corner():
    # only w11 = 1: every 2x2 NW rank is bounded by 1, so I_w = I_2(X)
    w = PartialPermutation((3, 3), frozenset({(1, 1)}))
    I = schubert_ideal(w)
    assert I.equal(corner_ideal(3, 3, 2, 3, 3))

    empty = PartialPermutation((3, 3), frozenset())
    assert schubert_ideal(empty).equal(corner_ideal(3, 3, 1, 3, 3))


def test_partial_permutation_validation():
    with pytest.raises(ValueError):
        PartialPermutation((2, 2), frozenset({(1, 1), (1, 2)}))
    w = from_one_line([2, 1])
    assert w.rank(1, 1) == 0 and w.rank(2, 2) == 2
    assert PartialPermutation.from_json(w.to_json()) == w


def test_corner_ideal_examples():
    assert [str(g) for g in corner_ideal(3, 3, 1, 1, 1).gens] == ["x[1,1]"]
    assert [str(g) for g in corner_ideal(3, 3, 1, 1, 1, "se").gens] == ["x[3,3]"]
    nw = corner_ideal(3, 3, 2, 2, 3)
    assert len(nw.gens) == 3
    for t in (0, 3):
        with pytest.raises(ValueError, match="minors in a 2x2 corner"):
            corner_ideal(3, 3, t, 2, 2)
    with pytest.raises(ValueError, match="which must be"):
        corner_ideal(3, 3, 1, 2, 2, "ne")


def test_corner_ladder_is_the_corner_rectangle():
    for which, rows, cols in (("nw", range(1, 3), range(1, 4)), ("se", range(3, 5), range(3, 6))):
        corner = corner_ladder(4, 5, 2, 3, which)
        assert corner.shape == (4, 5)
        assert corner.cells == {(i, j) for i in rows for j in cols}


def test_corner_minors_honour_time_limit():
    # The 189,225 2-minors of a 30 x 30 corner take about 0.8 s to list on a
    # 2-CPU machine; the budget is checked once every 256 minors.
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.01):
            minors_in_ladder(corner_ladder(30, 30, 30, 30), 2)
    assert time.monotonic() - start < 0.5


def test_minor_enumeration_stops_within_its_budget():
    # The full 3000 x 3000 ladder has 4.5 million column pairs.  Listing
    # them, and every minor of one row pair, before the first budget check
    # took 0.63 s and 328 MB; the budget is checked inside the column loop.
    L = Ladder.full(3000, 3000)
    L.spans
    tracemalloc.start()
    start = time.monotonic()
    try:
        with pytest.raises(InstanceTooLarge, match="time budget exceeded"):
            with time_limit(0.05):
                minors_in_ladder(L, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 0.5
    assert peak < 8 * 2**20


def test_ladder_ring_refuses_too_many_cells_before_listing_them():
    # The full 3000 x 3000 ladder has 9,000,000 cells; listing them took
    # several seconds and over 1 GB.  The ring is refused on the count.
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge, match="at most 1024 variables, got 9000000"):
        with time_limit(1):
            mixed_ladder_ideal(Ladder.full(3000, 3000), 2)
    assert time.monotonic() - start < 3
    assert ladder_ring(QQ, Ladder.full(32, 32)).nvars == 1024
    with pytest.raises(InstanceTooLarge):
        ladder_ring(QQ, Ladder.full(1, 1025))


def _random_corner_ladder(rng):
    """A ladder from random corner lists, which may leave rows empty."""
    while True:
        k, l = rng.randint(1, 8), rng.randint(1, 8)
        upper = sorted((rng.randint(1, k), rng.randint(1, l)) for _ in range(rng.randint(1, 3)))
        lower = sorted((rng.randint(1, k), rng.randint(1, l)) for _ in range(rng.randint(1, 4)))
        try:
            return Ladder((k, l), upper, lower)
        except LadderError:
            continue


def test_ladder_ring_matches_the_ring_of_its_sorted_cells():
    rng = random.Random(26)
    ladders = [_random_corner_ladder(rng) for _ in range(200)]
    ladders += [random_valid_ladder(rng, 7, mixed=True)[0] for _ in range(50)]
    assert any(lo > hi for L in ladders for lo, hi in L.spans)  # empty rows
    assert any(len(L.lower) > 1 for L in ladders)
    for L in ladders:
        ring = ladder_ring(QQ, L)
        assert ring.packing is Ring.for_cells(QQ, sorted(L.cells)).packing
        assert ring.variables == tuple(sorted(ring.variables, reverse=True))


def test_minor_poset_and_order():
    poset22 = minor_poset(2, 2)
    assert len(poset22) == 5
    poset33 = minor_poset(3, 3)
    assert len(poset33) == 19
    a = Minor((1,), (1,))
    b = Minor((2,), (2,))
    det = Minor((1, 2), (1, 2))
    assert minor_leq(det, a) and minor_leq(a, b)
    assert not minor_leq(a, det)


def test_omega_delta_examples():
    # 2x2, delta = [1|1]: complement ideal is generated by the determinant
    delta = Minor((1,), (1,))
    formula = omega_delta_ideal(2, 2, delta)
    ring = Ring.for_grid(QQ, 2, 2)
    assert formula.equal(Ideal(ring, [expand_minor(Minor((1, 2), (1, 2)))]))
    assert formula.equal(poset_ideal_brute(2, 2, delta))


def test_omega_delta_matches_bruteforce_3x3():
    rng = random.Random(8)
    deltas = rng.sample(minor_poset(3, 3), 6)
    for delta in deltas:
        assert omega_delta_ideal(3, 3, delta).equal(poset_ideal_brute(3, 3, delta))


def test_poset_checks_build_the_poset_once(monkeypatch):
    from ladderdet import ideals

    omega = minor_poset(4, 4)
    calls = []

    def counted(k, l):
        calls.append((k, l))
        return minor_poset(k, l)

    monkeypatch.setattr(ideals, "minor_poset", counted)
    assert ideals.is_poset_ideal(4, 4, omega)
    assert ideals.is_generalized_poset_ideal(4, 4, omega)
    assert calls == [(4, 4), (4, 4)]


def test_poset_ideal_specs():
    ring = Ring.for_grid(QQ, 2, 2)
    everything = poset_ideal(2, 2, PosetIdealSpec("explicit", tuple(minor_poset(2, 2))))
    assert everything.equal(ring.maximal_ideal())

    nothing = poset_ideal(2, 2, PosetIdealSpec("explicit", ()))
    assert nothing.is_zero

    with pytest.raises(ValueError):
        poset_ideal(2, 2, PosetIdealSpec("explicit", (Minor((2,), (2,)),)))

    cogen = poset_ideal(2, 2, PosetIdealSpec("cogenerators", (Minor((1,), (1,)),)))
    assert cogen.equal(poset_ideal_brute(2, 2, Minor((1,), (1,))))


def test_generalized_poset_ideal():
    # Pi_{1,1} = {[1|1]} is a generalized ideal but checking closure under
    # the full poset order would reject it.
    ring = Ring.for_grid(QQ, 2, 2)
    gen = poset_ideal(2, 2, PosetIdealSpec("generalized", (Minor((1,), (1,)),)))
    assert [str(g) for g in gen.gens] == ["x[1,1]"]
    with pytest.raises(ValueError):
        poset_ideal(2, 2, PosetIdealSpec("explicit", (Minor((1,), (1,)),)))
    with pytest.raises(ValueError):
        poset_ideal(2, 2, PosetIdealSpec("generalized", (Minor((2,), (2,)),)))


@pytest.mark.parametrize("kind", ["explicit", "cogenerators", "generalized"])
def test_poset_ideal_rejects_minors_outside_the_grid(kind):
    for outside in (Minor((3,), (1,)), Minor((1, 2), (2, 3))):
        with pytest.raises(ValueError, match="outside the 2x2 grid"):
            poset_ideal(2, 2, PosetIdealSpec(kind, (Minor((1,), (1,)), outside)))
    with pytest.raises(ValueError, match="0x0"):
        poset_ideal(0, 0, PosetIdealSpec(kind, ()))


@pytest.mark.parametrize("k,l,delta", [(2, 2, Minor((3,), (3,))), (2, 2, Minor((1, 2), (2, 3))),
                                       (0, 0, Minor((1,), (1,)))])
def test_cogenerated_ideals_reject_a_grid_they_cannot_use(k, l, delta):
    for build in (omega_delta_ideal, poset_ideal_brute):
        with pytest.raises(ValueError, match="grid"):
            build(k, l, delta)


def test_initial_of_principal_full_witness():
    from ladderdet.groebner import Ideal, InstanceTooLarge

    ring = Ring.for_grid(QQ, 3, 3)
    f = f_of_matrix(3, 3)
    init = Ideal(ring, [f]).initial_ideal()
    all_nine = mono(*((grid_var(i, j), 1) for i in (1, 2, 3) for j in (1, 2, 3)))
    assert init.gens == (all_nine.packed_in(ring.packing),)


def test_f_witness_degree_is_sum_of_gammas():
    import random as _random
    from ladderdet.ladders import antidiagonal_profile

    rng = _random.Random(14)
    cases = [(Ladder.full(3, 3), (2,)), (Ladder.full(2, 3), (2,))]
    for _ in range(10):
        cases.append(random_valid_ladder(rng, 6, mixed=True))
    for L, t in cases:
        prof = antidiagonal_profile(L, t)
        gammas = sum(ld.gamma for ld in prof.witness)
        assert f_witness(L, t).degree() == gammas


def test_g_witness_mixed_staircase():
    import ladderdet
    from ladderdet.ladders import height

    L, t = ladderdet.load_fixture("staircase10")
    data = g_witness_data(L, t)
    assert data.beta == L.shape[0] + L.lower[data.alpha - 1][1]
    assert data.count == height(L, t) - 1
    assert mono_is_squarefree(data.lead.value)
    corner = L.lower[data.alpha - 1]
    assert f"x[{corner[0]},{corner[1]}]" not in str(data.lead)
    cells = L.cells
    assert all(cell in cells for m in data.factors for cell in m.cells())


def test_witness_expansion_guard():
    import ladderdet

    L, t = ladderdet.load_fixture("staircase10")
    with pytest.raises(InstanceTooLarge):
        g_witness(L, t)
    with pytest.raises(InstanceTooLarge):
        f_witness(L, t)


def test_expansion_refusal_does_not_depend_on_the_factor_order():
    # f_of_matrix(5, 5) has nine factors, 5! * 4!^2 * 3!^2 * 2!^2 * 1!^2
    # = 9953280 terms at most; largest first the product passes the cap at
    # the fourth factor, 5! * 4! * 4! * 3!.
    factors = list(antidiagonal_profile(Ladder.full(5, 5), 1).witness_factors)
    rng = random.Random(5)
    for _ in range(6):
        with pytest.raises(InstanceTooLarge, match=r"could reach 414720\+ terms"):
            minor_product(factors)
        rng.shuffle(factors)
