"""Derivation trees: evaluation, verification, constructors, JSON replay."""

import pytest

import ladderdet
from ladderdet.fields import GF, QQ
from ladderdet.groebner import Ideal, Ring
from ladderdet.ideals import ladder_ring, mixed_ladder_ideal
from ladderdet.knutson import (
    DerivationError,
    Intersect,
    KnutsonDerivation,
    Leaf,
    MinimalPrimeClaim,
    Sum,
    corner_derivation,
    derivation_from_json,
    derivation_to_json,
    eval_node,
    ladder_derivation,
    verify,
)
from ladderdet.ladders import Ladder, LadderError, antidiagonal_profile
from ladderdet.poly import Minor, Polynomial, expand_minor, grid_var


def det(rows, cols, field=QQ):
    return expand_minor(Minor(tuple(rows), tuple(cols)), field)


def test_eval_examples():
    ring = Ring.for_grid(QQ, 2, 2)
    leaf = Leaf(det((1, 2), (1, 2)))
    assert eval_node(leaf, ring, {}).equal(Ideal(ring, [det((1, 2), (1, 2))]))

    x11 = Polynomial.variable(QQ, grid_var(1, 1))
    summed = Sum((Leaf(x11), Leaf(det((1, 2), (1, 2)))))
    I = eval_node(summed, ring, {})
    basis = I.groebner_basis()
    from ladderdet.poly import poly_to_str

    assert [poly_to_str(g) for g in basis] == ["x[1,1]", "x[1,2]*x[2,1]"]


def test_eval_intersect_matches_engine():
    ring = Ring.for_grid(QQ, 2, 3)
    wide = [det((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]]
    inner = [Polynomial.variable(QQ, grid_var(1, 2)), Polynomial.variable(QQ, grid_var(2, 2))]
    node = Intersect((Sum(tuple(Leaf(g) for g in wide)), Sum(tuple(Leaf(g) for g in inner))))
    got = eval_node(node, ring, {})
    expected = Ideal(ring, [det((1, 2), (1, 2)), det((1, 2), (2, 3))])
    assert got.equal(expected)


def test_ladder_derivation_2x3_shape():
    deriv = ladder_derivation(Ladder.full(2, 3), 2)
    root = deriv.root
    assert root.kind == "min_prime"
    assert root.child.kind == "sum" and len(root.child.children) == 2
    assert root.identity[0] == "intersect"
    assert verify(deriv).ok


def test_ladder_derivation_t1_plain_sums():
    deriv = ladder_derivation(Ladder.full(3, 3), 1)
    # induction steps at t=1 carry the equality identity, not an intersection
    stack = [deriv.root]
    saw_equal = False
    while stack:
        node = stack.pop()
        if node.kind == "min_prime":
            assert node.identity is None or node.identity[0] == "equal"
            saw_equal |= node.identity is not None
            stack.append(node.child)
        elif node.kind in ("sum", "intersect"):
            stack.extend(node.children)
    assert saw_equal
    assert verify(deriv).ok


def test_ladder_derivation_whole_ladder_base():
    # 2x2 full with t=2: a single base node, no induction
    deriv = ladder_derivation(Ladder.full(2, 2), 2)
    assert deriv.root.kind == "min_prime" and deriv.root.identity is None
    assert deriv.root.child.kind == "leaf"
    assert verify(deriv).ok


def test_ladder_derivation_skips_a_band_whose_narrow_window_vanishes():
    # The bands cols[1,4] and cols[2,5] each have one narrow window with no
    # 3-minor, so each derives as its other window: the root sums the bases
    # cols[1,3] and cols[3,5], with no node for either four-column band.
    L, t = Ladder.from_json('{"shape": [6, 5], "upper": [[1, 3], [4, 5]], '
                            '"lower": [[5, 1], [6, 3]], "t": [3, 3]}')
    deriv = ladder_derivation(L, t)
    root = deriv.root
    assert root.label == "I_3(cols[1,5])"
    assert [child.label for child in root.child.children] == ["I_3(cols[1,3]) base",
                                                              "I_3(cols[3,5]) base"]
    report = verify(deriv)
    assert report.ok and len(report.lines) == 25


def test_ladder_derivation_root_ideal():
    L = Ladder.full(3, 3)
    deriv = ladder_derivation(L, 2)
    got = deriv.eval()
    ring = deriv.ring
    expected = Ideal(ring, list(mixed_ladder_ideal(L, 2, QQ, ring).gens))
    assert got.equal(expected)


def test_ladder_derivation_rejects_zero_and_mixed():
    with pytest.raises(DerivationError):
        ladder_derivation(Ladder.full(2, 2), 3)
    # t is read as `size_vector` reads it: one size per lower corner.
    L, _ = ladderdet.load_fixture("staircase_sub4x4")
    with pytest.raises(DerivationError, match="unmixed sizes only"):
        ladder_derivation(L, (1, 2))
    with pytest.raises(LadderError, match="number of lower corners"):
        ladder_derivation(Ladder.full(2, 2), (1, 2))
    assert ladder_derivation(L, (2, 2)).label == ladder_derivation(L, 2).label == "ladder I_2"


def test_corner_derivation_base_and_step():
    base = corner_derivation(3, 3, 2, 2, 2)
    assert base.root.kind == "min_prime"
    assert base.root.child.kind == "leaf"  # D1 is the single 2x2 determinant
    assert verify(base).ok

    step = corner_derivation(4, 4, 2, 3, 3)
    assert step.root.kind == "min_prime"
    assert step.root.child.kind == "sum" and len(step.root.child.children) == 3
    assert verify(step).ok


def test_corner_derivation_band_base_case():
    deriv = corner_derivation(3, 3, 2, 3, 2)  # r = k: a column band
    assert verify(deriv).ok
    got = deriv.eval()
    from ladderdet.ideals import corner_ideal

    assert got.equal(corner_ideal(3, 3, 2, 3, 2, "nw"))


def test_corner_derivation_builds_each_claim_once():
    # Overlapping band windows and repeated corner steps share one node each.
    deriv = corner_derivation(5, 5, 2, 4, 4)
    nodes, stack = {}, [deriv.root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        if node.kind == "sum":
            stack.extend(node.children)
        elif node.kind == "min_prime":
            stack.append(node.child)
    labels = [node.label for node in nodes.values() if node.kind == "min_prime"]
    assert len(labels) == len(set(labels))
    assert verify(deriv).ok


def test_corner_derivation_se():
    deriv = corner_derivation(3, 3, 2, 2, 2, which="se")
    assert verify(deriv).ok
    from ladderdet.ideals import corner_ideal

    assert deriv.eval().equal(corner_ideal(3, 3, 2, 2, 2, "se"))


def test_verify_flags_wrong_claims():
    ring = Ring.for_grid(QQ, 2, 3)
    wide = [det((1, 2), c) for c in [(1, 2), (1, 3), (2, 3)]]
    factors = [det((1, 2), (1, 2)), det((1, 2), (2, 3))]

    # claim misses a generator of the child: containment fails
    bad = MinimalPrimeClaim(Sum((Leaf(factors[0]), Leaf(factors[1]))), (factors[0],))
    report = verify(KnutsonDerivation(ring, tuple(factors), bad))
    assert not report.ok
    assert any(c.name == "claim-contains-child" and not c.ok for _, c in report.lines)

    # claim strictly bigger than a complete-intersection child: height mismatch
    bad2 = MinimalPrimeClaim(Leaf(factors[0]), tuple(wide))
    report2 = verify(KnutsonDerivation(ring, tuple(factors), bad2))
    assert not report2.ok
    assert any(c.name == "height-equality" and not c.ok for _, c in report2.lines)


def test_verify_flags_foreign_leaf():
    ring = Ring.for_grid(QQ, 2, 2)
    foreign = Leaf(Polynomial.variable(QQ, grid_var(1, 1)))
    report = verify(KnutsonDerivation(ring, (det((1, 2), (1, 2)),), foreign))
    assert not report.ok
    assert any(c.name == "leaf-is-witness-factor" and not c.ok for _, c in report.lines)


def test_leaf_check_compares_factors_in_the_ring():
    # A factor in its own packing, scaled, matches its leaf; a factor over a
    # variable outside the ring, or over another field, matches none and
    # raises nothing.
    ring = Ring.for_grid(QQ, 2, 3)
    d = det((1, 2), (1, 2))
    x11, x33 = (Polynomial.variable(QQ, grid_var(i, i)) for i in (1, 3))

    def leaf_lines(factors, leaf):
        report = verify(KnutsonDerivation(ring, tuple(factors), Leaf(leaf)))
        return [c.ok for _, c in report.lines if c.name == "leaf-is-witness-factor"]

    assert d.packing is not ring.packing
    assert leaf_lines([x33, d * QQ.coerce(-3)], d) == [True]
    assert leaf_lines([x33 * x11, x33], x11) == [False]
    assert leaf_lines([Polynomial.variable(GF(5), grid_var(1, 1))], x11) == [False]


def test_compatibly_split_membership_char_p():
    # f^(p-1) * g lies in the bracket power for every generator g.
    for p in (2, 3):
        field = GF(p)
        L = Ladder.full(3, 3)
        ring = ladder_ring(field, L)
        I = mixed_ladder_ideal(L, 2, field, ring)
        f = Polynomial.one(field)
        for m in antidiagonal_profile(L, (2,)).witness_factors:
            f = f * expand_minor(m, field)
        candidate = f ** (p - 1)
        bracket = I.bracket(p)
        assert all(bracket.contains(candidate * g) for g in I.gens)


def test_json_roundtrip_and_reverify():
    deriv = ladder_derivation(Ladder.full(2, 3), 2)
    text = derivation_to_json(deriv)
    replayed = derivation_from_json(text)
    assert replayed.ring == deriv.ring
    assert verify(replayed).ok
    assert replayed.eval().equal(deriv.eval())

    corner = corner_derivation(3, 3, 2, 2, 2, GF(2))
    text2 = derivation_to_json(corner)
    replayed2 = derivation_from_json(text2)
    assert replayed2.ring.field == GF(2)
    assert verify(replayed2).ok


def test_colon_node_roundtrip():
    from ladderdet.knutson import Colon

    ring = Ring.for_grid(QQ, 2, 2)
    detp = det((1, 2), (1, 2))
    node = Colon(Leaf(detp * detp), (detp,))
    deriv = KnutsonDerivation(ring, (detp, detp * detp), node)
    assert deriv.eval().equal(Ideal(ring, [detp]))
    replayed = derivation_from_json(derivation_to_json(deriv))
    assert replayed.eval().equal(Ideal(ring, [detp]))


def test_corner_derivation_row_band_cases():
    # s = l forces the row-band base; 4x3 exercises the k > l grid.
    for args in [(3, 4, 2, 2, 4), (3, 4, 2, 3, 4), (4, 3, 2, 4, 2), (2, 4, 1, 1, 4)]:
        deriv = corner_derivation(*args)
        assert verify(deriv).ok, args


def test_random_ladder_derivations_verify():
    import random as _random
    from ladderdet.ladders import random_valid_ladder

    rng = _random.Random(99)
    checked = 0
    for _ in range(25):
        L, t = random_valid_ladder(rng, 4, mixed=False)
        deriv = ladder_derivation(L, t[0])
        assert verify(deriv).ok, (L, t)
        checked += 1
    assert checked == 25


def test_corner_derivation_sweep():
    # Every corner of the 2x2 to 4x4 grids and of 3x5 and 5x3, which holds
    # D1 base cases wider than the grid has rows or columns.  A corner inside
    # the grid claims corner_ideal's own minors at its root, so eval() is
    # compared with corner_ideal only where the root is a band node.
    from ladderdet.ideals import corner_ideal

    grids = [(k, l) for k in range(2, 5) for l in range(2, 5)] + [(3, 5), (5, 3)]
    checked = 0
    for k, l in grids:
        for r in range(1, k + 1):
            for s in range(1, l + 1):
                for t in range(1, min(r, s) + 1):
                    for which in ("nw", "se"):
                        deriv = corner_derivation(k, l, t, r, s, GF(3), which)
                        args = (k, l, t, r, s, which)
                        assert verify(deriv).ok, args
                        if r == k or s == l:
                            want = corner_ideal(k, l, t, r, s, which, GF(3))
                            assert deriv.eval().equal(want), args
                        checked += 1
    assert checked == 358
