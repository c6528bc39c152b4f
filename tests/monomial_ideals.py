"""Monomial-ideal operations that only the tests use: ordinary powers and
containment of one monomial ideal in another."""

from itertools import combinations_with_replacement

from ladderdet.groebner import MonomialIdeal
from ladderdet.poly import MONO_ONE, _overflow, mono_mul


def monomial_power(M: MonomialIdeal, n: int) -> MonomialIdeal:
    """M^n, minimalized; ExponentOverflow when a product leaves its field."""
    if n < 1:
        raise ValueError("power wants n >= 1")
    guard = M.ring.packing.guard
    gens = []
    for combo in combinations_with_replacement(M.gens, n):
        acc = MONO_ONE
        for g in combo:
            acc = mono_mul(acc, g)
            if acc & guard:
                raise _overflow()
        gens.append(acc)
    return MonomialIdeal.from_monomials(M.ring, gens)


def contains_monomial_ideal(M: MonomialIdeal, N: MonomialIdeal) -> bool:
    """N is inside M: every generator of N lies in M."""
    return all(M.contains(g) for g in N.gens)
