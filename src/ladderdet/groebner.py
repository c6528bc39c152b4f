"""Buchberger-based ideal arithmetic and monomial-ideal utilities.

Normal forms, reduced Groebner bases (sugar pair selection after
Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube, please",
ISSAC 1991: sugar first, then the order's key of the lcm, then the
indices; coprime-lead and chain criteria via Gebauer-Moeller updates),
ideal sums / intersections / colons / saturations, Frobenius bracket
powers, and squarefree monomial-ideal combinatorics (minimal primes by a
branching search that reaches each one once; height, dimension and
multiplicity from the Hilbert series by a memoised pivot recursion;
symbolic powers by one pass per minimal prime P, as (b) ∩ P^n =
b · P^(max(0, n − deg_P b)) (Herzog, Hibi and Trung, Adv. Math. 210, 2007)).

`buchberger` and `is_groebner_basis` build the Gebauer-Moeller pair set
(Gebauer and Moeller, J. Symbolic Comput. 6, 1988) on an index of the
leads: a new lead forms lcms only with the leads that share a variable
with it, a lead coprime to it acts only through one divisor search,
skipped when no lead is coprime to it, and the initial build tests the
chain criterion once per pair against the later leads.  Both form and
reduce each S-pair on the terms of a reducer's entries, coefficients as
the polynomials hold them.  The reducer, the pair update (its minimal
quotients, its coprime leads and the initial build's later leads),
`interreduce` and monomial minimalisation find divisors on one top-bit
index (`_index_add`, `_divisor`).  Both first walk the initial pair set in
the order it was built, up to the first nonzero remainder (`_walk`); most
generator sets the engine meets, minors under an antidiagonal order, are
already bases, and for them the walk is the whole run.  `buchberger` then
runs the Buchberger loop from that remainder, which selects the pairs left
by sugar from a heap that holds the keys of the pairs each update adds, and
`interreduce` finishes the reduced basis on the loop's own entries,
building one Polynomial per element it keeps.  An intersection J cap K is
first read off the reduced bases of J and K: the elements of each that lie
in the other ideal are a Groebner basis of it when their leads generate
in(J) cap in(K), which contains in(J cap K).  Knutson's
in(J cap K) = in(J) cap in(K) for compatibly split ideals ("Frobenius
splitting, point-counting, and degeneration", arXiv:0911.4941) is why the
paper's band intersections pass.  When the leads do not certify it, an
auxiliary t is eliminated from t*J + (1-t)*K and only the aux-free entries
are interreduced.  Whether the set a walk decided is a Groebner basis is
recorded with its generator list, so `buchberger` and then
`is_groebner_basis` on the same generators reduce the S-pairs once, and
`is_groebner_basis` answers the same polynomial objects before it builds a
reducer.  An `Ideal` keeps the reducer of each cached basis for its normal
forms and membership tests.  Polynomials over different coefficient fields
are refused with ValueError, as their arithmetic refuses them.

Heights, dimensions and multiplicities of squarefree monomial ideals come
from Bigatti's pivot recursion for the numerator N(t) of the Hilbert
series (Bigatti, J. Pure Appl. Algebra 119, 1997), run on the support
masks re-indexed densely (`_cover_bits`).  A node splits its supports in
one pass into those without the pivot x and the quotients s - x of those
with it.  The supports form an antichain, so the quotients do too and none
is compared with another: the colon is the quotients plus the supports
without x that contain none, built in one more pass.  The recursion
(`_pivot_recursion`) takes the value it carries from its caller: a base
value for pairwise coprime supports, and a join of the two children's
values.  Heights, dimensions and multiplicities carry only (h, e), the
order and the leading coefficient of N in u = 1 - t: a join keeps the
lower order, and adds the two coefficients on a tie.  `_hilbert_numerator`
carries the whole of N(t), with the same recursion.  The
memo of subproblems is bounded by `_HILBERT_MEMO_ENTRIES`, and the budget
is checked once per node and once per support the colon pass sweeps.

Monomials are the packed ints of `poly`.  Each ring fixes one `Packing`;
an ideal re-packs its generators into it, so every monomial of one
Buchberger run shares a guard mask, and a function given polynomials of
several packings first moves them into the packing of their joint
variables.
"""

from __future__ import annotations

import heapq
import operator
from itertools import combinations_with_replacement, zip_longest
from math import prod

from .fields import Field
from .poly import (
    ANTIDIAG,
    FIELD_BITS,
    MAX_EXPONENT,
    MONO_ONE,
    InstanceTooLarge,
    Packing,
    Polynomial,
    TermOrder,
    Variable,
    _check_deadline,
    _check_fields,
    _overflow,
    _packing,
    aux_var,
    grid_var,
    join_packings,
    mono_degree,
    mono_divides,
    mono_div,
    mono_is_squarefree,
    mono_lcm,
    mono_mask,
    mono_mul,
    mono_pow,
    mono_radical,
    poly_to_str,
)
from .record import Record, set_field


# ---------------------------------------------------------------------------
# Reduction
#
# The reduction loops work on term dicts holding the coefficients of a
# Polynomial as they are: exact values, so over QQ most of them are ints,
# since every basis element is monic and minors have coefficients +-1.
# Division goes through `Field.div`.  A `Reducer` entry is (lead, lead
# coefficient, tail terms, lead's support mask).  The Buchberger driver
# forms each S-pair from two entries and reduces it on term dicts
# (`s_polynomial`, `Reducer.remainder`), so no S-pair becomes a Polynomial;
# `interreduce` moves the driver's entries as they are into the reducer on
# which it reduces their tails.
# A difference of two terms over QQ can be an integral Fraction; the
# remainder coerces each of its terms back to the exact form.
# "Which filed monomial divides m?" has one answer, the divisor index:
# `_index_add` files an item under the top bit of its monomial's support
# mask, and `_divisor` looks only in the buckets of m's bits and bucket 0.


def _one_packing(polys) -> list[Polynomial]:
    """The polynomials, all in the packing of their joint variables.
    Raises ValueError when their coefficient fields differ."""
    polys = list(polys)
    for f in polys:
        if f.field != polys[0].field:
            raise ValueError(f"mixed coefficient fields: {polys[0].field} vs {f.field}")
    packings = {f.packing for f in polys}
    if len(packings) <= 1:
        return polys
    target = polys[0].packing
    for packing in packings:
        target = join_packings(target, packing)
    return [f.repack(target) for f in polys]


def _sub_multiple(work: dict, tail, u: int, q, p) -> None:
    """work -= q * u * tail, in place; `tail` holds (monomial, coefficient) pairs."""
    if p is None:
        for tm, tc in tail:
            mm = mono_mul(tm, u)
            v = work.get(mm, 0) - tc * q
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    else:
        for tm, tc in tail:
            mm = mono_mul(tm, u)
            v = (work.get(mm, 0) - tc * q) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]


def _index_add(index: dict, m: int, mask: int, item) -> None:
    """Files `item`, of monomial m and support mask `mask`, in the divisor
    index under the mask's top bit: the constant 1, of mask 0, under 0."""
    index.setdefault(mask.bit_length(), []).append((m, mask, item))


def _divisor(index: dict, m: int, mask: int, guard: int):
    """The first item filed in `index` whose monomial divides m, of support
    mask `mask`, or None.  Only the buckets of m's bits, top down, then
    bucket 0 can hold a divisor, each searched in filing order; only a
    mask inside `mask` is tested by `mono_divides`."""
    bits = mask
    while True:
        top = bits.bit_length()
        for d, dmask, item in index.get(top, ()):
            if not dmask & ~mask and mono_divides(d, m, guard):
                return item
        if not top:
            return None
        bits ^= 1 << top - 1


class Reducer:
    """Divisor table for repeated normal forms against a (growing) basis.

    `entries` holds one (lead, lead coefficient, tail terms, support mask)
    per basis element, in basis order.  `index` files the same entries by
    their leads (`_index_add`), and each term of the remainder takes the
    first entry `_divisor` finds there.  Every term that becomes the leading
    term of the remainder is checked for an exponent past its field.
    """

    __slots__ = ("field", "order", "packing", "entries", "index")

    def __init__(self, basis=(), order: TermOrder = ANTIDIAG, field: Field | None = None,
                 packing: Packing | None = None):
        """The field and packing are those of the first basis element
        unless given."""
        self.order = order
        self.entries: list = []
        self.index: dict = {}
        self.field = field
        self.packing = packing
        for g in basis:
            self.add(g)

    def add(self, g: Polynomial) -> None:
        if self.packing is None:
            self.field, self.packing = g.field, g.packing
        g = g.repack(self.packing)
        self.add_terms(g.leading_term(self.order)[0], g.terms)

    def add_terms(self, lm: int, terms: dict) -> None:
        """Add the element with terms `terms` and leading monomial lm."""
        mask = mono_mask(lm, self.packing)
        self.add_entry((lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm], mask))

    def add_entry(self, entry) -> None:
        """Add an entry of another reducer of the same packing as it is."""
        self.entries.append(entry)
        _index_add(self.index, entry[0], entry[3], entry)

    def reduce(self, f: Polynomial) -> Polynomial:
        packing = self.packing
        if packing is None:
            return f
        f = f.repack(packing)
        return Polynomial(f.field, self.remainder(dict(f.terms)), packing)

    def remainder(self, work: dict) -> dict:
        """The remainder of the terms `work`, which it consumes, as terms in
        descending order: the leading term comes first."""
        packing = self.packing
        field = self.field
        p, div, coerce = field.p, field.div, field.coerce
        guard, low = packing.guard, packing.low
        rem = {}
        native = self.order.is_native
        keyfn = self.order.key
        index = self.index
        while work:
            _check_deadline()
            m = max(work) if native else max(work, key=keyfn)
            c = work.pop(m)
            if m & guard:
                raise _overflow()
            hit = _divisor(index, m, (m + low) & guard, guard)
            if hit is None:
                rem[m] = coerce(c)
                continue
            lm, lc, tail, _ = hit
            _sub_multiple(work, tail, mono_div(m, lm, guard), div(c, lc), p)
        return rem


def normal_form(f: Polynomial, basis, order: TermOrder = ANTIDIAG) -> Polynomial:
    """Remainder of f on division by `basis` (no quotient bookkeeping)."""
    f, *basis = _one_packing([f, *basis])
    return Reducer(basis, order).reduce(f)


def s_polynomial(a, b, lcm: int, guard: int, field: Field) -> dict:
    """Terms of the S-polynomial of two `Reducer` entries a and b over
    `field`, the lcm of whose leads is `lcm`:
    lcm/lm_a * a/lc_a - lcm/lm_b * b/lc_b.

    The two leads cancel, so only the scaled tails are formed, in one dict.
    """
    lma, lca, taila, _ = a
    lmb, lcb, tailb, _ = b
    p = field.p
    ua = mono_div(lcm, lma, guard)
    qa = field.inv(lca)
    # The terms of one scaled tail are distinct and nonzero.
    if p is None:
        out = {mono_mul(tm, ua): tc * qa for tm, tc in taila}
    else:
        out = {mono_mul(tm, ua): tc * qa % p for tm, tc in taila}
    _sub_multiple(out, tailb, mono_div(lcm, lmb, guard), field.inv(lcb), p)
    _check_fields(out, guard)
    return out


# ---------------------------------------------------------------------------
# Buchberger
#
# A pair set is a dict {(i, j): lcm of the leads of i and j}, each lcm
# computed once, when the pair is made.  It never holds a pair of coprime
# leads.  A run keeps one pair set, which each Gebauer-Moeller update edits
# in place.  Both routines first walk the initial pair set as it is,
# deleting each pair whose S-polynomial reduces to zero on the generators,
# up to the first nonzero remainder (`_walk`): while the basis has not
# grown, the order of the pairs cannot change whether the generators are a
# basis, and a pair whose S-polynomial reduces to zero on them needs no more
# work.  `buchberger` makes that remainder its first new element, then heaps
# the keys of the pairs left and pushes the key of each pair an update adds,
# ordered by the sugar strategy of Giovini et al. (ISSAC 1991): sugar first,
# then the order's key of the lcm, then the indices.  A popped key whose
# pair the update has since dropped is skipped.  On a lex order such as
# ANTIDIAG this completes the basis in low sugar before it reduces
# high-degree pairs.
# Monomials are coprime iff their support masks (`mono_mask`) share no bit,
# and one can divide another only if its mask lies inside the other's.
#
# The pairs are made on a `_Leads` index of the basis's leads: their
# support masks and the leads filed on the divisor index (`_index_add`).
# It saves work in four ways:
# - M and F, near leads only (`_near_pairs`): a new lead's lcms and
#   quotients are formed only with the leads that share a variable with
#   it, found by one scan of the masks, and the minimal quotients on a
#   divisor index of their own (`_divisor`).  A lead c coprime to it
#   matters only through division: lm_c times the new lead divides the lcm
#   L_i of lead i exactly when lm_c divides the quotient q_i.  So a minimal
#   quotient is dropped when `_divisor` finds a lead dividing it on the
#   leads' index, searched with the quotient's support outside the new
#   lead's; that one test is the coprime-lead criterion F and the coprime
#   part of M.
# - No coprime search when none can exist: when every lead is near, as
#   in an intersection, whose leads all hold the aux variable, the
#   search is skipped.
# - B once per pair in the initial build: B_k drops the pair (i, j), made
#   when j was added, exactly when a later lead k divides its lcm L and L
#   differs from lcm(i, k) and from lcm(j, k), which depends on i, j and k
#   alone.  `_initial_pairs` tests each pair it makes once, by descending
#   j, against the later leads filed on a divisor index of their own, and
#   its dict equals, in order too, the one that adding the leads one at a
#   time by `_update_pairs` gives.  The driver's `_update_pairs` cannot
#   know the later leads, so it scans the pair set for each new lead.
# - No build for a decided set: `is_groebner_basis` on generators whose
#   verdict is recorded, and `buchberger` on generators recorded as a
#   basis, build no pair set (`_verdict`).  `is_groebner_basis` on the very
#   list the record holds, the same objects in the same order under the
#   same term order, builds no monic reducer and no key either.
# For a, b | L, lcm(a, b) = L iff the cofactors L - a and L - b share no
# variable, so B takes three masks and no lcm.


class _Leads:
    """The leads of a basis, indexed for the pair update.

    `masks` holds the support mask of each lead, and `index` files each
    lead's number under the lead on the divisor index (`_index_add`).
    """

    __slots__ = ("guard", "low", "lms", "masks", "index")

    def __init__(self, packing: Packing):
        self.guard, self.low = packing.guard, packing.low
        self.lms: list[int] = []
        self.masks: list[int] = []
        self.index: dict = {}

    def add(self, lm: int) -> None:
        mask = (lm + self.low) & self.guard
        _index_add(self.index, lm, mask, len(self.lms))
        self.lms.append(lm)
        self.masks.append(mask)


def _near_pairs(leads: _Leads, lmf: int):
    """M and F for a new lead lmf after the leads of `leads`: the new pairs
    as (first index of L, L), in the order they enter the pair set.

    The new pairs are (first index of L, n) for each minimal lcm L of lmf
    with a lead, unless a lead of L's group is coprime to lmf.  Each such L
    is lmf times the quotient q = L - lmf, and L | L' iff q | q', so the
    minimal lcms are those of the minimal quotients.  Only the near leads,
    those sharing a variable with lmf, are grouped:
    - q = 1 (L = lmf) divides every quotient, so it is then the only one;
    - else a quotient that is one variable to the first power is minimal,
      and every other quotient with that variable is a multiple of it, which
      one AND with the mask `units` of those variables finds;
    - the remaining quotients are taken in ascending int order, in which a
      proper divisor comes first, and each is kept unless `_divisor` finds
      a divisor of it among the kept ones, filed as it goes;
    - a minimal quotient q is dropped when a lead c coprime to lmf divides
      it.  c's own quotient is lm_c, so a group holds c exactly when
      q = lm_c, and lm_c | q otherwise makes q no minimal quotient: that
      one test is the coprime-lead criterion and the coprime leads' part
      of the minimality.  It is one `_divisor` search of the leads' index
      with q's support outside lmf's: a lead whose support lies there is
      coprime to lmf.
    """
    lms, masks, guard, low = leads.lms, leads.masks, leads.guard, leads.low
    maskf = (lmf + low) & guard
    near = [i for i, mask in enumerate(masks) if mask & maskf]
    lcms = [mono_lcm(lms[i], lmf, guard) for i in near]

    first = dict(zip(reversed(lcms), reversed(near)))  # lcm -> its first index
    if lmf in first:
        minimal = [MONO_ONE]
    else:
        ones = guard >> FIELD_BITS
        quotients = [L - lmf for L in first]
        minimal = [q for q in quotients if q.bit_count() == 1 and q & ones]
        units = sum(minimal) << FIELD_BITS  # the guard bits of their variables
        index: dict = {}  # the kept quotients of the sorted pass
        for q in sorted([q for q in quotients if not (q + low) & units]):
            mask = (q + low) & guard
            if _divisor(index, q, mask, guard) is None:
                minimal.append(q)
                _index_add(index, q, mask, q)

    if len(near) < len(lms):  # some lead is coprime to lmf
        # A lead c coprime to lmf has lcm lm_c * lmf, and
        # lm_c * lmf | L_i = lmf * q_i iff lm_c | q_i.
        minimal = [q for q in minimal
                   if _divisor(leads.index, q, (q + low) & guard & ~maskf, guard) is None]
    return [(first[q + lmf], q + lmf) for q in minimal]


def _update_pairs(leads: _Leads, P: dict, lmf: int) -> dict:
    """Gebauer-Moeller pair update, in place: makes the pair set P that of
    the basis with the leads of `leads` after adding an element with lead
    monomial lmf, adds lmf to `leads`, and returns the pairs it added, a
    dict of its own.  The new pairs come from `_near_pairs`.

    B_k(i, j) drops a pair of P when lmf | L = lcm_ij and L differs from
    both lcm(lm_i, lmf) and lcm(lm_j, lmf).  lmf | L is tested inline: no
    field of L - lmf borrows.  For a | L and b | L, lcm(a, b) = L iff the
    cofactors L - a and L - b share no variable: each field of L is the
    max of a's and b's iff one of the two differences is 0 there.  The
    driver calls this for each new element; it scans all of P, since the
    leads still to come are unknown.
    """
    _check_deadline()
    pairs = _near_pairs(leads, lmf)
    lms, guard, low = leads.lms, leads.guard, leads.low
    n = len(lms)
    for ij, L in [(ij, L) for ij, L in P.items() if not (L - lmf) & guard]:
        i, j = ij
        cof = (L - lmf + low) & guard
        if (L - lms[i] + low) & cof and (L - lms[j] + low) & cof:
            del P[ij]
    new = {(i, n): L for i, L in pairs}
    P.update(new)
    leads.add(lmf)
    return new


def _initial_pairs(lmG, packing: Packing):
    """The lead index of lead monomials lmG, in `packing`, and their pair
    set: the same dict, in the same order, as the updates `_update_pairs`
    makes adding them one at a time.  Returns (index, pair set), which
    `_buchberger_loop` edits in place.

    The pairs each lead makes come from `_near_pairs`.  B is then tested
    once per pair (i, j), as in `_update_pairs`, against the later leads
    k > j.  The pass takes the pairs by descending j and files the leads
    after j on a fresh divisor index just before j's pairs, so the index
    holds exactly those leads.  It walks the index's buckets itself, as
    `_divisor` does, but only those that hold a lead, and on past a divisor
    of L that fails the cofactor test.  Deleting the pairs it drops leaves
    the others in order.  The build checks the budget once per lead, the
    B pass once per j whose pairs meet later leads.
    """
    leads = _Leads(packing)
    P: dict = {}
    for j, lm in enumerate(lmG):
        _check_deadline()
        for i, L in _near_pairs(leads, lm):
            P[i, j] = L
        leads.add(lm)
    lms, masks, guard, low = leads.lms, leads.masks, leads.guard, leads.low
    later: dict = {}  # the leads k >= filed, on the divisor index
    tops = 0  # the top bits of their masks: the buckets that hold a lead
    gone, filed = [], len(lms)
    for ij, L in reversed(P.items()):  # grouped by j, descending
        i, j = ij
        if filed > j + 1:  # j's first pair: file the leads after j
            _check_deadline()
            for k in range(j + 1, filed):
                _index_add(later, lms[k], masks[k], k)
                tops |= 1 << masks[k].bit_length() >> 1
            filed = j + 1
        lmi, lmj, bits = lms[i], lms[j], (L + low) & tops
        while True:  # the buckets of L's bits, top down, then bucket 0
            top = bits.bit_length()
            for lmk, _, _ in later.get(top, ()):
                if not (L - lmk) & guard:
                    cof = (L - lmk + low) & guard
                    if (L - lmi + low) & cof and (L - lmj + low) & cof:
                        gone.append(ij)  # B_k drops the pair
                        top = 0
                        break
            if not top:
                break
            bits ^= 1 << top - 1
    for ij in gone:
        del P[ij]
    return leads, P


def _pair_key(i, j, lcm, lmG, sugars, order):
    d = mono_degree(lcm)
    sugar = max(sugars[i] + d - mono_degree(lmG[i]), sugars[j] + d - mono_degree(lmG[j]))
    return (sugar, order.key(lcm), i, j)


def _monic_terms(terms: dict, lm: int, field: Field) -> dict:
    """The terms divided by the coefficient of lm."""
    lc = terms[lm]
    if lc == 1:
        return terms
    div = field.div
    return {m: div(c, lc) for m, c in terms.items()}


def _monic_reducer(gens, order):
    """A `Reducer` whose entries are the generators, of one packing, made
    monic, in order; None when one of them is a nonzero constant."""
    field = gens[0].field
    reducer = Reducer((), order, field, gens[0].packing)
    for f in gens:
        lm = f.leading_term(order)[0]
        if lm == MONO_ONE:
            return None
        reducer.add_terms(lm, _monic_terms(f.terms, lm, field))
    return reducer


# The verdict record: (generators, key, whether they are a Groebner basis)
# for the last generator set decided, or None.  A set is decided by the
# walk of its initial pairs (`_walk`): at its first nonzero remainder, or
# when all those S-pairs reduce to zero; a stopped walk decides none.  The
# generators are the list the deciding call was given, after `_one_packing`.
_verdict = None


def _verdict_key(reducer: Reducer, order: TermOrder):
    """The record's key; the generators' order and repeats leave the verdict as it is."""
    return (order, reducer.field, reducer.packing,
            frozenset((lm, frozenset(tail)) for lm, _, tail, _ in reducer.entries))


def _walk(reducer: Reducer, P: dict):
    """Reduces the S-pairs of the pair set P on `reducer` in P's order,
    deleting each whose remainder is zero, and stops at the first nonzero
    remainder: returns (that pair, its remainder terms), the pair still in
    P, or None when P is left empty.  The budget is checked once per pair.
    """
    entries, field, guard = reducer.entries, reducer.field, reducer.packing.guard
    zero = []
    for (i, j), lcm in P.items():
        _check_deadline()
        rem = reducer.remainder(s_polynomial(entries[i], entries[j], lcm, guard, field))
        if rem:
            for ij in zero:
                del P[ij]
            return (i, j), rem
        zero.append((i, j))
    P.clear()
    return None


def _buchberger_loop(gens, order):
    """The Buchberger driver over generators of one packing.

    Returns the `Reducer` entries of a monic Groebner basis, generators
    first, or None for the unit ideal.

    The initial pairs are first walked in the order they were built
    (`_walk`), which decides whether the generators are a basis and records
    it: when every S-pair reduces to zero the generators' entries are
    returned with no sugar computed.  Otherwise the first nonzero remainder
    becomes the first new element, with its pair's sugar, and the pairs
    left go on a heap ordered by sugar, then by the order's key of the lcm,
    then by the indices; each update pushes the keys of the pairs it adds,
    and a popped pair the update has since dropped is skipped.  Each S-pair
    is formed from two entries and reduced on term dicts; a nonzero
    remainder becomes a new entry, still with no Polynomial built.
    Generators recorded as a Groebner basis are returned as they are.
    """
    global _verdict
    reducer = _monic_reducer(gens, order)
    if reducer is None:
        return None
    entries = reducer.entries
    key = _verdict_key(reducer, order)
    if _verdict is not None and _verdict[1:] == (key, True):
        return entries
    field, packing = reducer.field, reducer.packing
    guard = packing.guard
    leads, P = _initial_pairs([e[0] for e in entries], packing)
    walked = _walk(reducer, P)
    _verdict = (gens, key, walked is None)
    if walked is None:
        return entries
    (i, j), rem = walked
    lmG = leads.lms
    sugars = [f.degree() for f in gens]
    pair_sugar = _pair_key(i, j, P.pop((i, j)), lmG, sugars, order)[0]
    heap = [_pair_key(*pair, lcm, lmG, sugars, order) for pair, lcm in P.items()]
    heapq.heapify(heap)

    while True:
        lmr = next(iter(rem))  # the remainder comes leading term first
        if lmr == MONO_ONE:
            return None
        new = _update_pairs(leads, P, lmr)  # appends lmr to lmG
        reducer.add_terms(lmr, _monic_terms(rem, lmr, field))
        sugars.append(pair_sugar)
        for pair, lcm in new.items():
            heapq.heappush(heap, _pair_key(*pair, lcm, lmG, sugars, order))
        while True:
            if not heap:
                return entries
            _check_deadline()
            pair_sugar, _, i, j = heapq.heappop(heap)
            lcm = P.pop((i, j), None)
            if lcm is None:  # dropped by an update after it was pushed
                continue
            rem = reducer.remainder(s_polynomial(entries[i], entries[j], lcm, guard, field))
            if rem:
                break


def interreduce(entries, order: TermOrder, field: Field, packing: Packing) -> list[Polynomial]:
    """Reduced basis from the monic `Reducer` entries of a Groebner basis in
    `packing`: the entries with minimal leads, sorted by lead, tails reduced.

    Of entries that share a lead the first is kept.  In ascending lead
    order, an entry goes into one reducer as it is unless `_divisor` finds a
    lead there dividing its own; each tail is then reduced on it: a lead
    never divides a smaller term, so that is reducing it by the others.
    """
    guard = packing.guard
    reducer = Reducer((), order, field, packing)
    for entry in sorted(entries, key=lambda e: order.key(e[0])):
        if _divisor(reducer.index, entry[0], entry[3], guard) is None:
            reducer.add_entry(entry)
    return [Polynomial(field, {lm: lc, **reducer.remainder(dict(tail))}, packing)
            for lm, lc, tail, _ in reducer.entries]


def buchberger(gens, order: TermOrder = ANTIDIAG, below: int | None = None):
    """Reduced Groebner basis of the ideal generated by `gens`, in the
    packing of their joint variables.

    With `below`, a monomial of that packing, only the elements whose lead
    is less than `below` are interreduced and returned.  Under ANTIDIAG
    with `below` the auxiliary variable on top, they are the reduced basis
    of the elimination ideal: ANTIDIAG is lex with the auxiliaries above the
    grid, an elimination order for them, and the aux-free part of a Groebner
    basis under an elimination order is a Groebner basis of the elimination
    ideal.
    """
    gens = _one_packing(g for g in gens if not g.is_zero)
    if not gens:
        return []
    field, packing = gens[0].field, gens[0].packing
    entries = _buchberger_loop(gens, order)
    if entries is None:
        return [Polynomial(field, {MONO_ONE: field.one}, packing)]
    if below is not None:
        below = order.key(below)
        entries = [e for e in entries if order.key(e[0]) < below]
    return interreduce(entries, order, field, packing)


def is_groebner_basis(gens, order: TermOrder = ANTIDIAG) -> bool:
    """True iff every S-polynomial of `gens` reduces to zero against `gens`.

    The basis never grows, so the order of the pairs cannot change the
    answer: the S-pairs of the Gebauer-Moeller pair set, whose criteria
    only discard pairs whose S-polynomials provably reduce to zero, are
    walked as the pair set lists them, up to the first nonzero remainder
    (`_walk`).  A set with a nonzero constant is a Groebner basis.  A set
    whose verdict is recorded is answered from the record: the recorded
    generators themselves, in the same order and under the same term
    order, with no reducer built, and any other list with the same monic
    entries by the record's key.
    """
    global _verdict
    gens = _one_packing(g for g in gens if not g.is_zero)
    if len(gens) <= 1:
        return True
    recorded = _verdict[0] if _verdict is not None and _verdict[1][0] == order else ()
    if len(recorded) == len(gens) and all(map(operator.is_, recorded, gens)):
        return _verdict[2]
    reducer = _monic_reducer(gens, order)
    if reducer is None:
        return True
    key = _verdict_key(reducer, order)
    if _verdict is None or _verdict[1] != key:
        _, P = _initial_pairs([e[0] for e in reducer.entries], reducer.packing)
        _verdict = (gens, key, _walk(reducer, P) is None)
    return _verdict[2]


# ---------------------------------------------------------------------------
# Rings and ideals

# Colon steps `Ideal.saturate` takes before it gives up on a fixpoint.
_SATURATION_STEPS = 50


class Ring(Record):
    """A polynomial ring: coefficient field plus a descending variable tuple,
    whose `packing` lays out the exponent fields of its monomials."""

    __slots__ = ("field", "variables", "packing")
    _fields = ("field", "variables")

    def __init__(self, field: Field, variables: tuple[Variable, ...]):
        keys = [v.key for v in variables]
        if any(a <= b for a, b in zip(keys, keys[1:])):
            variables = tuple(sorted(set(variables), key=lambda v: v.key, reverse=True))
        set_field(self, "field", field)
        set_field(self, "variables", variables)
        set_field(self, "packing", _packing(variables))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # The fields of two rings are most often one object, whose
        # `Field.__eq__` is a Python call that `is` saves.
        return self is other or (self.variables == other.variables
                                 and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self.variables))

    @classmethod
    def for_grid(cls, field: Field, k: int, l: int) -> "Ring":
        return cls(field, tuple(grid_var(i, j) for i in range(1, k + 1) for j in range(1, l + 1)))

    @classmethod
    def for_cells(cls, field: Field, cells) -> "Ring":
        return cls(field, tuple(grid_var(i, j) for i, j in cells))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def fresh_aux(self) -> Variable:
        ranks = [v.rank for v in self.variables if v.is_aux]
        return aux_var("t", max(ranks) + 1 if ranks else 0)

    def maximal_ideal(self) -> "Ideal":
        one, shift = self.field.one, self.packing.shift
        gens = [Polynomial(self.field, {1 << shift[v]: one}, self.packing)
                for v in self.variables if not v.is_aux]
        return Ideal(self, gens)

    def __repr__(self):
        return f"Ring({self.field}, {len(self.variables)} vars)"


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases and
    the reducers of those bases."""

    __slots__ = ("ring", "gens", "_cache", "_reducers")

    def __init__(self, ring: Ring, gens):
        """Generators are re-packed into the ring; repeats are dropped,
        keeping first occurrences."""
        self.ring = ring
        kept: dict = {}  # term set -> the first generator with those terms
        for g in gens:
            if g.is_zero:
                continue
            if g.field != ring.field:
                raise ValueError("generator field does not match ring")
            g = g.repack(ring.packing)
            kept.setdefault(frozenset(g.terms.items()), g)
        self.gens = tuple(kept.values())
        self._cache: dict[TermOrder, tuple[Polynomial, ...]] = {}
        # order -> {packing: Reducer of the cached basis in that packing}
        self._reducers: dict[TermOrder, dict[Packing, Reducer]] = {}

    @classmethod
    def _with_bases(cls, ring: Ring, gens, bases) -> "Ideal":
        """The ideal of generators that are already distinct, nonzero and
        packed in the ring's packing, with their reduced Groebner bases
        known: `bases` maps an order to its basis (internal)."""
        out = cls.__new__(cls)
        out.ring = ring
        out.gens = tuple(gens)
        out._cache = dict(bases)
        out._reducers = {}
        return out

    # -- basics

    def groebner_basis(self, order: TermOrder = ANTIDIAG) -> tuple[Polynomial, ...]:
        basis = self._cache.get(order)
        if basis is None:
            basis = self._cache.setdefault(order, tuple(buchberger(self.gens, order)))
        return basis

    def normal_form(self, f: Polynomial, order: TermOrder = ANTIDIAG) -> Polynomial:
        """Remainder of f on division by the reduced basis, as
        `normal_form(f, basis)` gives it: in the packing of the joint
        variables of f and the ring, on the reducer kept for that packing.
        Raises ValueError when f is over another coefficient field."""
        if f.field != self.ring.field:
            raise ValueError(f"mixed coefficient fields: {f.field} vs {self.ring.field}")
        if not self.groebner_basis(order):
            return f
        return self._reducer(order, join_packings(f.packing, self.ring.packing)).reduce(f)

    def _reducer(self, order: TermOrder, packing: Packing) -> Reducer:
        """The reducer of the reduced basis in `packing`, built on first use and kept."""
        reducers = self._reducers.setdefault(order, {})
        reducer = reducers.get(packing)
        if reducer is None:
            reducer = reducers.setdefault(
                packing, Reducer(self.groebner_basis(order), order, self.ring.field, packing))
        return reducer

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        if self.is_zero:
            return False
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].leading_term()[0] == MONO_ONE

    def equal(self, other: "Ideal") -> bool:
        """Ideal equality via reduced-Groebner-basis comparison."""
        self._require_same_ring(other)
        return self.groebner_basis() == other.groebner_basis()

    def _require_same_ring(self, other: "Ideal"):
        if self.ring != other.ring:
            raise ValueError("ideals live in different rings")

    # -- arithmetic

    def __add__(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        return Ideal(self.ring, self.gens + other.gens)

    def power(self, n: int) -> "Ideal":
        if n < 1:
            raise ValueError("power wants n >= 1")
        gens = []
        for combo in combinations_with_replacement(self.gens, n):
            g = combo[0]
            for h in combo[1:]:
                g = g * h
            gens.append(g)
        return Ideal(self.ring, gens)

    def intersect(self, other: "Ideal") -> "Ideal":
        """I cap J, with its reduced basis under ANTIDIAG cached.

        The elements H of each reduced basis that lie in the other ideal
        generate I cap J, and are a Groebner basis of it, when a lead of H
        divides lcm(a, b) for every lead a of I's basis and b of J's
        (`_certified_intersection`); a unit operand always certifies.
        Otherwise the basis is the aux-free slice of the elimination of t
        from t*I + (1-t)*J (`_eliminated_intersection`).  Either way the
        result is the one reduced basis, whatever either side has cached."""
        self._require_same_ring(other)
        if self.is_zero or other.is_zero:
            return Ideal(self.ring, [])
        kept = _certified_intersection(self, other)
        if kept is None:
            kept = _eliminated_intersection(self, other)
        return Ideal._with_bases(self.ring, kept, {ANTIDIAG: kept})

    def colon_poly(self, g: Polynomial) -> "Ideal":
        """(I : g) via intersect-with-principal and exact division by g."""
        if g.is_zero:
            return Ideal(self.ring, [Polynomial.one(self.ring.field)])
        principal = Ideal(self.ring, [g])
        g = principal.gens[0]
        inter = self.intersect(principal)
        return Ideal(self.ring, [_exact_quotient(h, g) for h in inter.gens])

    def colon(self, other: "Ideal") -> "Ideal":
        """(I : J) as the intersection of (I : g) over generators g of J."""
        self._require_same_ring(other)
        if other.is_zero:
            return Ideal(self.ring, [Polynomial.one(self.ring.field)])
        result = None
        for g in other.gens:
            part = self.colon_poly(g)
            result = part if result is None else result.intersect(part)
        return result

    def saturate(self, other: "Ideal") -> tuple["Ideal", int]:
        """(I : J^infinity) by iterating colon to a fixpoint; returns the
        stable ideal and the number of strict growth steps.  Raises
        InstanceTooLarge when `_SATURATION_STEPS` colons reach no fixpoint."""
        current = self
        for n in range(_SATURATION_STEPS):
            nxt = current.colon(other)
            if current.contains_ideal(nxt):
                return current, n
            current = nxt
        raise InstanceTooLarge(
            f"saturation did not stabilize within {_SATURATION_STEPS} colon iterations")

    def bracket(self, q: int) -> "Ideal":
        """Frobenius bracket power I^[q]: generators raised to the q-th power."""
        p = self.ring.field.p
        if p is None:
            raise ValueError("bracket powers need a coefficient field of characteristic p")
        e, qq = 0, q
        while qq > 1 and qq % p == 0:
            qq //= p
            e += 1
        if qq != 1 or e == 0:
            raise ValueError(f"{q} is not a positive power of the characteristic {p}")
        # Frobenius is flat over the polynomial ring: the bracket of a reduced
        # basis is again a reduced basis (q-th powers of terms, termwise).
        # It is injective over GF(p), so distinct generators stay distinct.
        return Ideal._with_bases(
            self.ring, [_frobenius_power(g, q) for g in self.gens],
            {order: tuple(_frobenius_power(g, q) for g in basis)
             for order, basis in self._cache.items()})

    def initial_ideal(self, order: TermOrder = ANTIDIAG) -> "MonomialIdeal":
        """The leads of the reduced basis, which are the minimal generators:
        every cached basis is reduced."""
        basis = self.groebner_basis(order)
        return MonomialIdeal(self.ring, tuple(sorted(g.leading_term(order)[0] for g in basis)))

    def canonical_strings(self, order: TermOrder = ANTIDIAG) -> list[str]:
        """Reduced basis in the textual format, sorted by leading monomial."""
        return [poly_to_str(g, order) for g in self.groebner_basis(order)]

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.ring.field})"


def _certified_intersection(I: Ideal, J: Ideal):
    """The reduced basis of I cap J under ANTIDIAG from the reduced bases
    G_I and G_J, or None when their leads do not certify it.

    H holds the elements of each basis that lie in the other ideal; one whose
    lead is not in the other's initial ideal takes no normal form.  If a lead
    of H divides lcm(a, b) for every lead a of G_I and b of G_J, then
    in(I cap J) <= in(I) cap in(J) <= (lm H) <= in(H) <= in(I cap J), as the
    lcms generate in(I) cap in(J); so H is a Groebner basis of I cap J, and
    its reduced basis, being unique, is the elimination's.  If G_I = (1),
    every element of G_J lies in I and lcm(1, b) = b, so H = G_J certifies
    and the result is G_J itself.
    """
    packing = I.ring.packing
    guard = packing.guard
    RI, RJ = I._reducer(ANTIDIAG, packing), J._reducer(ANTIDIAG, packing)
    H, index = [], {}
    for R, other in ((RI, RJ), (RJ, RI)):
        for entry in R.entries:
            lm, lc, tail, mask = entry
            if (_divisor(other.index, lm, mask, guard) is not None
                    and not other.remainder(dict([(lm, lc), *tail]))):
                H.append(entry)
                _index_add(index, lm, mask, entry)
    for a, *_ in RI.entries:
        _check_deadline()
        for b, *_ in RJ.entries:
            m = mono_lcm(a, b, guard)
            if _divisor(index, m, mono_mask(m, packing), guard) is None:
                return None
    return tuple(interreduce(H, ANTIDIAG, I.ring.field, packing))


def _eliminated_intersection(I: Ideal, J: Ideal) -> tuple[Polynomial, ...]:
    """The reduced basis of I cap J under ANTIDIAG: (t*I + (1-t)*J) cap R,
    eliminating a fresh auxiliary t."""
    ring = I.ring
    aux = ring.fresh_aux()
    # The auxiliary is the greatest variable: its field goes on top, and
    # the ring's monomials keep their ints.
    packing = _packing((aux,) + ring.variables)
    t = 1 << packing.shift[aux]
    gens = [g.repack(packing).mul_term(t, 1) for g in I.gens]
    gens += [h - h.mul_term(t, 1) for h in (h.repack(packing) for h in J.gens)]
    # ANTIDIAG is lex with the auxiliaries on top, so an element whose lead
    # is below t has no aux in any term; only those are interreduced, and
    # they are the reduced basis of the intersection.
    return tuple(Polynomial(ring.field, b.terms, ring.packing)
                 for b in buchberger(gens, ANTIDIAG, below=t))


def _exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g, for h and g of one packing; ArithmeticError unless g divides
    h exactly."""
    field = g.field
    p, div, coerce = field.p, field.div, field.coerce
    guard = g.packing.guard
    lm = g.leading_term(ANTIDIAG)[0]
    terms = dict(g.terms)
    lc = terms.pop(lm)
    tail = list(terms.items())
    work = dict(h.terms)
    quot = {}
    while work:
        m = max(work)
        if m & guard:
            raise _overflow()
        u = mono_div(m, lm, guard)
        if u is None:
            raise ArithmeticError("intersection element not divisible by g")
        q = quot[u] = div(coerce(work.pop(m)), lc)
        _sub_multiple(work, tail, u, q, p)
    return Polynomial(field, quot, g.packing)


def _frobenius_power(g: Polynomial, q: int) -> Polynomial:
    """g^q in characteristic p | q: termwise (freshman's dream)."""
    field = g.field
    p = field.p
    guard = g.packing.guard
    return Polynomial(field, {mono_pow(m, q, guard): pow(c, q, p) for m, c in g.terms.items()},
                      g.packing)


# ---------------------------------------------------------------------------
# Monomial ideals


def _minimalize_monomials(monos, packing: Packing):
    """The minimal monomials under divisibility, sorted.

    A proper divisor has lower degree, so the monomials go by degree, each
    looked up (`_divisor`) among the kept ones of lower degree, which are
    filed as each degree starts; while none is filed, none is looked up.
    """
    guard, low = packing.guard, packing.low
    index, kept, filed, degree = {}, [], 0, 0  # kept[:filed] is in the index
    for d, m in sorted((mono_degree(m), m) for m in set(monos)):
        _check_deadline()
        if d > degree:
            degree = d
            for g in kept[filed:]:
                _index_add(index, g, (g + low) & guard, g)
            filed = len(kept)
        if not index or _divisor(index, m, (m + low) & guard, guard) is None:
            kept.append(m)
    return tuple(sorted(kept))


def _in_packing(m, packing: Packing) -> int:
    """An int monomial as it is, a `Monomial` re-packed into `packing`."""
    return m if type(m) is int else m.packed_in(packing)


class MonomialIdeal(Record):
    """A monomial ideal by its minimal (antichain) generator tuple, each
    generator packed in the ring's packing.  Its height and multiplicity
    come from one cover search, kept in the `_lead` slot."""

    __slots__ = ("ring", "gens", "_lead")
    _fields = ("ring", "gens")

    def __init__(self, ring: Ring, gens: tuple[int, ...]):
        set_field(self, "ring", ring)
        set_field(self, "gens", gens)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.gens) == (other.ring, other.gens)

    def __hash__(self):
        return hash((self.ring, self.gens))

    @classmethod
    def from_monomials(cls, ring: Ring, monos) -> "MonomialIdeal":
        """Minimal generators of the ideal of `monos`: ints already packed in
        the ring, or `Monomial`s, which are re-packed into it."""
        packing = ring.packing
        return cls(ring, _minimalize_monomials([_in_packing(m, packing) for m in monos], packing))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return MONO_ONE in self.gens

    def contains(self, m) -> bool:
        """Whether the monomial m (as in `from_monomials`) lies in the ideal."""
        packing = self.ring.packing
        m = _in_packing(m, packing)
        return any(mono_divides(g, m, packing.guard) for g in self.gens)

    def is_squarefree(self) -> bool:
        return all(mono_is_squarefree(g) for g in self.gens)

    def radical(self) -> "MonomialIdeal":
        if self.is_squarefree():
            return self
        packing = self.ring.packing
        return MonomialIdeal.from_monomials(self.ring, [mono_radical(g, packing) for g in self.gens])

    def supports(self) -> list[int]:
        """The support mask of each generator (`mono_mask`).  The radical's
        generators have the same masks, less repeats and masks holding
        another one, which the cover search drops itself (`_cover_bits`)."""
        packing = self.ring.packing
        return [mono_mask(g, packing) for g in self.gens]

    def min_primes(self) -> list[frozenset[Variable]]:
        """Minimal primes (as variable sets) by recursive splitting."""
        if self.is_unit:
            raise ValueError("unit ideal has no minimal primes")
        covers = minimal_covers(self.supports())
        return [frozenset(self.ring.packing.variables_of(c)) for c in covers]

    def _hilbert_lead(self) -> tuple[int, int]:
        """(h, e) of the radical, from the first call's cover search."""
        try:
            return self._lead
        except AttributeError:
            lead = min_cover_size(self.supports())
            set_field(self, "_lead", lead)
            return lead

    def height(self) -> int:
        if self.is_unit:
            raise ValueError("unit ideal has no height")
        return self._hilbert_lead()[0]

    def dim(self) -> int:
        """Krull dimension of ring/ideal (number of variables minus height)."""
        return self.ring.nvars - self.height()

    def multiplicity(self) -> int:
        """Multiplicity (degree) of ring/ideal, for squarefree input: Q(1),
        where the Hilbert series numerator is N(t) = (1 - t)^height Q(t).
        It is read with the height from the pivot recursion on (h, e)
        (`_height_and_multiplicity`), which never builds N, and which runs
        once per ideal for `height`, `dim` and `multiplicity` together."""
        if not self.is_squarefree():
            raise ValueError("multiplicity is implemented for squarefree monomial ideals")
        if self.is_unit:
            raise ValueError("unit ideal has no multiplicity")
        return self._hilbert_lead()[1]

    def symbolic_power(self, n: int) -> "MonomialIdeal":
        """Intersection of the n-th powers of the minimal primes (squarefree
        input): the generators b so far times P^(max(0, n − deg_P b)), per P."""
        if not self.is_squarefree():
            raise ValueError("symbolic powers are implemented for squarefree monomial ideals")
        if n < 1:
            raise ValueError("symbolic power wants n >= 1")
        if self.is_zero:
            return self
        if n > MAX_EXPONENT:
            raise _overflow()
        gens = (MONO_ONE,)
        for cover in minimal_covers(self.supports()):
            # The cover's guard bit 9f + 8 marks field f, whose variable is 1 << 9f.
            prime = [1 << b - FIELD_BITS for b in _bit_positions(cover)]
            fields = sum(prime) * MAX_EXPONENT  # the exponent bits of P's variables
            products = []
            for b in gens:
                _check_deadline()
                r = max(n - mono_degree(b & fields), 0)
                products += (b + sum(m) for m in combinations_with_replacement(prime, r))
            gens = _minimalize_monomials(products, self.ring.packing)
        return MonomialIdeal(self.ring, gens)


def _bit_positions(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _minimal_masks(masks) -> list[int]:
    """The distinct masks that contain no other one, in ascending popcount,
    masks of one popcount in ascending order.

    A mask can only contain one of lower popcount, so each is tested only
    against the kept masks of lower popcount.  The order does not depend
    on the order of the input.
    """
    lower, level, size = [], [], 0
    for m in sorted(sorted(set(masks)), key=int.bit_count):
        _check_deadline()
        if m.bit_count() > size:
            size = m.bit_count()
            lower += level
            level = []
        for t in lower:
            if t & m == t:
                break
        else:
            level.append(m)
    return lower + level


def _cover_bits(supports) -> tuple[list[int], list[int]]:
    """The set system re-indexed densely: returns (positions, masks).

    Dense bit i stands for bit positions[i] of the supports, the i-th
    lowest bit any support has, so the re-indexing keeps the order of the
    bits.  Duplicate supports and supports that contain another one are
    dropped: neither changes the minimal covers.  The masks come out as
    `_minimal_masks` orders them, whatever the order of the supports.
    """
    sets = set(supports)
    if 0 in sets:
        raise ValueError("empty support: ideal contains a unit")
    union = 0
    for s in sets:
        union |= s
    positions = _bit_positions(union)
    dense = {1 << b: 1 << i for i, b in enumerate(positions)}  # source bit -> dense bit

    def reindexed(s):
        m = 0
        while s:
            low = s & -s
            m |= dense[low]
            s ^= low
        return m

    return positions, _minimal_masks(map(reindexed, sets))


def minimal_covers(supports) -> list[int]:
    """All minimal covers (minimal primes) of a set system, each found once.

    Supports and covers are int bitmasks (for a monomial ideal, the support
    masks of its generators).

    The search branches on the free bits of the support with the fewest of
    them, where a bit is free unless an earlier branch at some pivot tried
    it: each branch bans the bits tried before it, so no cover is reached
    twice, and a branch ends as soon as a support lies inside the banned
    bits.  A cover is kept when each of its bits is the only one it has in
    some support, which is exactly minimality.  Covers come out by size,
    then by their ascending bits.
    """
    positions, masks = _cover_bits(supports)
    covers = []

    def rec(remaining, chosen, banned):
        # No support in `remaining` is hit by `chosen` or lies inside `banned`.
        _check_deadline()
        if not remaining:
            private = 0
            for s in masks:
                hit = s & chosen
                if not hit & (hit - 1):
                    private |= hit
            if private == chosen:
                covers.append(chosen)
            return
        allowed = ~banned
        free = min((s & allowed for s in remaining), key=int.bit_count)
        while free:
            b = free & -free
            free ^= b
            rec([s for s in remaining if not s & b], chosen | b, banned)
            banned |= b
            allowed = ~banned
            if any(not s & allowed for s in remaining if s & b):
                return

    rec(masks, 0, 0)

    def indices(c):
        return [i for i in range(c.bit_length()) if c >> i & 1]

    # Ascending dense indices sort like the bits they stand for.
    found = sorted((len(idx), idx) for idx in map(indices, covers))
    return [sum(1 << positions[i] for i in idx) for _, idx in found]


# On in(I_3) of the generic 9x9 matrix the recursion visits 47k distinct
# subproblems; carrying (h, e) (`_height_and_multiplicity`) under this bound
# it peaks at 13.5 MB by tracemalloc, memo included.  The benchmark ladders
# visit far fewer.
_HILBERT_MEMO_ENTRIES = 1 << 14


def _pivot_recursion(masks: list[int], base, join):
    """The value that Bigatti's pivot recursion gives the squarefree monomial
    ideal I with these minimal support masks (an antichain without
    singletons), where `base` and `join` choose what a value is.

    A node whose supports are pairwise coprime takes `base(masks)`.  Any
    other node pivots on x, the variable in the most supports (ties to the
    highest bit), and takes `join(a, c, k)`: a is the value of J, the
    supports without x, so that I + (x) = J + (x); c is the value of the
    colon I : x less its k singletons.  One pass splits the supports:
    those with x form an antichain, so their quotients s - x do too, and
    I : x keeps them and the supports without x that contain no quotient.
    A singleton quotient {y} shares no variable with the rest of the colon,
    so it is left to `join` as a factor.  Subproblems repeat across the two
    branches, so their values are memoised for the call, keyed by their
    sorted masks; the memo starts over once it holds
    `_HILBERT_MEMO_ENTRIES` of them, which bounds its memory.
    """
    memo: dict = {}

    def rec(masks):
        key = tuple(sorted(masks))
        value = memo.get(key)
        if value is not None:
            return value
        _check_deadline()
        # planes[i] holds the variables whose support count has bit i set.
        planes = []
        for s in masks:
            for i, plane in enumerate(planes):
                planes[i] = plane ^ s
                s &= plane
                if not s:
                    break
            else:
                planes.append(s)
        if len(planes) < 2:  # pairwise coprime
            value = base(masks)
        else:
            top = planes.pop()
            for plane in reversed(planes):
                if top & plane:
                    top &= plane
            x = 1 << top.bit_length() - 1
            untouched, wide, singles = [], [], 0  # singles: the bits y of the quotients {y}
            for s in masks:
                if not s & x:
                    untouched.append(s)
                elif (r := s ^ x) & (r - 1):
                    wide.append(r)
                else:
                    singles |= r
            colon = wide.copy()
            for s in untouched:
                if not s & singles:
                    _check_deadline()
                    for r in wide:
                        if r & s == r:
                            break
                    else:
                        colon.append(s)
            a = rec(untouched)
            value = join(a, rec(colon), singles.bit_count())
        if len(memo) >= _HILBERT_MEMO_ENTRIES:
            memo.clear()
        memo[key] = value
        return value

    return rec(masks)


def _times_one_minus_t(num: list[int], k: int) -> list[int]:
    for _ in range(k):
        num = [x - y for x, y in zip(num + [0], [0] + num)]
    return num


def _coprime_numerator(masks: list[int]) -> list[int]:
    """N(t) of pairwise coprime supports: the product of the (1 - t^|s|)."""
    num = [1]
    for s in masks:
        d = s.bit_count()
        num += [0] * d
        for i in range(len(num) - 1, d - 1, -1):
            num[i] -= num[i - d]
    return num


def _join_numerators(a: list[int], c: list[int], k: int) -> list[int]:
    """N(I) = N(I + (x)) + t N(I : x) = (1 - t) A + t (1 - t)^k C."""
    c = _times_one_minus_t(c, k)
    # The coefficient of t^i is a_i - a_(i-1) + c_(i-1).
    return [p - q + r for p, q, r in zip_longest(a, [0] + a, [0] + c, fillvalue=0)]


def _hilbert_numerator(masks: list[int]) -> list[int]:
    """Coefficients of N(t), where H(S/I, t) = N(t)/(1-t)^n for the
    squarefree monomial ideal I with these minimal support masks (an
    antichain): `_pivot_recursion` with N(t) as its value.  A singleton
    support {y} shares no variable with the others, so it is stripped as a
    factor (1 - t)."""
    rest = [s for s in masks if s & (s - 1)]
    num = _pivot_recursion(rest, _coprime_numerator, _join_numerators)
    return _times_one_minus_t(num, len(masks) - len(rest))


def _coprime_lead(masks: list[int]) -> tuple[int, int]:
    """(h, e) of pairwise coprime supports: the product of the
    1 - t^d = u (d + O(u)) in u = 1 - t is u^m times the product of the d."""
    return len(masks), prod(s.bit_count() for s in masks)


def _join_leads(a: tuple[int, int], c: tuple[int, int], k: int) -> tuple[int, int]:
    """(h, e) of (1 - t) A + t (1 - t)^k C, in u = 1 - t: u A + (1 - u) u^k C.

    Each e is the multiplicity of a proper quotient, so it is positive and
    the two leading terms never cancel: the lower order wins, and on a tie
    the leading coefficients add."""
    (ha, ea), (hc, ec) = a, c
    ha += 1
    hc += k
    if ha != hc:
        return (ha, ea) if ha < hc else (hc, ec)
    return ha, ea + ec


def _height_and_multiplicity(supports) -> tuple[int, int]:
    """(h, e) for the squarefree monomial ideal with these supports, where
    its Hilbert series numerator is N(t) = (1 - t)^h Q(t) and e = Q(1):
    the order and the leading coefficient of N in u = 1 - t, which
    `_pivot_recursion` carries in place of N itself.  A singleton support
    is a factor u of N."""
    _, masks = _cover_bits(supports)
    rest = [s for s in masks if s & (s - 1)]
    h, e = _pivot_recursion(rest, _coprime_lead, _join_leads)
    return h + len(masks) - len(rest), e


def min_cover_size(supports) -> tuple[int, int]:
    """Exact minimum cover size, with the number of covers of that size: the
    height and multiplicity (h, e) of the squarefree monomial ideal with
    these supports, which the pivot recursion carries in place of its
    Hilbert series numerator (`_height_and_multiplicity`).  `MonomialIdeal`
    keeps the pair, so that each of its cover searches is one call here."""
    return _height_and_multiplicity(supports)
