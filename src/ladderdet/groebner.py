"""Buchberger-based ideal arithmetic and monomial-ideal utilities.

Normal forms, reduced Groebner bases (sugar pair selection after
Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube, please",
ISSAC 1991: sugar first, then the lcm, then the
indices; coprime-lead and chain criteria via Gebauer-Moeller updates),
ideal sums / intersections / colons / saturations, Frobenius bracket
powers, and squarefree monomial-ideal combinatorics (minimal primes,
height, dimension and multiplicity by one memoised pivot recursion;
symbolic powers by one pass per minimal prime P, as (b) ∩ P^n =
b · P^(max(0, n − deg_P b)) (Herzog, Hibi and Trung, Adv. Math. 210, 2007)).

`buchberger` and `is_groebner_basis` build the Gebauer-Moeller pair set
(Gebauer and Moeller, J. Symbolic Comput. 6, 1988) on the run's `Reducer`,
whose index files each lead once for the reduction and the pair update
alike: a new lead forms lcms only with the leads that share a variable with
it, found by one newest-first scan that keys each lcm to its first index, a
lead coprime to it acts only through one divisor search of that index,
skipped when no lead is coprime to it or when the quotient has fewer
variables outside the new lead than any lead has, and the initial build
tests the chain criterion once per pair against the later leads, but not
for a pair whose lcm is lm_j times one variable when no later lead is of
lower degree than lm_j, which it cannot drop.  Both form and reduce each
S-pair on the terms of the reducer's entries, coefficients as the
polynomials hold them, and every remainder, of an S-pair or of a tail,
comes from one reduction loop, `Reducer.remainders`, which sets up once per
run, reading the deadline too, divides by no lead coefficient of 1, as
every monic entry's is, and takes the leading terms of a large remainder
from a heap rather than by `max`.  Divisors are found on one top-bit index
(`_index_add`, `_divisor`), and the minimal ones of a set of monomials, be
they the pair update's quotients, a monomial ideal's generators or the
supports of the cover search, come from one degree-ordered pass over it
(`_minimal`).  Both first
walk the initial pair set in the order it was built, up to the first
nonzero remainder (`_walk`); most generator sets the engine meets, minors
under an antidiagonal order, are already bases, and for them the walk is
the whole run.  `buchberger` then runs the Buchberger loop from that
remainder, which selects the pairs left by sugar from a heap that holds the
keys of the pairs each update adds, and `interreduce` finishes the reduced
basis on the loop's own entries, building one Polynomial per element it
keeps; a tail none of whose terms is a kept lead or above the least kept
lead's degree is kept as it is.  An intersection J cap K is first read off
the reduced bases of J and K: the elements of each that lie in the other
ideal are a Groebner basis of it when their leads generate in(J) cap in(K),
which contains in(J cap K); only the leads that none of theirs divides are
paired in that test.  Taken from one basis they are already reduced and are
the answer as they are; taken from both they are interreduced.  Knutson's
in(J cap K) = in(J) cap in(K) for compatibly split ideals ("Frobenius
splitting, point-counting, and degeneration", arXiv:0911.4941) is why the
paper's band intersections pass.  When the leads do not certify it, an
auxiliary t is eliminated from t*J + (1-t)*K and only the aux-free entries
are interreduced.  `Ideal.equal` reads equality with an ideal whose basis
is cached off the other side's generators when, made monic, they are that
basis: so the band identity left + right = wide cap inner costs the runs of
wide and inner alone.  Whether the set a walk decided is a Groebner basis
is recorded with its generator list, so `buchberger` and then
`is_groebner_basis` on the same generators reduce the S-pairs once, and
`is_groebner_basis` answers the same polynomial objects before it builds a
reducer.  An `Ideal` keeps the reducer of each cached basis for its normal
forms and membership tests.  Polynomials over different coefficient fields
are refused with ValueError, as their arithmetic refuses them.

Minimal primes, heights, dimensions and multiplicities of squarefree
monomial ideals come from Bigatti's pivot recursion for the numerator N(t)
of the Hilbert series (Bigatti, J. Pure Appl. Algebra 119, 1997).  Its
supports carry one bit per ring variable (`MonomialIdeal.supports`), and
every cover comes back in those bits.  Each of its three value types takes
supports and calls `_cover_bits` once, which keeps the minimal ones and
splits off the singletons; the recursion runs on the rest, and each value
type folds the singletons back in: ORed into every cover, a factor
(1 - t)^k of N(t), or k added to h.  A node splits its supports in one
pass into those without the pivot x and the quotients s - x of those with
it.  The supports form an antichain, so the quotients do too and none is
compared with another: the colon is the quotients plus the supports
without x that contain none, built in one more pass.  The recursion
(`_pivot_recursion`) takes the value it carries from its caller: a base
value for pairwise coprime supports, and a join of the two children's
values.  Heights, dimensions and multiplicities carry only (h, e)
(`min_cover_size`), the order and the leading coefficient of N in
u = 1 - t: a join keeps the lower order, and adds the two coefficients on
a tie.  `_hilbert_numerator` carries the whole of N(t), and
`minimal_covers` the list of minimal primes, with the same recursion: a
prime without the pivot x is a prime of the colon, and one with x is x and
a prime of the supports without x that misses some quotient.  The memo of
subproblems is bounded by `_HILBERT_MEMO_ENTRIES` and by `_MEMO_ITEMS`,
the items its values hold, and the budget is checked once per node, once
per support the colon pass sweeps, once per factor of a coprime node's
covers and once per cover a join tests against the quotients.

Monomials are the packed ints of `poly`, and the term order is their int
order, antidiagonal-lex: a lead is a `max`.  Each ring fixes one `Packing`;
an ideal re-packs its generators into it, so every monomial of one
Buchberger run shares a guard mask, and a function given polynomials of
several packings first moves them into the packing of their joint
variables.
"""

from __future__ import annotations

import heapq
import operator
import time
from itertools import accumulate, combinations_with_replacement, zip_longest
from math import prod

from .fields import Field
from .poly import (
    FIELD_BITS,
    MAX_EXPONENT,
    MAX_VARIABLES,
    MONO_ONE,
    InstanceTooLarge,
    Packing,
    Polynomial,
    Variable,
    _W,
    _check_deadline,
    _check_fields,
    _current_deadline,
    _monic_terms,
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
    mono_min_exponent,
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
# coefficient, tail terms, lead's support mask).  There is one reduction
# loop, `Reducer.remainders`: it binds the field, packing, index and
# deadline once and yields the remainder of each term dict it draws, on
# the reducer as it stands at that draw.  The walk and the Buchberger loop
# each feed one run the S-pairs, formed from two entries on term dicts
# (`s_polynomial`), so no S-pair becomes a Polynomial; `interreduce` moves
# the driver's entries as they are into a reducer and feeds one run their
# tails; `Reducer.remainder` is the run of one dict.
# A difference of two terms over QQ can be an integral Fraction; the
# remainder coerces each of its terms back to the exact form.  The loop takes
# a leading term by `max` over a small work dict and from a heap of its
# monomials over a large one, with the same result.
# "Which filed monomial divides m?" has one answer, the divisor index:
# `_index_add` files an item under the top bit of its monomial's support
# mask, and `_divisor` looks only in bucket 0 and the buckets of the bits of
# the mask it is given: m's support mask, or, in the reduction, the mask of
# m's exponents that are at least the least exponent of a filed lead.


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
            mm = tm + u  # mono_mul, inline
            v = work.get(mm, 0) - tc * q
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    else:
        for tm, tc in tail:
            mm = tm + u
            v = (work.get(mm, 0) - tc * q) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]


def _entry(lm: int, terms: dict, packing: Packing):
    """The `Reducer` entry of the element with terms `terms` and leading
    monomial lm, in `packing`."""
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm], mono_mask(lm, packing)


def _index_add(index: dict, m: int, mask: int, item) -> None:
    """Files `item`, of monomial m and support mask `mask`, in the divisor
    index under the mask's top bit: the constant 1, of mask 0, under 0."""
    index.setdefault(mask.bit_length(), []).append((m, mask, item))


def _divisor(index: dict, m: int, mask: int, guard: int):
    """The first item filed in `index`, in the order below, whose monomial
    divides m, or None.  `mask` is m's support mask or any other mask that
    holds the support of every filed monomial dividing m.  The buckets of
    the mask's bits, top down, then bucket 0, are searched, each in filing
    order, and only a monomial whose support lies inside `mask` is tested
    by `mono_divides`.  Every dividing monomial is filed under a bit of any
    such mask, so all of them give the same item."""
    bits = mask
    while True:
        top = bits.bit_length()
        for d, dmask, item in index.get(top, ()):
            if not dmask & ~mask and mono_divides(d, m, guard):
                return item
        if not top:
            return None
        bits ^= 1 << top - 1


def _minimal(items, guard: int) -> list[int]:
    """The monomials of the (degree, monomial, support mask) items that the
    monomial of no other item divides, each once, by ascending degree and,
    within a degree, ascending int.

    A proper divisor has lower degree, so the items go by degree, each
    looked up (`_divisor`) among the kept ones of lower degree, which are
    filed as each degree starts; while none is filed, none is looked up.
    Repeats are adjacent in that order, and only the first is taken.  Under
    guard 0 a bit mask is a monomial of its own: its degree is its
    popcount, and it divides the masks that hold its bits.
    """
    index, kept, filed, degree, last = {}, [], 0, 0, None  # kept[:filed] is in the index
    for item in sorted(items):
        if item == last:
            continue
        _check_deadline()
        d, m, mask = last = item
        if d > degree:
            degree = d
            for _, g, gmask in kept[filed:]:
                _index_add(index, g, gmask, g)
            filed = len(kept)
        if not index or _divisor(index, m, mask, guard) is None:
            kept.append(item)
    return [m for _, m, _ in kept]


# A work dict of more terms than `_HEAP_TERMS` times those of the reducer's
# longest element takes its leading terms from a heap (`remainders`).  Each
# step of the heap pushes up to a tail's worth of monomials, while `max`
# scans the dict.  Timed on products of random polynomials with minors,
# reduced modulo the t-minors of a 3x5 or 4x5 matrix over GF(3), the two
# break even at about 64 terms for t = 2 (2-term elements), 190 for t = 3
# (6 terms) and 770 for t = 4 (24 terms), on a 2-CPU machine.
_HEAP_TERMS = 32


class Reducer:
    """Divisor table for repeated normal forms against a (growing) basis.

    `entries` holds one (lead, lead coefficient, tail terms, support mask)
    per basis element, in basis order.  `index` files the same entries by
    their leads (`_index_add`), and each term of the remainder takes the
    first entry `_divisor` finds there.  `least` and `most` are the fewest
    and the most variables a lead has: no lead divides a monomial of fewer
    than `least` variables.  `exponent` is e, the least nonzero exponent of
    a lead (1 once a lead is squarefree, p for the bracket I^[p] of a
    squarefree basis; `MAX_EXPONENT` + 1 while no lead has one), and
    `at_least` the packed constant whose sum with a monomial m has, under
    the guard mask, the guard bit of each exponent of m that is at least e:
    every lead dividing m has its support there.  `longest` is the most
    terms a tail has, and `heap_above` the size past which a work dict takes
    its leading terms from a heap, `_HEAP_TERMS` times the terms of the
    longest element.  `add_entry` keeps all of these.  Every term that becomes
    the leading term of the remainder is checked for an exponent past its
    field.  All reduction runs through `remainders`, a generator over term
    dicts, so a batch pays the set-up once.
    """

    __slots__ = ("field", "packing", "entries", "index", "least", "most",
                 "exponent", "at_least", "longest", "heap_above")

    def __init__(self, basis=(), field: Field | None = None, packing: Packing | None = None):
        """The field and packing are those of the first basis element
        unless given."""
        self.entries: list = []
        self.index: dict = {}
        self.least, self.most = MAX_VARIABLES + 1, 0
        self.exponent, self.at_least = MAX_EXPONENT + 1, 0
        self.longest, self.heap_above = 0, _HEAP_TERMS
        self.field = field
        self.packing = packing
        for g in basis:
            self.add(g)

    def add(self, g: Polynomial) -> None:
        if self.packing is None:
            self.field, self.packing = g.field, g.packing
        g = g.repack(self.packing)
        self.add_terms(g.leading_term()[0], g.terms)

    def add_terms(self, lm: int, terms: dict) -> None:
        """Add the element with terms `terms` and leading monomial lm."""
        self.add_entry(_entry(lm, terms, self.packing))

    def add_entry(self, entry) -> None:
        """Add an entry of another reducer of the same packing as it is."""
        lm, _, tail, mask = entry
        self.entries.append(entry)
        _index_add(self.index, lm, mask, entry)
        size = mask.bit_count()
        if size < self.least:
            self.least = size
        if size > self.most:
            self.most = size
        if self.exponent > 1 and (e := mono_min_exponent(lm)) < self.exponent:
            self.exponent = e
            self.at_least = (MAX_EXPONENT + 1 - e) * (self.packing.guard >> FIELD_BITS)
        if len(tail) > self.longest:
            self.longest = len(tail)
            self.heap_above = _HEAP_TERMS * (len(tail) + 1)

    def reduce(self, f: Polynomial) -> Polynomial:
        packing = self.packing
        if packing is None:
            return f
        f = f.repack(packing)
        return Polynomial(f.field, self.remainder(dict(f.terms)), packing)

    def remainder(self, work: dict) -> dict:
        """The remainder of the terms `work`, which it consumes: `remainders`
        of the one dict."""
        return next(self.remainders((work,)))

    def remainders(self, works):
        """Yields the remainder of each term dict drawn from `works`, which it
        consumes, on the reducer as it stands when the dict is drawn: its
        terms in descending order, the leading term first.  The field,
        packing, index and deadline are bound once, on the first draw, so
        entries added between two draws take part in the later remainders;
        `at_least` and `heap_above` are read at each draw.

        The leading term of the work dict is its `max`, which scans the
        dict, while it has at most `heap_above` terms when drawn.  A larger
        dict is heapified once, a monomial is pushed when it enters the dict,
        and a popped monomial no longer in the dict, cancelled since, is
        skipped: every monomial of the dict is on the heap, so the first one
        popped that is in the dict is its `max`.  The two loops are written
        out apart so that a small dict, such as an S-pair of minors, pays no
        test per step for the heap.  A term's divisor is looked
        up with the mask of its exponents that are at least the least lead
        exponent e (`_divisor`), which holds the support of every lead that
        divides it and so finds the same entry as its support mask would;
        when every lead's exponents equal e, as in a bracket I^[p] of a
        squarefree basis, a lead whose support lies in that mask divides the
        term.  A term's coefficient is divided by its reducer's lead
        coefficient only when that is not 1, as it is for every monic entry.
        The budget is checked once per term taken."""
        field, packing, index = self.field, self.packing, self.index
        p, div, coerce = field.p, field.div, field.coerce
        guard = packing.guard
        deadline = _current_deadline()
        for work in works:
            at_least = self.at_least
            rem = {}
            if len(work) <= self.heap_above:
                while work:
                    if deadline is not None and time.monotonic() > deadline:
                        _check_deadline()  # raises: the deadline has passed
                    m = max(work)
                    c = work.pop(m)
                    if m & guard:
                        raise _overflow()
                    hit = _divisor(index, m, (m + at_least) & guard, guard)
                    if hit is None:
                        rem[m] = coerce(c)
                        continue
                    lm, lc, tail, _ = hit
                    _sub_multiple(work, tail, m - lm, c if lc == 1 else div(c, lc), p)
            else:
                heap, push, pop = [-m for m in work], heapq.heappush, heapq.heappop
                heapq.heapify(heap)
                while work:
                    c = work.pop(m := -pop(heap), None)
                    if c is None:
                        continue
                    if deadline is not None and time.monotonic() > deadline:
                        _check_deadline()
                    if m & guard:
                        raise _overflow()
                    hit = _divisor(index, m, (m + at_least) & guard, guard)
                    if hit is None:
                        rem[m] = coerce(c)
                        continue
                    lm, lc, tail, _ = hit
                    u = m - lm
                    for tm, _ in tail:  # a monomial entering the dict gets a nonzero term
                        if (mm := tm + u) not in work:
                            push(heap, -mm)
                    _sub_multiple(work, tail, u, c if lc == 1 else div(c, lc), p)
            yield rem


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by `basis` (no quotient bookkeeping)."""
    f, *basis = _one_packing([f, *basis])
    return Reducer(basis).reduce(f)


def s_polynomial(a, b, lcm: int, guard: int, field: Field) -> dict:
    """Terms of the S-polynomial of two `Reducer` entries a and b over
    `field`, the lcm of whose leads is `lcm`:
    lcm/lm_a * a/lc_a - lcm/lm_b * b/lc_b.

    The two leads cancel, so only the scaled tails are formed, in one dict.
    A lead coefficient of 1, as every monic entry has, is its own inverse.
    """
    lma, lca, taila, _ = a
    lmb, lcb, tailb, _ = b
    p = field.p
    ua = mono_div(lcm, lma, guard)
    qa = 1 if lca == 1 else field.inv(lca)
    # The terms of one scaled tail are distinct and nonzero.
    if p is None:
        out = {mono_mul(tm, ua): tc * qa for tm, tc in taila}
    else:
        out = {mono_mul(tm, ua): tc * qa % p for tm, tc in taila}
    _sub_multiple(out, tailb, mono_div(lcm, lmb, guard), 1 if lcb == 1 else field.inv(lcb), p)
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
# then the lcm, then the indices.  A popped key whose pair the update has
# since dropped is skipped.  On a lex order such as antidiagonal-lex this
# completes the basis in low sugar before it reduces high-degree pairs.
# Monomials are coprime iff their support masks (`mono_mask`) share no bit,
# and one can divide another only if its mask lies inside the other's.
#
# The pairs are made on the run's `Reducer`, whose entries hold the leads
# and their support masks and whose index files the leads (`_index_add`):
# each lead is filed once, for the reduction and the pair update alike.
# The update saves work in four ways:
# - M and F, near leads only (`_near_pairs`): a new lead's lcms and
#   quotients are formed only with the leads that share a variable with
#   it, found by one scan of the masks, and the minimal quotients are kept
#   by `_minimal`.  A lead c coprime to it matters only through division:
#   lm_c times the new lead divides the lcm L_i of lead i exactly when
#   lm_c divides the quotient q_i.  So a minimal quotient is dropped when
#   `_divisor` finds a lead dividing it on the reducer's index, searched
#   with the quotient's support outside the new lead's; that one test is
#   the coprime-lead criterion F and the coprime part of M.
# - No coprime search when none can exist: when every lead is near, as
#   in an intersection, whose leads all hold the aux variable, or when a
#   quotient has fewer variables outside the new lead than any lead has
#   (`Reducer.least`), as for minors of one size, the search is skipped.
# - B once per pair in the initial build: B_k drops the pair (i, j), made
#   when j was added, exactly when a later lead k divides its lcm L and L
#   differs from lcm(i, k) and from lcm(j, k), which depends on i, j and k
#   alone.  `_initial_pairs` tests each pair it makes once, by descending
#   j, against the later leads filed on a divisor index of their own, and
#   its dict equals, in order too, the one that adding the leads one at a
#   time by `_update_pairs` gives.  A pair of lcm lm_j * x, x a variable,
#   is not tested when no later lead is of lower degree than lm_j.  In the
#   Buchberger loop `_update_pairs` cannot know the later leads, so it
#   scans the pair set for each new lead.
# - No build for a decided set: `is_groebner_basis` on generators whose
#   verdict is recorded, and `buchberger` on generators recorded as a
#   basis, build no pair set and no reducer (`_verdict`).
#   `is_groebner_basis` on the very list the record holds, the same
#   objects in the same order, builds no monic entries and no key either.
# For a, b | L, lcm(a, b) = L iff the cofactors L - a and L - b share no
# variable, so B takes three masks and no lcm.

def _near_pairs(reducer: Reducer, lmf: int):
    """M and F for a new lead lmf after the leads of the reducer's entries:
    the new pairs as (first index of L, L), in the order they enter the
    pair set.

    The new pairs are (first index of L, n) for each minimal lcm L of lmf
    with a lead, unless a lead of L's group is coprime to lmf.  Each such L
    is lmf times the quotient q = L - lmf, and L | L' iff q | q', so the
    minimal lcms are those of the minimal quotients.  Only the near leads,
    those sharing a variable with lmf, are grouped, by one scan of the
    entries, newest first, that keys each near lead's quotient to its index:
    the last index written is the first, and the keys come in the order of
    the newest lead of each, the order the new pairs enter in.
    - q = 1 (L = lmf) divides every quotient, so it is then the only one;
    - else a quotient that is one variable to the first power is minimal,
      and every other quotient with that variable is a multiple of it, which
      one AND with the mask `units` of those variables finds; one pass
      splits these off;
    - `_minimal` keeps the minimal ones of the remaining quotients, which
      are then taken in ascending int order; one left is minimal as it is;
    - a minimal quotient q is dropped when a lead c coprime to lmf divides
      it.  c's own quotient is lm_c, so a group holds c exactly when
      q = lm_c, and lm_c | q otherwise makes q no minimal quotient: that
      one test is the coprime-lead criterion and the coprime leads' part
      of the minimality.  It is one `_divisor` search of the reducer's
      index with q's support outside lmf's: a lead whose support lies there
      is coprime to lmf.  The search is skipped when that support has fewer
      variables than `reducer.least`, the fewest any lead has, since no
      lead then fits in it.  q's support outside lmf lies in that of the
      near lead it came from, less a variable the two share, so when every
      lead has the same support size, as minors of one size do, no q is
      searched.
    """
    entries, guard, low = reducer.entries, reducer.packing.guard, reducer.packing.low
    maskf = (lmf + low) & guard
    first = {}  # the quotient L - lmf of each near lead's lcm L -> its first index
    far = False  # whether a lead is coprime to lmf
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        if e[3] & maskf:
            first[mono_lcm(e[0], lmf, guard) - lmf] = i
        else:
            far = True
    if MONO_ONE in first:
        minimal = [MONO_ONE]
    else:
        ones = guard >> FIELD_BITS
        minimal, rest = [], []
        for q in first:
            (minimal if q & ones and q.bit_count() == 1 else rest).append(q)
        units = sum(minimal) << FIELD_BITS  # the guard bits of their variables
        rest = [q for q in rest if not (q + low) & guard & units]
        if len(rest) > 1:
            rest = sorted(_minimal([(mono_degree(q), q, (q + low) & guard) for q in rest], guard))
        minimal += rest

    least = reducer.least
    if far and least < reducer.most:  # a coprime lead may fit
        # A lead c coprime to lmf has lcm lm_c * lmf, and
        # lm_c * lmf | L_i = lmf * q_i iff lm_c | q_i; no lead has fewer
        # than `least` variables.
        minimal = [q for q in minimal
                   if (outside := (q + low) & guard & ~maskf).bit_count() < least
                   or _divisor(reducer.index, q, outside, guard) is None]
    return [(first[q], q + lmf) for q in minimal]


def _update_pairs(reducer: Reducer, P: dict, lmf: int) -> dict:
    """Gebauer-Moeller pair update, in place: makes the pair set P that of
    the basis of the reducer's entries after adding an element with lead
    monomial lmf, and returns the pairs it added, a dict of its own.  The
    new pairs come from `_near_pairs`; the caller then adds the element to
    the reducer.

    B_k(i, j) drops a pair of P when lmf | L = lcm_ij and L differs from
    both lcm(lm_i, lmf) and lcm(lm_j, lmf).  lmf | L is tested inline: no
    field of L - lmf borrows.  For a | L and b | L, lcm(a, b) = L iff the
    cofactors L - a and L - b share no variable: each field of L is the
    max of a's and b's iff one of the two differences is 0 there.  The
    driver calls this for each new element; it scans all of P, since the
    leads still to come are unknown.
    """
    _check_deadline()
    pairs = _near_pairs(reducer, lmf)
    entries, guard, low = reducer.entries, reducer.packing.guard, reducer.packing.low
    n = len(entries)
    for ij, L in [(ij, L) for ij, L in P.items() if not (L - lmf) & guard]:
        i, j = ij
        cof = (L - lmf + low) & guard
        if (L - entries[i][0] + low) & cof and (L - entries[j][0] + low) & cof:
            del P[ij]
    new = {(i, n): L for i, L in pairs}
    P.update(new)
    return new


def _initial_pairs(entries, field: Field, packing: Packing):
    """The reducer of the `Reducer` entries `entries`, in `packing` over
    `field`, and their pair set: the same dict, in the same order, as the
    updates `_update_pairs` makes adding them one at a time.  Returns
    (reducer, pair set), which `_buchberger_loop` goes on with.

    The reducer is built entry by entry, and the pairs each lead makes come
    from `_near_pairs` on the entries before it.  B is then tested once
    per pair (i, j), as in `_update_pairs`, against the later leads k > j.
    The pass takes the pairs by descending j and files the leads after j
    on a fresh divisor index just before j's pairs, so the index holds
    exactly those leads.  It walks the index's buckets itself, as
    `_divisor` does, but only those that hold a lead, and on past a divisor
    of L that fails the cofactor test.  Deleting the pairs it drops leaves
    the others in order.  The build checks the budget once per lead, the
    B pass once per j whose pairs it walks.

    No walk is needed when L = lm_j * x, x one variable, and no lead after
    j has a lower degree than lm_j: if lm_k | L, lcm(lm_j, lm_k) is L, or
    lm_j, and then lm_k | lm_j forces lm_k = lm_j and lcm(lm_i, lm_k) = L.
    """
    reducer = Reducer((), field, packing)
    P: dict = {}
    for j, entry in enumerate(entries):
        _check_deadline()
        for i, L in _near_pairs(reducer, entry[0]):
            P[i, j] = L
        reducer.add_entry(entry)
    if not P:
        return reducer, P
    guard, low = packing.guard, packing.low
    lms = [e[0] for e in entries]
    degrees = list(map(mono_degree, lms))
    least = list(accumulate(reversed(degrees), min))[::-1]  # least[j]: from lead j on
    ones = guard >> FIELD_BITS
    later: dict = {}  # the leads k >= filed, on the divisor index
    tops = 0  # the top bits of their masks: the buckets that hold a lead
    gone, filed = [], len(lms)
    for ij, L in reversed(P.items()):  # grouped by j, descending
        i, j = ij
        if degrees[j] == least[j] and (q := L - lms[j]) & ones and q.bit_count() == 1:
            continue
        if filed > j + 1:  # j's first walked pair: file the leads after j
            _check_deadline()
            for lmk, _, _, mask in entries[j + 1:filed]:
                _index_add(later, lmk, mask, lmk)
                tops |= 1 << mask.bit_length() >> 1
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
    return reducer, P


def _pair_key(i, j, lcm, entries, sugars):
    d = mono_degree(lcm)
    sugar = max(sugars[i] + d - mono_degree(entries[i][0]),
                sugars[j] + d - mono_degree(entries[j][0]))
    return (sugar, lcm, i, j)


def _monic_term_sets(polys) -> set:
    """The term sets of the nonzero polynomials, of one packing, made monic."""
    return {frozenset(_monic_terms(f.terms, max(f.terms), f.field).items()) for f in polys}


def _monic_entries(gens):
    """The `Reducer` entries of the generators, of one packing, made monic,
    in order; None when one of them is a nonzero constant."""
    field, packing = gens[0].field, gens[0].packing
    entries = []
    for f in gens:
        lm = f.leading_term()[0]
        if lm == MONO_ONE:
            return None
        entries.append(_entry(lm, _monic_terms(f.terms, lm, field), packing))
    return entries


# The verdict record: (generators, key, whether they are a Groebner basis)
# for the last generator set decided, or None.  A set is decided by the
# walk of its initial pairs (`_walk`): at its first nonzero remainder, or
# when all those S-pairs reduce to zero; a stopped walk decides none.  The
# generators are the list the deciding call was given, after `_one_packing`.
_verdict = None


def _verdict_key(field: Field, packing: Packing, entries):
    """The record's key of the monic entries of generators over `field` in
    `packing`; the generators' order and repeats leave the verdict as it is."""
    return field, packing, frozenset((lm, frozenset(tail)) for lm, _, tail, _ in entries)


def _walk(reducer: Reducer, P: dict):
    """Reduces the S-pairs of the pair set P on `reducer` in P's order,
    deleting each whose remainder is zero, and stops at the first nonzero
    remainder: returns (that pair, its remainder terms), the pair still in
    P, or None when P is left empty.  The S-polynomials are drawn one at a
    time by one `Reducer.remainders` run.  The budget is checked once per
    pair.
    """
    entries, field, guard = reducer.entries, reducer.field, reducer.packing.guard
    zero = []
    rems = reducer.remainders(s_polynomial(entries[i], entries[j], lcm, guard, field)
                              for (i, j), lcm in P.items())
    for ij, rem in zip(P, rems):
        _check_deadline()
        if rem:
            for pair in zero:
                del P[pair]
            return ij, rem
        zero.append(ij)
    P.clear()
    return None


def _buchberger_loop(gens):
    """The Buchberger driver over generators of one packing.

    Returns the `Reducer` entries of a monic Groebner basis, generators
    first, or None for the unit ideal.

    The initial pairs are first walked in the order they were built
    (`_walk`), which decides whether the generators are a basis and records
    it: when every S-pair reduces to zero the generators' entries are
    returned with no sugar computed.  Otherwise the first nonzero remainder
    becomes the first new element, with its pair's sugar, and the pairs
    left go on a heap ordered by sugar, then by the lcm, then by the
    indices; each update pushes the keys of the pairs it adds, and a popped
    pair the update has since dropped is skipped.  Each S-pair
    is formed from two entries and reduced on term dicts, all in one
    `Reducer.remainders` run, which reduces each S-pair on the entries made
    before it was popped; a nonzero remainder becomes a new entry, still
    with no Polynomial built.
    Generators recorded as a Groebner basis are returned as they are.
    """
    global _verdict
    entries = _monic_entries(gens)
    if entries is None:
        return None
    field, packing = gens[0].field, gens[0].packing
    key = _verdict_key(field, packing, entries)
    if _verdict is not None and _verdict[1:] == (key, True):
        return entries
    guard = packing.guard
    reducer, P = _initial_pairs(entries, field, packing)
    entries = reducer.entries  # the same entries, which the loop extends
    walked = _walk(reducer, P)
    _verdict = (gens, key, walked is None)
    if walked is None:
        return entries
    (i, j), rem = walked
    sugars = [f.degree() for f in gens]
    pair_sugar = _pair_key(i, j, P.pop((i, j)), entries, sugars)[0]
    heap = [_pair_key(*pair, lcm, entries, sugars) for pair, lcm in P.items()]
    heapq.heapify(heap)

    def s_pairs():
        """The S-polynomials of the live pairs as the heap pops them."""
        nonlocal pair_sugar
        while heap:
            _check_deadline()
            pair_sugar, _, i, j = heapq.heappop(heap)
            lcm = P.pop((i, j), None)
            if lcm is not None:  # else dropped by an update after it was pushed
                yield s_polynomial(entries[i], entries[j], lcm, guard, field)

    rems = reducer.remainders(s_pairs())
    while True:
        lmr = next(iter(rem))  # the remainder comes leading term first
        if lmr == MONO_ONE:
            return None
        new = _update_pairs(reducer, P, lmr)
        reducer.add_terms(lmr, _monic_terms(rem, lmr, field))
        sugars.append(pair_sugar)  # the sugar of the pair rem came from
        for pair, lcm in new.items():
            heapq.heappush(heap, _pair_key(*pair, lcm, entries, sugars))
        rem = next(filter(None, rems), None)
        if rem is None:
            return entries


def interreduce(entries, field: Field, packing: Packing) -> list[Polynomial]:
    """Reduced basis from the monic `Reducer` entries of a Groebner basis in
    `packing`: the entries with minimal leads, sorted by lead, tails reduced.

    Of entries that share a lead the first is kept.  In ascending lead
    order, an entry goes into one reducer as it is unless `_divisor` finds a
    lead there dividing its own; the tails are then reduced on it by one
    `Reducer.remainders` run: a lead never divides a smaller term, so that
    is reducing each by the others.  A tail is kept as it is, its terms
    sorted, when no term is a kept lead or has a degree above the least
    kept lead's: a lead can divide such a term only by being it.
    """
    guard = packing.guard
    reducer = Reducer((), field, packing)
    for entry in sorted(entries, key=operator.itemgetter(0)):
        if _divisor(reducer.index, entry[0], entry[3], guard) is None:
            reducer.add_entry(entry)
    kept = reducer.entries
    leads = {e[0] for e in kept}
    least = min(map(mono_degree, leads), default=0)
    settled = [all(m not in leads and mono_degree(m) <= least for m, _ in tail)
               for _, _, tail, _ in kept]
    rems = reducer.remainders(dict(e[2]) for e, done in zip(kept, settled) if not done)
    out = []
    for (lm, lc, tail, _), done in zip(kept, settled):
        rem = dict(sorted(tail, key=operator.itemgetter(0), reverse=True)) if done else next(rems)
        out.append(Polynomial(field, {lm: lc, **rem}, packing))
    return out


def buchberger(gens, below: int | None = None):
    """Reduced Groebner basis of the ideal generated by `gens`, in the
    packing of their joint variables.

    With `below`, a monomial of that packing, only the elements whose lead
    is less than `below` are interreduced and returned.  With `below` the
    auxiliary variable on top, they are the reduced basis of the elimination
    ideal: antidiagonal-lex is lex with the auxiliaries above the grid, an
    elimination order for them, and the aux-free part of a Groebner basis
    under an elimination order is a Groebner basis of the elimination ideal.
    """
    gens = _one_packing(g for g in gens if not g.is_zero)
    if not gens:
        return []
    field, packing = gens[0].field, gens[0].packing
    entries = _buchberger_loop(gens)
    if entries is None:
        return [Polynomial(field, {MONO_ONE: field.one}, packing)]
    if below is not None:
        entries = [e for e in entries if e[0] < below]
    return interreduce(entries, field, packing)


def is_groebner_basis(gens) -> bool:
    """True iff every S-polynomial of `gens` reduces to zero against `gens`.

    The basis never grows, so the order of the pairs cannot change the
    answer: the S-pairs of the Gebauer-Moeller pair set, whose criteria
    only discard pairs whose S-polynomials provably reduce to zero, are
    walked as the pair set lists them, up to the first nonzero remainder
    (`_walk`).  A set with a nonzero constant is a Groebner basis.  A set
    whose verdict is recorded is answered from the record: the recorded
    generators themselves, in the same order, with no reducer built, and any
    other list with the same monic entries by the record's key.
    """
    global _verdict
    gens = _one_packing(g for g in gens if not g.is_zero)
    if len(gens) <= 1:
        return True
    recorded = _verdict[0] if _verdict is not None else ()
    if len(recorded) == len(gens) and all(map(operator.is_, recorded, gens)):
        return _verdict[2]
    entries = _monic_entries(gens)
    if entries is None:
        return True
    field, packing = gens[0].field, gens[0].packing
    key = _verdict_key(field, packing, entries)
    if _verdict is None or _verdict[1] != key:
        reducer, P = _initial_pairs(entries, field, packing)
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
    """An ideal given by generators, with its cached reduced Groebner basis
    and the reducers of that basis."""

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
        self._cache: tuple[Polynomial, ...] | None = None  # the reduced basis
        # packing -> Reducer of the cached basis in that packing
        self._reducers: dict[Packing, Reducer] = {}

    @classmethod
    def _with_bases(cls, ring: Ring, gens, basis) -> "Ideal":
        """The ideal of generators that are already distinct, nonzero and
        packed in the ring's packing, with its reduced Groebner basis
        `basis`, or None when it is not known (internal)."""
        out = cls.__new__(cls)
        out.ring = ring
        out.gens = tuple(gens)
        out._cache = basis
        out._reducers = {}
        return out

    # -- basics

    def groebner_basis(self) -> tuple[Polynomial, ...]:
        basis = self._cache
        if basis is None:
            basis = self._cache = tuple(buchberger(self.gens))
        return basis

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Remainder of f on division by the reduced basis, as
        `normal_form(f, basis)` gives it: in the packing of the joint
        variables of f and the ring, on the reducer kept for that packing.
        Raises ValueError when f is over another coefficient field."""
        if f.field != self.ring.field:
            raise ValueError(f"mixed coefficient fields: {f.field} vs {self.ring.field}")
        if not self.groebner_basis():
            return f
        return self._reducer(join_packings(f.packing, self.ring.packing)).reduce(f)

    def _reducer(self, packing: Packing) -> Reducer:
        """The reducer of the reduced basis in `packing`, built on first use and kept."""
        reducer = self._reducers.get(packing)
        if reducer is None:
            reducer = self._reducers.setdefault(
                packing, Reducer(self.groebner_basis(), self.ring.field, packing))
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
        """Ideal equality via reduced-Groebner-basis comparison.

        When one side has its basis B cached and the other has none, the
        other's generators, made monic, are first compared with B as a set:
        a generating set that is a reduced basis is the ideal's one reduced
        basis, so if they match the ideals are equal and B is cached on the
        other side, with no Buchberger run.  Otherwise both bases are
        computed and compared."""
        self._require_same_ring(other)
        for known, bare in ((self, other), (other, self)):
            basis = known._cache
            if (basis is not None and bare._cache is None
                    and _monic_term_sets(bare.gens) == _monic_term_sets(basis)):
                bare._cache = basis
                return True
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
        """I cap J, with its reduced basis cached.

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
        return Ideal._with_bases(self.ring, kept, kept)

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
        basis = self._cache
        return Ideal._with_bases(
            self.ring, [_frobenius_power(g, q) for g in self.gens],
            None if basis is None else tuple(_frobenius_power(g, q) for g in basis))

    def initial_ideal(self) -> "MonomialIdeal":
        """The leads of the reduced basis, which are the minimal generators:
        the cached basis is reduced."""
        basis = self.groebner_basis()
        return MonomialIdeal(self.ring, tuple(sorted(g.leading_term()[0] for g in basis)))

    def canonical_strings(self) -> list[str]:
        """Reduced basis in the textual format, sorted by leading monomial."""
        return [poly_to_str(g) for g in self.groebner_basis()]

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens over {self.ring.field})"


def _certified_intersection(I: Ideal, J: Ideal):
    """The reduced basis of I cap J from the reduced bases
    G_I and G_J, or None when their leads do not certify it.

    H holds the elements of each basis that lie in the other ideal; one whose
    lead is not in the other's initial ideal takes no normal form.  If a lead
    of H divides lcm(a, b) for every lead a of G_I and b of G_J, then
    in(I cap J) <= in(I) cap in(J) <= (lm H) <= in(H) <= in(I cap J), as the
    lcms generate in(I) cap in(J); so H is a Groebner basis of I cap J, and
    its reduced basis, being unique, is the elimination's.  A lead of G_I or
    G_J that a lead of H divides divides all of its lcms, so the lcm test
    runs over the other leads only.  H drawn from one basis alone is part
    of a reduced basis, so it is reduced: it is returned as it is, sorted
    by lead; H drawn from both bases is interreduced.  If G_I = (1), every
    element of G_J lies in I and lcm(1, b) = b, so H = G_J certifies and
    the result is G_J itself.
    """
    packing = I.ring.packing
    guard = packing.guard
    RI, RJ = I._reducer(packing), J._reducer(packing)
    # (basis element, its reducer entry) for each element in the other ideal
    HI, HJ = ([(g, entry) for g, entry in zip(basis, R.entries)
               if _divisor(other.index, entry[0], entry[3], guard) is not None
               and not other.remainder(dict([entry[:2], *entry[2]]))]
              for basis, R, other in ((I.groebner_basis(), RI, RJ), (J.groebner_basis(), RJ, RI)))
    index = {}
    for _, entry in HI + HJ:
        _index_add(index, entry[0], entry[3], entry)
    A, B = ([lm for lm, _, _, mask in R.entries if _divisor(index, lm, mask, guard) is None]
            for R in (RI, RJ))
    for a in A:
        _check_deadline()
        for b in B:
            m = mono_lcm(a, b, guard)
            if _divisor(index, m, mono_mask(m, packing), guard) is None:
                return None
    if HI and HJ:
        return tuple(interreduce([entry for _, entry in HI + HJ], I.ring.field, packing))
    return tuple(g for g, entry in sorted(HI or HJ, key=lambda h: h[1][0]))


def _eliminated_intersection(I: Ideal, J: Ideal) -> tuple[Polynomial, ...]:
    """The reduced basis of I cap J: (t*I + (1-t)*J) cap R,
    eliminating a fresh auxiliary t."""
    ring = I.ring
    aux = ring.fresh_aux()
    # The auxiliary is the greatest variable: its field goes on top, and
    # the ring's monomials keep their ints.
    packing = _packing((aux,) + ring.variables)
    t = 1 << packing.shift[aux]
    gens = [g.repack(packing).mul_term(t, 1) for g in I.gens]
    gens += [h - h.mul_term(t, 1) for h in (h.repack(packing) for h in J.gens)]
    # Antidiagonal-lex is lex with the auxiliaries on top, so an element
    # whose lead is below t has no aux in any term; only those are
    # interreduced, and they are the reduced basis of the intersection.
    return tuple(Polynomial(ring.field, b.terms, ring.packing)
                 for b in buchberger(gens, below=t))


def _exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g, for h and g of one packing; ArithmeticError unless g divides
    h exactly."""
    field = g.field
    p, div, coerce = field.p, field.div, field.coerce
    guard = g.packing.guard
    lm = g.leading_term()[0]
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


def _in_packing(m, packing: Packing) -> int:
    """An int monomial as it is, a `Monomial` re-packed into `packing`."""
    return m if type(m) is int else m.packed_in(packing)


class MonomialIdeal(Record):
    """A monomial ideal by its minimal (antichain) generator tuple, each
    generator packed in the ring's packing.  Its height and multiplicity
    come from one cover search, kept in the `_lead` slot."""

    __slots__ = ("ring", "gens", "_lead")

    @classmethod
    def from_monomials(cls, ring: Ring, monos) -> "MonomialIdeal":
        """Minimal generators of the ideal of `monos`: ints already packed in
        the ring, or `Monomial`s, which are re-packed into it."""
        packing = ring.packing
        guard, low = packing.guard, packing.low
        monos = [_in_packing(m, packing) for m in monos]
        return cls(ring, tuple(sorted(_minimal([(mono_degree(m), m, (m + low) & guard)
                                                for m in monos], guard))))

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
        """The support of each generator, one bit per ring variable: bit f
        is field f of the ring's packing, the variable
        ``ring.variables[-1 - f]``.  They are the input of every value type
        of the pivot recursion (`minimal_covers`, `min_cover_size`,
        `_hilbert_numerator`), whose covers come back in these bits.  The
        radical's generators have the same supports, less repeats and
        supports holding another one, which each of them drops through
        `_cover_bits`."""
        packing = self.ring.packing
        # The radical's bits _W * f are every _W-th binary digit from its top one.
        return [int(f"{mono_radical(g, packing):b}"[::_W], 2) for g in self.gens]

    def min_primes(self) -> list[frozenset[Variable]]:
        """Minimal primes (as variable sets), from the pivot recursion
        (`minimal_covers`), in its order."""
        if self.is_unit:
            raise ValueError("unit ideal has no minimal primes")
        variables = self.ring.variables
        return [frozenset(variables[-1 - f] for f in _bit_positions(c))
                for c in minimal_covers(self.supports())]

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
        (`min_cover_size`), which never builds N, and which runs once per
        ideal for `height`, `dim` and `multiplicity` together."""
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
        power = MonomialIdeal(self.ring, (MONO_ONE,))
        for cover in minimal_covers(self.supports()):
            prime = [1 << _W * f for f in _bit_positions(cover)]  # bit f: field f
            fields = sum(prime) * MAX_EXPONENT  # the exponent bits of P's variables
            products = []
            for b in power.gens:
                _check_deadline()
                r = max(n - mono_degree(b & fields), 0)
                products += (b + sum(m) for m in combinations_with_replacement(prime, r))
            power = MonomialIdeal.from_monomials(self.ring, products)
        return power


def _bit_positions(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _cover_bits(supports) -> tuple[int, list[int]]:
    """The minimal supports, their singletons split off: returns
    (ones, masks), in the supports' own bits.

    Duplicate supports and supports that contain another one are dropped:
    neither changes the ideal.  Of the minimal masks left, a singleton {y}
    shares no variable with another one, so its bit goes to `ones`, which
    every value type folds in as a factor, and the others, an antichain
    without singletons, are the input of `_pivot_recursion`.  The minimal
    masks come from `_minimal`, each mask its own monomial under guard 0, so
    they come out by popcount, then ascending, whatever the order of the
    supports.
    """
    masks = _minimal([(s.bit_count(), s, s) for s in supports], 0)
    if masks == [0]:  # the empty support divides every other one
        raise ValueError("empty support: ideal contains a unit")
    rest = [s for s in masks if s & (s - 1)]
    return sum(masks) - sum(rest), rest


_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def minimal_covers(supports) -> list[int]:
    """All minimal covers (minimal primes) of a set system, each once.

    Supports and covers are int bitmasks (for a monomial ideal, its
    `supports`, one bit per variable), the covers in the supports' own
    bits.  They are the third value type of `_pivot_recursion`, next to
    N(t) and (h, e): a list of cover masks.  A node with pairwise coprime
    supports takes one bit of each (`_coprime_covers`), and a split on x
    joins its children by
    Min(I) = {Y ∪ Q : Q ∈ Min(I : x less Y)} ⊔ {x ∪ Q : Q ∈ Min(J), Q misses
    some quotient s − x}, where J is the supports without x and Y the
    singleton quotients (`_join_covers`).  The supports go through
    `_cover_bits`, and the singletons' bits it splits off are ORed into
    every cover.  Covers come out by size, then by their ascending bits;
    computing their sort keys checks the budget once per cover.
    """
    ones, masks = _cover_bits(supports)
    covers = [ones | q for q in _pivot_recursion(masks, _coprime_covers, _join_covers)]
    nbytes = max(covers).bit_length() + 7 >> 3

    def key(c):
        # Of two covers of one size, the one holding the lowest bit that
        # only one of them has comes first: the larger bit-reversed mask.
        _check_deadline()
        reversed_c = int.from_bytes(c.to_bytes(nbytes, "little").translate(_REVERSED_BYTES), "big")
        return (c.bit_count() << 8 * nbytes) - reversed_c

    return sorted(covers, key=key)


# On in(I_3) of the generic 9x9 matrix the recursion visits 47k distinct
# subproblems; carrying (h, e) (`min_cover_size`) under the entry
# bound it peaks at 13.5 MB by tracemalloc, memo included.  A list of covers
# can hold thousands of them (in(I_3) of the generic 8x8 matrix has 226,512
# minimal primes), so the memo is also bounded by the items its values hold.
# The benchmark ladders visit far fewer.
_HILBERT_MEMO_ENTRIES = 1 << 14
_MEMO_ITEMS = 1 << 16


def _pivot_recursion(masks: list[int], base, join):
    """The value that Bigatti's pivot recursion gives the squarefree monomial
    ideal I with these minimal support masks, where `base` and `join`
    choose what a value is: the Hilbert series numerator N(t), its order
    and leading coefficient (h, e) at t = 1, or the list of minimal primes
    (covers) of I.  Each of the three value types (`_hilbert_numerator`,
    `min_cover_size`, `minimal_covers`) takes supports, calls `_cover_bits`
    once, runs this on the antichain without singletons it returns, and
    folds the singletons' bits into the result in its own way.  Pivots and
    covers are bits of the supports as given: for a monomial ideal, one bit
    per ring variable.

    A node whose supports are pairwise coprime takes `base(masks)`.  Any
    other node pivots on x, the variable in the most supports (ties to the
    highest bit), and takes `join(a, c, x, singles, wide)`: a is the value
    of J, the supports without x, so that I + (x) = J + (x); c is the value
    of the colon I : x less its singletons {y}, whose bits are `singles`;
    `wide` are the other quotients s - x.  One pass splits the supports:
    those with x form an antichain, so their quotients do too, and I : x
    keeps them and the supports without x that contain no quotient.  A
    singleton quotient {y} shares no variable with the rest of the colon,
    so it is left to `join` as a factor.  The minimal primes join by
    Min(I) = {Y ∪ Q : Q ∈ Min(I : x less Y)} ⊔ {x ∪ Q : Q ∈ Min(J), Q misses
    some quotient s − x}, Y the singletons: a minimal prime without x is
    one of I : x, and one with x is x and a minimal cover Q of J that
    leaves some support through x to x alone.  Subproblems repeat across
    the two branches, so their values are memoised for the call, keyed by
    their sorted masks; the memo starts over once it holds
    `_HILBERT_MEMO_ENTRIES` values or `_MEMO_ITEMS` items in them (the
    covers of a list, the coefficients of a numerator), which bounds its
    memory.
    """
    memo: dict = {}
    held = 0

    def rec(masks):
        nonlocal held
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
            value = join(a, rec(colon), x, singles, wide)
        held += len(value)
        if len(memo) >= _HILBERT_MEMO_ENTRIES or held > _MEMO_ITEMS:
            memo.clear()
            held = len(value)
        memo[key] = value
        return value

    return rec(masks)


def _coprime_covers(masks: list[int]) -> list[int]:
    """The minimal covers of pairwise coprime supports: one bit of each."""
    covers = [0]
    for s in masks:
        _check_deadline()
        bits = [1 << b for b in _bit_positions(s)]
        covers = [c | b for c in covers for b in bits]
    return covers


def _join_covers(a: list[int], c: list[int], x: int, singles: int, wide: list[int]) -> list[int]:
    """Min(I) from a = Min(J) and c = Min(I : x less its singletons): the
    covers of c with the singletons' bits, and x with each cover of a that
    misses some quotient, a singleton's bit or a whole wide one."""
    covers = [singles | q for q in c] if singles else c.copy()
    for q in a:
        if singles & ~q:
            covers.append(x | q)
            continue
        _check_deadline()
        for r in wide:
            if not r & q:
                covers.append(x | q)
                break
    return covers


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


def _join_numerators(a: list[int], c: list[int], x: int, singles: int,
                     wide: list[int]) -> list[int]:
    """N(I) = N(I + (x)) + t N(I : x) = (1 - t) A + t (1 - t)^k C, k the
    number of singletons."""
    c = _times_one_minus_t(c, singles.bit_count())
    # The coefficient of t^i is a_i - a_(i-1) + c_(i-1).
    return [p - q + r for p, q, r in zip_longest(a, [0] + a, [0] + c, fillvalue=0)]


def _hilbert_numerator(supports) -> list[int]:
    """Coefficients of N(t), where H(S/I, t) = N(t)/(1-t)^n for the
    squarefree monomial ideal I with these supports: `_pivot_recursion`
    with N(t) as its value, on the masks of `_cover_bits`, times a factor
    (1 - t) for each singleton it splits off."""
    ones, masks = _cover_bits(supports)
    num = _pivot_recursion(masks, _coprime_numerator, _join_numerators)
    return _times_one_minus_t(num, ones.bit_count())


def _coprime_lead(masks: list[int]) -> tuple[int, int]:
    """(h, e) of pairwise coprime supports: the product of the
    1 - t^d = u (d + O(u)) in u = 1 - t is u^m times the product of the d."""
    return len(masks), prod(s.bit_count() for s in masks)


def _join_leads(a: tuple[int, int], c: tuple[int, int], x: int, singles: int,
                wide: list[int]) -> tuple[int, int]:
    """(h, e) of (1 - t) A + t (1 - t)^k C, in u = 1 - t: u A + (1 - u) u^k C,
    k the number of singletons.

    Each e is the multiplicity of a proper quotient, so it is positive and
    the two leading terms never cancel: the lower order wins, and on a tie
    the leading coefficients add."""
    (ha, ea), (hc, ec) = a, c
    ha += 1
    hc += singles.bit_count()
    if ha != hc:
        return (ha, ea) if ha < hc else (hc, ec)
    return ha, ea + ec


def min_cover_size(supports) -> tuple[int, int]:
    """Exact minimum cover size, with the number of covers of that size: the
    height and multiplicity (h, e) of the squarefree monomial ideal with
    these supports, where its Hilbert series numerator is
    N(t) = (1 - t)^h Q(t) and e = Q(1).  They are the order and the leading
    coefficient of N in u = 1 - t, which `_pivot_recursion` carries in place
    of N itself, on the masks of `_cover_bits`; each singleton it splits
    off is a factor u of N and adds 1 to h.  `MonomialIdeal` keeps the
    pair, so that each of its cover searches is one call here."""
    ones, masks = _cover_bits(supports)
    h, e = _pivot_recursion(masks, _coprime_lead, _join_leads)
    return h + ones.bit_count(), e
