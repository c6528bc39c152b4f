"""Sparse exact polynomials with matrix-indexed variables.

Variables are interned once per session and ordered so that grid variables
run ``x[1,l] > ... > x[1,1] > x[2,l] > ... > x[k,1]``, auxiliaries above all
grid variables.  A monomial is one int.  A `Packing` (one per descending
tuple of variables, so one per ring) gives each variable an exponent field
of `FIELD_BITS` bits with a guard bit above it, the greatest variable in
the highest field.  Then plain int comparison *is* antidiagonal-lex (with
the auxiliaries on top, also an elimination order for them), multiplication
is ``+``, division and divisibility are one subtraction and a guard-mask
test, lcm is a SWAR max, and the support mask is one add-and-mask.  An
exponent that does not fit in its field raises `ExponentOverflow`; it never
carries into the next field.
"""

from __future__ import annotations

import math
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from numbers import Rational
from operator import getitem, lt
from weakref import WeakKeyDictionary, WeakValueDictionary

from .fields import QQ, Field
from .record import Record, set_field

# ---------------------------------------------------------------------------
# Time budgets


class InstanceTooLarge(RuntimeError):
    """A ladder row scan, minor enumeration, Groebner task, pivot recursion
    (heights, dimensions, minimal primes) or minor expansion exceeded its
    time budget, iteration cap or size cap."""


_deadline: ContextVar[float | None] = ContextVar("ladderdet_deadline", default=None)


@contextmanager
def time_limit(seconds: float | None):
    """Bound the wall-clock time of ladder row scans, minor enumerations,
    Groebner tasks, the pivot recursion of heights, dimensions and minimal
    primes, and minor expansions in the current context (a new thread starts
    without a limit).  None or inf sets no limit; NaN raises ValueError."""
    if seconds is not None and math.isnan(seconds):
        raise ValueError("time budget must be a number of seconds, not NaN")
    token = _deadline.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def _current_deadline() -> float | None:
    """The `time.monotonic()` reading past which the current context's
    budget has run out, or None: for a loop that compares it inline, as
    `groebner.Reducer.remainders` does per term, and calls
    `_check_deadline` to raise."""
    return _deadline.get()


def _check_deadline():
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() > deadline:
        raise InstanceTooLarge("instance too large: time budget exceeded")


# ---------------------------------------------------------------------------
# Variables

_GRID: dict[tuple[int, int], "Variable"] = {}
_AUX: dict[tuple[str, int], "Variable"] = {}


class Variable:
    """A grid-cell variable x[i,j] or an auxiliary (elimination) variable.

    Auxiliaries sort strictly above every grid variable; grid variables
    follow the antidiagonal-lex convention (row-major, columns descending
    within a row).  Instances are interned: construct via `grid_var` /
    `aux_var`.
    """

    __slots__ = ("kind", "i", "j", "name", "rank", "key")

    def __init__(self, kind, i=None, j=None, name=None, rank=0):
        self.kind = kind
        self.i = i
        self.j = j
        self.name = name
        self.rank = rank
        # Bigger key == greater variable.  Aux keys carry the name so
        # distinct auxiliaries never collide; the leading 1 keeps every
        # auxiliary above every grid variable.
        self.key = (1, rank, name) if kind == "aux" else (0, -i, j)

    @property
    def is_aux(self) -> bool:
        return self.kind == "aux"

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.kind == "aux":
            return self.name if self.rank == 0 else f"{self.name}[{self.rank}]"
        return f"x[{self.i},{self.j}]"


def grid_var(i: int, j: int) -> Variable:
    """The generic-matrix entry x[i,j] (1-based, interned): one dict lookup
    once the cell is interned.  Only valid cells are ever interned, so the
    indices are checked on a miss."""
    v = _GRID.get((i, j))
    if v is None:
        if i < 1 or j < 1:
            raise ValueError(f"grid indices are 1-based: ({i},{j})")
        # setdefault keeps interning atomic under concurrent first use
        v = _GRID.setdefault((i, j), Variable("grid", i=i, j=j))
    return v


def aux_var(name: str = "t", rank: int = 0) -> Variable:
    """An auxiliary variable sorting above all grid variables (interned)."""
    v = _AUX.get((name, rank))
    if v is None:
        v = _AUX.setdefault((name, rank), Variable("aux", name=name, rank=rank))
    return v


# ---------------------------------------------------------------------------
# Packed monomials

FIELD_BITS = 8
MAX_EXPONENT = (1 << FIELD_BITS) - 1
_W = FIELD_BITS + 1  # field width: exponent bits plus the guard bit
_FIELD = (1 << _W) - 1
# The degree sums pairs of fields in 2 * _W bits, exact while the degree
# stays below 2^(2 * _W) - 1, which this many variables guarantee.
MAX_VARIABLES = 1024
_PAIR_MOD = (1 << 2 * _W) - 1
_EVEN_FIELDS = ((1 << 2 * _W * (MAX_VARIABLES // 2)) - 1) // _PAIR_MOD * _FIELD
_HIGH_BITS = ((1 << _W * MAX_VARIABLES) - 1) // _FIELD * (MAX_EXPONENT - 1)

MONO_ONE = 0


class ExponentOverflow(ValueError):
    """An exponent does not fit in the field of a packed monomial."""


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"exponent above {MAX_EXPONENT}: a packed monomial holds "
                            f"exponents up to {MAX_EXPONENT} per variable")


def check_variable_count(n: int) -> None:
    """Refuse a ring of n variables when n is above `MAX_VARIABLES`."""
    if n > MAX_VARIABLES:
        raise InstanceTooLarge(f"instance too large: a ring holds at most {MAX_VARIABLES} "
                               f"variables, got {n}")


@cache
def _ones(n: int) -> int:
    """The int with a 1 at the bottom of each of n fields."""
    return ((1 << _W * n) - 1) // _FIELD


class Packing:
    """The exponent fields of the monomials over one descending tuple of
    variables: the last variable takes bits 0-8, the one before it bits
    9-17, and so on up to the greatest.  Build one with `packing_of`.

    `guard` has the guard bit of every field, `low` the exponent bits, so
    ``(m + low) & guard`` is the support mask of m, and a monomial is valid
    exactly when ``m & guard`` is 0.
    """

    __slots__ = ("variables", "shift", "guard", "low", "_into", "_joins", "__weakref__")

    def __init__(self, variables: tuple[Variable, ...]):
        n = len(variables)
        check_variable_count(n)
        self.variables = variables
        self.shift = {v: _W * (n - 1 - i) for i, v in enumerate(variables)}
        ones = _ones(n)
        self.guard = ones << FIELD_BITS
        self.low = ones * MAX_EXPONENT
        # Memos keyed weakly, so that re-packing into a packing or joining
        # with one does not keep it alive.
        self._into = WeakKeyDictionary()   # target -> (missing fields, moves or None)
        self._joins = WeakKeyDictionary()  # other packing -> packing of the union

    def pack(self, pairs) -> int:
        """The monomial of (Variable, exponent) pairs; ValueError on a
        variable outside the packing or a negative exponent, and
        `ExponentOverflow` on an exponent above `MAX_EXPONENT`."""
        exps: dict = {}
        for v, e in pairs:
            if e < 0:
                raise ValueError("negative exponent")
            exps[v] = exps.get(v, 0) + e
        m = 0
        for v, e in exps.items():
            if not e:
                continue
            if e > MAX_EXPONENT:
                raise _overflow()
            try:
                m |= e << self.shift[v]
            except KeyError:
                raise ValueError(f"variable {v} lies outside the ring") from None
        return m

    def variables_of(self, mask: int) -> list[Variable]:
        """The variables whose field holds a set bit of `mask`, greatest first."""
        n = len(self.variables)
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(self.variables[n - 1 - top // _W])
            mask &= ~(_FIELD << top // _W * _W)
        return out

    def _moves(self, target: "Packing"):
        """(missing, moves) for re-packing into `target`: the fields of
        variables that `target` lacks, and the (shift, mask, shift) block
        moves, or None when the fields already sit where `target` has them."""
        got = self._into.get(target)
        if got is None:
            missing, runs = 0, []
            for i, v in enumerate(reversed(self.variables)):
                src, dst = _W * i, target.shift.get(v)
                if dst is None:
                    missing |= _FIELD << src
                elif runs and runs[-1][0] + runs[-1][1] == src and runs[-1][2] + runs[-1][1] == dst:
                    runs[-1][1] += _W
                else:
                    runs.append([src, _W, dst])
            if not missing and (not runs or (len(runs) == 1 and runs[0][0] == runs[0][2] == 0)):
                moves = None
            else:
                moves = tuple((src, (1 << width) - 1, dst) for src, width, dst in runs)
            got = self._into[target] = (missing, moves)
        return got

    def __repr__(self):
        return f"Packing({len(self.variables)} vars)"


_PACKINGS: "WeakValueDictionary[tuple, Packing]" = WeakValueDictionary()


def _packing(variables: tuple[Variable, ...]) -> Packing:
    """The packing of a tuple of distinct variables in descending order."""
    p = _PACKINGS.get(variables)
    if p is None:
        p = _PACKINGS.setdefault(variables, Packing(variables))
    return p


def packing_of(variables) -> Packing:
    """The packing of a set of variables (the ring of exactly these)."""
    return _packing(tuple(sorted(set(variables), key=_var_key, reverse=True)))


def _var_key(v: Variable):
    return v.key


def join_packings(a: Packing, b: Packing) -> Packing:
    """The packing of the union of the variables of a and b."""
    if a is b or not b.variables:
        return a
    if not a.variables:
        return b
    j = a._joins.get(b)
    if j is None:
        j = a._joins[b] = packing_of(a.variables + b.variables)
    return j


NO_VARIABLES = _packing(())


class Monomial:
    """A packed monomial together with the packing it is read in: the form a
    monomial takes outside a ring.  Equal when the exponents are, whatever
    the packings."""

    __slots__ = ("variables", "value", "_packing")

    def __init__(self, packing: Packing, value: int):
        self.variables = packing.variables
        self.value = value
        self._packing = packing

    @classmethod
    def _of(cls, variables: tuple[Variable, ...], value: int) -> "Monomial":
        """The monomial `value` over descending `variables`, whose packing is
        only built when asked for."""
        m = cls.__new__(cls)
        m.variables, m.value, m._packing = variables, value, None
        return m

    @property
    def packing(self) -> Packing:
        if self._packing is None:
            self._packing = _packing(self.variables)
        return self._packing

    def packed_in(self, target: Packing) -> int:
        """The same monomial packed in `target`; ValueError when it uses a
        variable that `target` lacks."""
        if self._packing is target:
            return self.value
        shift, value, out = target.shift, self.value, 0
        for v in reversed(self.variables):  # the lowest field first
            e = value & _FIELD
            if e:
                at = shift.get(v)
                if at is None:
                    raise ValueError(f"monomial uses variable {v} outside the ring")
                out |= e << at
            value >>= _W
        return out

    def exponents(self) -> list[tuple[Variable, int]]:
        n, value = len(self.variables), self.value
        return [(v, e) for i, v in enumerate(self.variables)
                if (e := value >> _W * (n - 1 - i) & _FIELD)]

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.variables == other.variables:
            return self.value == other.value
        return self.exponents() == other.exponents()

    def __hash__(self):
        return hash(tuple((v.key, e) for v, e in self.exponents()))

    def __str__(self):
        return "1" if not self.value else "*".join(
            str(v) if e == 1 else f"{v}^{e}" for v, e in self.exponents())

    __repr__ = __str__


def mono(*pairs) -> Monomial:
    """The monomial of (Variable, exponent) pairs, packed in the ring of its
    own variables."""
    packing = packing_of(v for v, e in pairs if e)
    return Monomial(packing, packing.pack(pairs))


# The four operations the Groebner core calls through the module; `guard`
# is the guard mask of the packing of the arguments.


def mono_mul(a: int, b: int) -> int:
    """a * b.  A product past an exponent field sets its guard bit, which
    the caller checks; two valid monomials never carry across fields."""
    return a + b


def mono_div(a: int, b: int, guard: int):
    """a / b, or None when b does not divide a."""
    d = a - b
    return None if d & guard else d


def mono_divides(b: int, a: int, guard: int) -> bool:
    """True when b | a: no field of a - b borrows."""
    return not (a - b) & guard


def mono_lcm(a: int, b: int, guard: int) -> int:
    """lcm(a, b): the fieldwise max of the exponents."""
    ge = ((a | guard) - b) & guard   # guard bits of the fields where a >= b
    ge -= ge >> FIELD_BITS            # those fields' exponent bits
    return b ^ ((a ^ b) & ge)


def mono_degree(a: int) -> int:
    """Total degree: adjacent fields summed in pairs, then the pair sums
    summed by a modulus of the form 2^k - 1."""
    return ((a & _EVEN_FIELDS) + (a >> _W & _EVEN_FIELDS)) % _PAIR_MOD


def mono_is_squarefree(a: int) -> bool:
    return not a & _HIGH_BITS


def mono_max_exponent(a: int) -> int:
    top = 0
    while a:
        top = max(top, a & _FIELD)
        a >>= _W
    return top


def mono_mask(a: int, packing: Packing) -> int:
    """Support mask: the guard bit of each variable of `a`.

    b | a needs ``mono_mask(b) & ~mono_mask(a) == 0``, and a, b are coprime
    exactly when ``mono_mask(a) & mono_mask(b) == 0``.
    """
    return (a + packing.low) & packing.guard


def mono_radical(a: int, packing: Packing) -> int:
    return mono_mask(a, packing) >> FIELD_BITS


def mono_pow(a: int, n: int, guard: int) -> int:
    """a^n; `ExponentOverflow` when an exponent times n passes the field."""
    if n and (a + (MAX_EXPONENT - MAX_EXPONENT // n) * (guard >> FIELD_BITS)) & guard:
        raise _overflow()
    return a * n


# ---------------------------------------------------------------------------
# Polynomials


def _check_fields(monos, guard: int) -> None:
    """`ExponentOverflow` when a monomial has passed an exponent field."""
    for m in monos:
        if m & guard:
            raise _overflow()


class Polynomial:
    """Immutable sparse polynomial over QQ or GF(p): a dict from packed
    monomials to nonzero coefficients, with the packing they are read in.
    Each coefficient is in its exact form (`Field`): over QQ an int when it
    is integral and a Fraction otherwise, mod p an int in [0, p).

    Equality and hashing do not depend on the packing; arithmetic on two
    packings works in the packing of their joint variables.
    """

    __slots__ = ("field", "terms", "packing", "_hash")

    def __init__(self, field: Field, terms: dict, packing: Packing):
        self.field = field
        self.terms = terms
        self.packing = packing
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, {}, NO_VARIABLES)

    @classmethod
    def constant(cls, field: Field, c) -> "Polynomial":
        c = field.coerce(c)
        return cls(field, {MONO_ONE: c} if c else {}, NO_VARIABLES)

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls.constant(field, 1)

    @classmethod
    def variable(cls, field: Field, v: Variable) -> "Polynomial":
        return cls(field, {1: 1}, _packing((v,)))

    @classmethod
    def from_terms(cls, field: Field, items, packing: Packing) -> "Polynomial":
        """Sum of (monomial of `packing`, coefficient) pairs."""
        terms = {}
        for m, c in items:
            c = field.add(terms.get(m, 0), field.coerce(c))
            if c:
                terms[m] = c
            elif m in terms:
                del terms[m]
        return cls(field, terms, packing)

    # -- basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def leading_term(self):
        """(monomial, coefficient) of the maximal term; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, self.terms[m]

    def sorted_terms(self):
        """Terms sorted decreasingly (canonical iteration)."""
        return [(m, self.terms[m]) for m in sorted(self.terms, reverse=True)]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term()
        if c == 1:
            return self
        div = self.field.div
        return Polynomial(self.field, {m: div(v, c) for m, v in self.terms.items()},
                          self.packing)

    # -- packings

    def repack(self, packing: Packing) -> "Polynomial":
        """The same polynomial with its monomials packed in `packing`;
        ValueError when it uses a variable that `packing` lacks."""
        if self.packing is packing:
            return self
        missing, moves = self.packing._moves(packing)
        terms = self.terms
        if missing and any(m & missing for m in terms):
            raise ValueError(f"polynomial uses variables outside the ring: {self}")
        if moves is not None:
            new = {}
            for m, c in terms.items():
                out = 0
                for src, mask, dst in moves:
                    out |= (m >> src & mask) << dst
                new[out] = c
            terms = new
        return Polynomial(self.field, terms, packing)

    def _canonical(self) -> "Polynomial":
        """This polynomial packed in the ring of exactly its own variables."""
        packing = self.packing
        support = 0
        for m in self.terms:
            support |= m
        own = _packing(tuple(packing.variables_of(mono_mask(support, packing))))
        return self.repack(own)

    def _aligned(self, other: "Polynomial"):
        packing = join_packings(self.packing, other.packing)
        return self.repack(packing), other.repack(packing)

    # -- arithmetic

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise ValueError(f"mixed coefficient fields: {self.field} vs {other.field}")
            return other
        return Polynomial.constant(self.field, other)

    def __add__(self, other):
        other = self._coerce_other(other)
        if other.packing is not self.packing:
            return Polynomial.__add__(*self._aligned(other))
        field = self.field
        terms = dict(self.terms)
        add = field.add
        for m, c in other.terms.items():
            v = add(terms.get(m, 0), c)
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return Polynomial(field, terms, self.packing)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Polynomial(self.field, {m: neg(c) for m, c in self.terms.items()}, self.packing)

    def __sub__(self, other):
        return self + (-self._coerce_other(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.field.coerce(other)
            if not c:
                return Polynomial.zero(self.field)
            mul = self.field.mul
            return Polynomial(self.field, {m: mul(v, c) for m, v in self.terms.items()},
                              self.packing)
        other = self._coerce_other(other)
        if other.packing is not self.packing:
            return Polynomial.__mul__(*self._aligned(other))
        field = self.field
        p = field.p
        acc: dict = {}
        a_items = list(self.terms.items())
        b_items = list(other.terms.items())
        if len(a_items) > len(b_items):
            a_items, b_items = b_items, a_items
        if p is None:
            for ma, ca in a_items:
                _check_deadline()
                for mb, cb in b_items:
                    m = ma + mb
                    v = acc.get(m)
                    acc[m] = ca * cb if v is None else v + ca * cb
            coerce = field.coerce
            terms = {m: c if type(c) is int else coerce(c) for m, c in acc.items() if c}
        else:
            for ma, ca in a_items:
                _check_deadline()
                for mb, cb in b_items:
                    m = ma + mb
                    acc[m] = acc.get(m, 0) + ca * cb
            terms = {m: c % p for m, c in acc.items() if c % p}
        _check_fields(terms, self.packing.guard)
        return Polynomial(field, terms, self.packing)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def mul_term(self, m: int, c) -> "Polynomial":
        """Multiply by the single term c*m (m packed like this polynomial)."""
        c = self.field.coerce(c)
        if not c:
            return Polynomial.zero(self.field)
        mul = self.field.mul
        terms = {tm + m: mul(tc, c) for tm, tc in self.terms.items()}
        _check_fields(terms, self.packing.guard)
        return Polynomial(self.field, terms, self.packing)

    # -- comparisons

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, Rational):
                return NotImplemented
            if self.terms and (len(self.terms) > 1 or MONO_ONE not in self.terms):
                return False
            try:
                c = self.field.coerce(other)
            except ValueError:  # a rational with no image in GF(p), as 1/3 in GF(3)
                return False
            return self.terms.get(MONO_ONE, 0) == c
        if self.field != other.field or len(self.terms) != len(other.terms):
            return False
        if self.packing is other.packing:
            return self.terms == other.terms
        a, b = self._canonical(), other._canonical()
        return a.packing is b.packing and a.terms == b.terms

    def __hash__(self):
        if self._hash is None:
            own = self._canonical()
            self._hash = hash((self.field, tuple(v.key for v in own.packing.variables),
                               frozenset(own.terms.items())))
        return self._hash

    def __repr__(self):
        return poly_to_str(self)


# ---------------------------------------------------------------------------
# Minors


class Minor(Record):
    """A determinant of the submatrix on `rows` x `cols` (1-based, increasing)."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple[int, ...], cols: tuple[int, ...]):
        if type(rows) is not tuple:
            rows = tuple(rows)
        if type(cols) is not tuple:
            cols = tuple(cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError(f"minor needs equally many rows and cols: {rows}|{cols}")
        if not (all(map(lt, rows, rows[1:])) and all(map(lt, cols, cols[1:]))):
            raise ValueError(f"minor indices must strictly increase: {rows}|{cols}")
        if rows[0] < 1 or cols[0] < 1:
            raise ValueError("minor indices are 1-based")
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols))

    @property
    def size(self) -> int:
        return len(self.rows)

    def cells(self):
        return [(i, j) for i in self.rows for j in self.cols]

    def antidiagonal_cells(self):
        return list(zip(self.rows, reversed(self.cols)))

    def antidiagonal_monomial(self) -> Monomial:
        """The product of the antidiagonal, in the ring of its own variables
        (rows go down as columns go left, so the cells come greatest first)."""
        variables = tuple(map(_GRID.get, zip(self.rows, reversed(self.cols))))
        if None in variables:  # a cell whose variable is not interned yet
            variables = tuple(grid_var(i, j) for i, j in zip(self.rows, reversed(self.cols)))
        return Monomial._of(variables, _ones(len(variables)))

    def __str__(self):
        r = "".join(str(i) for i in self.rows) if max(self.rows + self.cols) < 10 else ",".join(map(str, self.rows))
        c = "".join(str(j) for j in self.cols) if max(self.rows + self.cols) < 10 else ",".join(map(str, self.cols))
        return f"[{r}|{c}]"


# Minors up to this size read their permutations and parities from one
# cached table of 6! pairs at most (`_leibniz`); a larger one is a Laplace
# sum along its first row, down to blocks of this size.
_LEIBNIZ_BLOCK = 6


@cache
def _leibniz(n: int) -> tuple:
    """The (permutation, parity) pairs of `permutations(range(n))`, in
    order.  A permutation that starts with k has k inversions with its first
    entry, and its other entries run through the permutations of the rest
    in order."""
    if not n:
        return (((), 0),)
    return tuple(((k, *[c + (c >= k) for c in perm]), odd ^ (k & 1))
                 for k in range(n) for perm, odd in _leibniz(n - 1))


def _determinant(bit: list, sign: tuple, base: int = 0) -> dict:
    """The terms of `base` times the determinant of the matrix of cell bits
    `bit`, with the signs `sign` (even, odd), in the order of
    `permutations(range(len(bit)))`.  A block of at most `_LEIBNIZ_BLOCK`
    rows reads `_leibniz` and checks the `time_limit` deadline once, before
    its first term; a larger one is the Laplace sum along its first row."""
    n = len(bit)
    if n <= _LEIBNIZ_BLOCK:
        _check_deadline()
        return {sum(map(getitem, bit, perm), base): sign[odd] for perm, odd in _leibniz(n)}
    terms = {}
    first, rest, flipped = bit[0], bit[1:], sign[::-1]
    for j in range(n):
        terms |= _determinant([row[:j] + row[j + 1:] for row in rest],
                              flipped if j & 1 else sign, base + first[j])
    return terms


def expand_minor(m: Minor, field: Field = QQ, packing: Packing | None = None) -> Polynomial:
    """Signed Leibniz expansion of the minor as a polynomial, packed in
    `packing` (one with every cell of the minor), by default in the ring of
    the minor's cells.  Each cell's bit is read off its interned variable's
    shift, and the signs 1 and -1 are written in the field's form from
    `field.p`.  The terms come in the order of `permutations`, from
    `_determinant`.
    """
    rows, cols = m.rows, m.cols
    if packing is None:
        # Row by row, columns right to left: the cells in descending order.
        packing = _packing(tuple(grid_var(i, j) for i in rows for j in reversed(cols)))
    shift = packing.shift
    try:  # a cell that is not interned has no variable in any packing
        bit = [[1 << shift[_GRID[i, j]] for j in cols] for i in rows]
    except KeyError:
        raise ValueError(f"minor {m} has cells outside the ring") from None
    p = field.p
    sign = (1, -1 if p is None else p - 1)
    return Polynomial(field, _determinant(bit, sign), packing)


# ---------------------------------------------------------------------------
# Canonical textual format: `3*x[1,2]^2*x[3,1] - t + 1/4`, auxiliaries by
# name, one of rank r >= 1 as `name[r]` (`t[1]`).  A polynomial is terms
# joined by ` + ` and ` - ` (the first may carry `-`); a term is factors
# joined by `*`; a factor is an integer, a fraction `a/b`, or `x[i,j]` or a
# name `[A-Za-z_][A-Za-z_0-9]*` with an optional rank `[r]`, the variable
# optionally raised to `^n`.  `parse_polynomial` reads exactly this grammar,
# with spaces allowed around any token.


def mono_to_str(m: int, packing: Packing) -> str:
    return str(Monomial(packing, m))


def poly_to_str(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    out = []
    for m, c in f.sorted_terms():
        sign = ""
        if f.field.p is None and c < 0:
            sign, c = "-", -c
        body = mono_to_str(m, f.packing)
        if body == "1":
            body = str(c)
        elif c != 1:
            body = f"{c}*{body}"
        if not out:
            out.append(f"-{body}" if sign else body)
        else:
            out.append(f"- {body}" if sign else f"+ {body}")
    return " ".join(out)


_FACTOR = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)"
    r"|(?:x\[\s*(?P<i>[0-9]+)\s*,\s*(?P<j>[0-9]+)\s*\]"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\s*\[\s*(?P<rank>[0-9]+)\s*\])?)"
    r"(?:\s*\^\s*(?P<exp>[0-9]+))?)\s*"
)
_SIGN = re.compile(r"([+-])")


def parse_polynomial(text: str, field: Field = QQ) -> Polynomial:
    """Parse the grammar `poly_to_str` prints into the ring of the variables
    it uses: terms joined by ``+`` or ``-`` (the first may carry a sign),
    each a ``*``-product of factors, each an integer, a fraction ``a/b``, or
    ``x[i,j]`` or a name, which may carry a rank ``name[r]`` (the auxiliary
    ``aux_var(name, r)``), the variable optionally raised to ``^n``.  Spaces
    may surround any token.  Coefficients multiply in the rationals and are
    coerced into `field`; a repeated variable adds its exponents.  Any other
    text raises ValueError naming the factor it could not read."""
    if not isinstance(text, str):
        raise ValueError(f"a polynomial is a string, got {text!r}")
    head, *rest = _SIGN.split(text)
    signed = list(zip(rest[::2], rest[1::2]))
    if head.strip() or not signed:
        signed.insert(0, ("+", head))
    terms: list[tuple[list, object]] = []
    for sign, term in signed:
        coeff, factors = -1 if sign == "-" else 1, []
        for factor in term.split("*"):
            mt = _FACTOR.fullmatch(factor)
            if mt is None:
                what = f"cannot read factor {factor.strip()!r}" if factor.strip() else "empty factor"
                raise ValueError(f"bad polynomial {text!r}: {what}")
            if mt["num"]:
                coeff = QQ.mul(coeff, QQ.coerce(mt["num"]))
            else:
                v = (aux_var(mt["name"], int(mt["rank"] or 0)) if mt["name"]
                     else grid_var(int(mt["i"]), int(mt["j"])))
                factors.append((v, int(mt["exp"] or 1)))
        terms.append((factors, coeff))
    packing = packing_of(v for factors, _ in terms for v, e in factors if e)
    return Polynomial.from_terms(field, ((packing.pack(factors), c) for factors, c in terms),
                                 packing)


def parse_polynomials(texts, field: Field = QQ) -> list[Polynomial]:
    """Parse a list of polynomial strings, as held in a JSON array."""
    if not isinstance(texts, list):
        raise ValueError(f"expected a list of polynomial strings, got {texts!r}")
    return [parse_polynomial(text, field) for text in texts]
