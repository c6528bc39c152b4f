"""Sparse exact polynomials with matrix-indexed variables and term orders.

Variables are interned once per session.  A monomial is a tuple of
``(variable_key, exponent)`` pairs sorted with the greatest variable first;
the keys are built so that native tuple comparison of two monomials *is*
the antidiagonal-lex comparison (grid variables ordered
``x[1,l] > ... > x[1,1] > x[2,l] > ... > x[k,1]``, auxiliaries above all
grid variables).  That keeps the hot Groebner loops on C-speed tuple
compares.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import count, permutations

from .fields import GF, QQ, Field

# ---------------------------------------------------------------------------
# Time budgets


class InstanceTooLarge(RuntimeError):
    """A ladder cell scan, minor enumeration, Groebner task, height/dimension
    recursion, minimal-prime search or minor expansion exceeded its time
    budget, iteration cap or size cap."""


_deadline: ContextVar[float | None] = ContextVar("ladderdet_deadline", default=None)


@contextmanager
def time_limit(seconds: float | None):
    """Bound the wall-clock time of ladder cell scans, minor enumerations,
    Groebner tasks, the height/dimension recursion, minimal-prime searches
    and minor expansions in the current context (a new thread starts
    without a limit)."""
    token = _deadline.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def _check_deadline():
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() > deadline:
        raise InstanceTooLarge("instance too large: time budget exceeded")


# ---------------------------------------------------------------------------
# Variables

_GRID: dict[tuple[int, int], "Variable"] = {}
_AUX: dict[tuple[str, int], "Variable"] = {}
_BY_KEY: dict[tuple, "Variable"] = {}
_BIT: dict[tuple, int] = {}  # variable key -> its support-mask bit
_BIT_INDEX = count()  # next() is atomic, so racing interners never share a bit


class Variable:
    """A grid-cell variable x[i,j] or an auxiliary (elimination) variable.

    Auxiliaries sort strictly above every grid variable; grid variables
    follow the antidiagonal-lex convention (row-major, columns descending
    within a row).  Instances are interned: construct via `grid_var` /
    `aux_var`.  Each interned variable owns one bit of the support masks
    (`mono_mask`).
    """

    __slots__ = ("kind", "i", "j", "name", "rank", "key")

    def __init__(self, kind, i=None, j=None, name=None, rank=0):
        self.kind = kind
        self.i = i
        self.j = j
        self.name = name
        self.rank = rank
        # Bigger key == greater variable; native tuple order does the rest.
        # Aux keys carry the name so distinct auxiliaries never collide;
        # the leading 1 keeps every auxiliary above every grid variable.
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
            return self.name if self.rank == 0 else f"{self.name}{self.rank}"
        return f"x[{self.i},{self.j}]"


def _intern(table: dict, ident, make) -> Variable:
    v = table.get(ident)
    if v is None:
        # setdefault keeps interning atomic under concurrent first use
        v = table.setdefault(ident, make())
        _BY_KEY.setdefault(v.key, v)
        _BIT.setdefault(v.key, 1 << next(_BIT_INDEX))
    return v


def grid_var(i: int, j: int) -> Variable:
    """The generic-matrix entry x[i,j] (1-based, interned)."""
    if i < 1 or j < 1:
        raise ValueError(f"grid indices are 1-based: ({i},{j})")
    return _intern(_GRID, (i, j), lambda: Variable("grid", i=i, j=j))


def aux_var(name: str = "t", rank: int = 0) -> Variable:
    """An auxiliary variable sorting above all grid variables."""
    return _intern(_AUX, (name, rank), lambda: Variable("aux", name=name, rank=rank))


def var_by_key(key) -> Variable:
    return _BY_KEY[key]


# ---------------------------------------------------------------------------
# Monomials: tuple[(key, exp), ...], greatest variable first, no zero exps.

MONO_ONE: tuple = ()


def mono(*pairs) -> tuple:
    """Build a monomial from (Variable, exponent) pairs."""
    acc = {}
    for v, e in pairs:
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            acc[v.key] = acc.get(v.key, 0) + e
    return tuple(sorted(acc.items(), reverse=True))


def mono_from_vars(variables) -> tuple:
    return mono(*((v, 1) for v in variables))


def mono_mul(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka == kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
        elif ka > kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: tuple, b: tuple):
    """a / b, or None when b does not divide a."""
    if not b:
        return a
    out = []
    i = 0
    na = len(a)
    for kb, eb in b:
        while i < na and a[i][0] > kb:
            out.append(a[i])
            i += 1
        if i >= na or a[i][0] != kb or a[i][1] < eb:
            return None
        if a[i][1] > eb:
            out.append((kb, a[i][1] - eb))
        i += 1
    out.extend(a[i:])
    return tuple(out)


def mono_divides(b: tuple, a: tuple) -> bool:
    """True when b | a."""
    i = 0
    na = len(a)
    for kb, eb in b:
        while i < na and a[i][0] > kb:
            i += 1
        if i >= na or a[i][0] != kb or a[i][1] < eb:
            return False
        i += 1
    return True


def mono_lcm(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka == kb:
            out.append((ka, ea if ea >= eb else eb))
            i += 1
            j += 1
        elif ka > kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(a: tuple) -> int:
    return sum(e for _, e in a)


def mono_is_squarefree(a: tuple) -> bool:
    return all(e == 1 for _, e in a)


def mono_radical(a: tuple) -> tuple:
    return tuple((k, 1) for k, _ in a)


def mono_pow(a: tuple, n: int) -> tuple:
    if n == 0:
        return MONO_ONE
    return tuple((k, e * n) for k, e in a)


def mono_mask(a: tuple) -> int:
    """Support mask: the OR of the bits of the variables in `a`.

    b | a needs ``mono_mask(b) & ~mono_mask(a) == 0``, and a, b are coprime
    exactly when ``mono_mask(a) & mono_mask(b) == 0``.
    """
    mask = 0
    for k, _ in a:
        mask |= _BIT[k]
    return mask


def mono_has_aux(a: tuple) -> bool:
    # aux keys start with 1 and sort first
    return bool(a) and a[0][0][0] == 1


# ---------------------------------------------------------------------------
# Term orders


@dataclass(frozen=True)
class TermOrder:
    """antidiagonal-lex, graded reverse lex, or an elimination block order.

    ``elim`` compares the auxiliary-variable block lexicographically first,
    then the grid part under antidiagonal-lex; auxiliaries always sit above
    the grid.

    `is_native` is true when monomial tuples compare natively under the
    order, so that `key` is the identity.  That holds for antidiagonal-lex
    and for ``elim``: aux keys sort above every grid key, so lex on the aux
    block, then lex on the grid part, is plain lex on the whole monomial.
    """

    kind: str  # "antidiag-lex" | "grevlex" | "elim"
    is_native: bool = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("antidiag-lex", "grevlex", "elim"):
            raise ValueError(f"unknown term order kind: {self.kind}")
        object.__setattr__(self, "is_native", self.kind != "grevlex")

    def key(self, m: tuple):
        return m if self.is_native else _grevlex_key(m)

    def __str__(self):
        return "elim(antidiag-lex)" if self.kind == "elim" else self.kind


def _grevlex_key(m: tuple):
    deg = 0
    rev = []
    for k, e in reversed(m):
        deg += e
        rev.append((k, -e))
    return (deg, tuple(rev))


ANTIDIAG = TermOrder("antidiag-lex")
GREVLEX = TermOrder("grevlex")
ELIM = TermOrder("elim")

_ORDER_NAMES = {"antidiag": ANTIDIAG, "antidiag-lex": ANTIDIAG, "grevlex": GREVLEX}


def parse_order(name: str) -> TermOrder:
    try:
        return _ORDER_NAMES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown term order: {name!r}") from None


def compare_monomials(order: TermOrder, a: tuple, b: tuple) -> int:
    """Total comparison under `order`: -1, 0 or 1.

    Monomials over the session's interned variables are always comparable;
    mixing variable universes cannot arise by construction.
    """
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


# ---------------------------------------------------------------------------
# Polynomials


class Polynomial:
    """Immutable sparse polynomial over QQ or GF(p)."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        self.terms = terms
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, {})

    @classmethod
    def constant(cls, field: Field, c) -> "Polynomial":
        c = field.coerce(c)
        return cls(field, {MONO_ONE: c} if c else {})

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls.constant(field, 1)

    @classmethod
    def variable(cls, field: Field, v: Variable) -> "Polynomial":
        return cls(field, {((v.key, 1),): field.one})

    @classmethod
    def from_terms(cls, field: Field, items) -> "Polynomial":
        terms = {}
        for m, c in items:
            c = field.add(terms.get(m, field.zero), field.coerce(c))
            if c:
                terms[m] = c
            elif m in terms:
                del terms[m]
        return cls(field, terms)

    # -- basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def leading_term(self, order: TermOrder = ANTIDIAG):
        """(monomial, coefficient) of the maximal term; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms) if order.is_native else max(self.terms, key=order.key)
        return m, self.terms[m]

    def sorted_terms(self, order: TermOrder = ANTIDIAG):
        """Terms sorted decreasingly under `order` (canonical iteration)."""
        keys = sorted(self.terms, key=order.key, reverse=True)
        return [(m, self.terms[m]) for m in keys]

    def monic(self, order: TermOrder = ANTIDIAG) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading_term(order)
        if c == self.field.one:
            return self
        inv = self.field.inv(c)
        mul = self.field.mul
        return Polynomial(self.field, {m: mul(v, inv) for m, v in self.terms.items()})

    def reduce_mod(self, p: int) -> "Polynomial":
        """Image in GF(p) of a rational polynomial with p-integral coefficients."""
        f = GF(p)
        return Polynomial.from_terms(f, self.terms.items())

    # -- arithmetic

    def _coerce_other(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise ValueError(f"mixed coefficient fields: {self.field} vs {other.field}")
            return other
        return Polynomial.constant(self.field, other)

    def __add__(self, other):
        other = self._coerce_other(other)
        field = self.field
        terms = dict(self.terms)
        add = field.add
        for m, c in other.terms.items():
            v = add(terms.get(m, field.zero), c)
            if v:
                terms[m] = v
            elif m in terms:
                del terms[m]
        return Polynomial(field, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Polynomial(self.field, {m: neg(c) for m, c in self.terms.items()})

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
            return Polynomial(self.field, {m: mul(v, c) for m, v in self.terms.items()})
        other = self._coerce_other(other)
        field = self.field
        p = field.p
        acc: dict = {}
        a_items = list(self.terms.items())
        b_items = list(other.terms.items())
        if len(a_items) > len(b_items):
            a_items, b_items = b_items, a_items
        if p is None:
            for ma, ca in a_items:
                for mb, cb in b_items:
                    m = mono_mul(ma, mb)
                    v = acc.get(m)
                    acc[m] = ca * cb if v is None else v + ca * cb
            return Polynomial(field, {m: c for m, c in acc.items() if c})
        for ma, ca in a_items:
            for mb, cb in b_items:
                m = mono_mul(ma, mb)
                v = acc.get(m, 0) + ca * cb
                acc[m] = v
        return Polynomial(field, {m: c % p for m, c in acc.items() if c % p})

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

    def mul_term(self, m: tuple, c) -> "Polynomial":
        """Multiply by the single term c*m."""
        c = self.field.coerce(c)
        if not c:
            return Polynomial.zero(self.field)
        mul = self.field.mul
        return Polynomial(self.field, {mono_mul(tm, m): mul(tc, c) for tm, tc in self.terms.items()})

    # -- comparisons

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if self.terms and (len(self.terms) > 1 or MONO_ONE not in self.terms):
                return False
            return self.terms.get(MONO_ONE, self.field.zero) == self.field.coerce(other)
        return self.field == other.field and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return poly_to_str(self)


# ---------------------------------------------------------------------------
# Minors


@dataclass(frozen=True)
class Minor:
    """A determinant of the submatrix on `rows` x `cols` (1-based, increasing)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        rows, cols = tuple(self.rows), tuple(self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if len(rows) != len(cols) or not rows:
            raise ValueError(f"minor needs equally many rows and cols: {rows}|{cols}")
        if any(a >= b for a, b in zip(rows, rows[1:])) or any(a >= b for a, b in zip(cols, cols[1:])):
            raise ValueError(f"minor indices must strictly increase: {rows}|{cols}")
        if rows[0] < 1 or cols[0] < 1:
            raise ValueError("minor indices are 1-based")

    @property
    def size(self) -> int:
        return len(self.rows)

    def cells(self):
        return [(i, j) for i in self.rows for j in self.cols]

    def antidiagonal_cells(self):
        return [(self.rows[a], self.cols[self.size - 1 - a]) for a in range(self.size)]

    def antidiagonal_monomial(self) -> tuple:
        return mono_from_vars(grid_var(i, j) for i, j in self.antidiagonal_cells())

    def __str__(self):
        r = "".join(str(i) for i in self.rows) if max(self.rows + self.cols) < 10 else ",".join(map(str, self.rows))
        c = "".join(str(j) for j in self.cols) if max(self.rows + self.cols) < 10 else ",".join(map(str, self.cols))
        return f"[{r}|{c}]"


def expand_minor(m: Minor, field: Field = QQ) -> Polynomial:
    """Signed Leibniz expansion of the minor as a polynomial.

    Checks the `time_limit` deadline once every 256 permutations.
    """
    n = m.size
    terms = {}
    for idx, perm in enumerate(permutations(range(n))):
        if not idx & 255:
            _check_deadline()
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        sign = -1 if inversions & 1 else 1
        mm = mono_from_vars(grid_var(m.rows[a], m.cols[perm[a]]) for a in range(n))
        terms[mm] = field.coerce(sign)
    return Polynomial(field, terms)


# ---------------------------------------------------------------------------
# Canonical textual format: `3*x[1,2]^2*x[3,1]`, auxiliaries by bare name.


def mono_to_str(m: tuple) -> str:
    if not m:
        return "1"
    parts = []
    for k, e in m:
        v = str(_BY_KEY[k])
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def poly_to_str(f: Polynomial, order: TermOrder = ANTIDIAG) -> str:
    if f.is_zero:
        return "0"
    out = []
    for m, c in f.sorted_terms(order):
        sign = ""
        if f.field.p is None and c < 0:
            sign, c = "-", -c
        body = mono_to_str(m)
        if body == "1":
            body = str(c)
        elif c != 1:
            body = f"{c}*{body}"
        if not out:
            out.append(f"-{body}" if sign else body)
        else:
            out.append(f"- {body}" if sign else f"+ {body}")
    return " ".join(out)


_TOKEN = re.compile(
    r"\s*(?:(?P<grid>x\[\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*\])"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[\^\*\+\-]))"
)


def parse_polynomial(text: str, field: Field = QQ) -> Polynomial:
    """Parse the canonical textual polynomial grammar."""
    if not isinstance(text, str):
        raise ValueError(f"a polynomial is a string, got {text!r}")
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt:
            raise ValueError(f"bad polynomial syntax at offset {pos}: {text[pos:pos+20]!r}")
        tokens.append(mt)
        pos = mt.end()

    terms: list[tuple[tuple, object]] = []
    sign = 1
    factors: list[tuple[Variable, int]] = []
    coeff = Fraction(1)
    have_term = False

    def flush():
        nonlocal factors, coeff, have_term, sign
        if have_term:
            terms.append((mono(*factors), sign * coeff))
        factors, coeff, have_term, sign = [], Fraction(1), False, 1

    idx = 0
    while idx < len(tokens):
        tk = tokens[idx]
        kind = tk.lastgroup
        if kind == "op" and tk.group("op") in "+-":
            flush()
            sign = 1 if tk.group("op") == "+" else -1
            idx += 1
            continue
        if kind == "op" and tk.group("op") == "*":
            idx += 1
            continue
        if kind == "num":
            coeff *= Fraction(tk.group("num"))
            have_term = True
            idx += 1
            continue
        if kind in ("grid", "name"):
            if kind == "grid":
                v = grid_var(int(tk.group("i")), int(tk.group("j")))
            else:
                v = aux_var(tk.group("name"))
            exp = 1
            if idx + 2 < len(tokens) and tokens[idx + 1].lastgroup == "op" and tokens[idx + 1].group("op") == "^":
                if tokens[idx + 2].lastgroup != "num" or "/" in tokens[idx + 2].group("num"):
                    raise ValueError("exponent must be a nonnegative integer")
                exp = int(tokens[idx + 2].group("num"))
                idx += 2
            factors.append((v, exp))
            have_term = True
            idx += 1
            continue
        raise ValueError(f"unexpected token {tk.group()!r}")
    flush()
    if not terms:
        raise ValueError("empty polynomial text")
    return Polynomial.from_terms(field, terms)


def parse_polynomials(texts, field: Field = QQ) -> list[Polynomial]:
    """Parse a list of polynomial strings, as held in a JSON array."""
    if not isinstance(texts, list):
        raise ValueError(f"expected a list of polynomial strings, got {texts!r}")
    return [parse_polynomial(text, field) for text in texts]
