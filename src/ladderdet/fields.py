"""Exact coefficient arithmetic over the rationals and prime fields: every
rule about the form of a coefficient, and the only use of `fractions`."""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _exact(q):
    """A rational as an int when it is integral, else the `Fraction` itself."""
    return q.numerator if type(q) is not int and q.denominator == 1 else q


class Field:
    """Coefficient field: the rationals (``p is None``) or integers mod p.

    A coefficient has one form, its exact value.  Over the rationals it is
    an int when it is integral and a `fractions.Fraction` otherwise, never a
    float; mod p it is an int in [0, p).  `coerce` puts any value in that
    form, and the arithmetic below keeps it there.  p is restricted to word
    size so coefficient products stay machine integers.
    """

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int | None = None):
        if p is not None:
            if not 2 <= p < 2**31:
                raise ValueError(f"modulus out of range [2, 2^31): {p}")
            if not _is_prime(p):
                raise ValueError(f"modulus is not prime: {p}")
        self.p = p

    def coerce(self, value):
        """The exact form in the field of an int, Fraction or decimal string;
        ValueError on a zero denominator, or one that p divides."""
        p = self.p
        if type(value) is int:
            return value if p is None else value % p
        try:
            q = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        if p is None:
            return _exact(q)
        if q.denominator % p == 0:
            raise ValueError(f"denominator of {value} not invertible mod {p}")
        return q.numerator * pow(q.denominator, -1, p) % p

    def add(self, a, b):
        return _exact(a + b) if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return _exact(a * b) if self.p is None else (a * b) % self.p

    def div(self, a, b):
        """a / b for b nonzero: a itself when b is 1."""
        if b == 1:
            return a
        p = self.p
        if p is None:
            return -a if b == -1 else _exact(Fraction(a, b))
        return a * pow(b, -1, p) % p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self.div(1, a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()

_gf_cache: dict[int, Field] = {}


def GF(p: int) -> Field:
    """The prime field with p elements (cached)."""
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


def parse_field(tag: str) -> Field:
    """Parse a field tag: ``q`` for the rationals, ``fp:P`` for a prime field."""
    if not isinstance(tag, str):
        raise ValueError(f"a field tag is a string, got {tag!r}")
    tag = tag.strip().lower()
    if tag in ("q", "qq"):
        return QQ
    unknown = ValueError(f"unknown field tag: {tag!r} (expected 'q' or 'fp:<p>')")
    if not tag.startswith("fp:"):
        raise unknown
    try:
        p = int(tag[3:])
    except ValueError:
        raise unknown from None
    return GF(p)
