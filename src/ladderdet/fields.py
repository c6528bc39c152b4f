"""Exact coefficient arithmetic over the rationals and prime fields."""

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


class Field:
    """Coefficient field: the rationals (``p is None``) or integers mod p.

    Rational coefficients are `fractions.Fraction`; modular ones are plain
    ints in [0, p).  p is restricted to word size so coefficient products
    stay machine integers.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not 2 <= p < 2**31:
                raise ValueError(f"modulus out of range [2, 2^31): {p}")
            if not _is_prime(p):
                raise ValueError(f"modulus is not prime: {p}")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_modular(self) -> bool:
        return self.p is not None

    def coerce(self, value):
        """Coerce an int, Fraction or decimal string into the field."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

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
    if tag.startswith("fp:"):
        return GF(int(tag[3:]))
    raise ValueError(f"unknown field tag: {tag!r} (expected 'q' or 'fp:<p>')")
