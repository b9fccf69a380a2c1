"""Coefficient fields: the rationals, or a prime field F_p for an odd prime p.

Rational coefficients are `fractions.Fraction` in lowest terms; prime-field
coefficients are plain ints in [0, p).  A Field object coerces values into
that form and inverts them; sums and products run in the per-field loops of
`poly` and `linalg`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, ParseError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q; elements are Fractions."""

    p = None
    name = "Q"

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatchError(f"cannot coerce {value!r} into Q")

    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a):
        return 1 / a

    def from_fraction(self, num: int, den: int):
        return Fraction(num, den)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p == 2 or not _is_prime(p):
            raise ParseError(f"field modulus must be an odd prime, got {p}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        raise FieldMismatchError(f"cannot coerce {value!r} into {self.name}")

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, num: int, den: int):
        return num * self.inv(den % self.p) % self.p

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))


QQ = RationalField()

Field = RationalField | PrimeField


def field_from_name(name: str) -> Field:
    """Parse a field descriptor: "Q" or "F<p>"."""
    if not isinstance(name, str):
        raise ParseError(f"a field descriptor must be a string, got {name!r}")
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return PrimeField(int(name[1:]))
    raise ParseError(f"unknown field descriptor {name!r}")
