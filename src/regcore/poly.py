"""Exact bivariate polynomials over Q or F_p, and minors of polynomial matrices.

A Poly is a finite map from exponent pairs to nonzero coefficients, kept
canonical after every operation.  The text grammar (used by every file
format) is

    poly  := term (('+'|'-') term)*
    term  := coeff ('*'? mono)? | mono
    coeff := integer | integer '/' integer
    mono  := 'x' ('^' uint)? ('*'? 'y' ('^' uint)?)? | 'y' ('^' uint)?

with insignificant whitespace.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import FieldMismatchError, ParseError
from .field import Field


class Monomial(NamedTuple):
    a: int  # exponent of x
    b: int  # exponent of y

    @property
    def degree(self) -> int:
        return self.a + self.b

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(self.a + other.a, self.b + other.b)

    def divides(self, other: "Monomial") -> bool:
        return self.a <= other.a and self.b <= other.b

    def __str__(self) -> str:
        if self.a == 0 and self.b == 0:
            return "1"
        xs = "" if self.a == 0 else ("x" if self.a == 1 else f"x^{self.a}")
        ys = "" if self.b == 0 else ("y" if self.b == 1 else f"y^{self.b}")
        return f"{xs}*{ys}" if xs and ys else xs + ys


class Poly:
    """Canonical sparse polynomial; immutable once constructed."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: Field, terms=None):
        self.field = field
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != field.zero:
                    clean[Monomial(*mono)] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, {Monomial(0, 0): field.one})

    @classmethod
    def term(cls, field: Field, a: int, b: int, coeff=1) -> "Poly":
        return cls(field, {Monomial(a, b): field.coerce(coeff)})

    @classmethod
    def monomial(cls, field: Field, mono: Monomial) -> "Poly":
        return cls(field, {mono: field.one})

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_term(self) -> bool:
        return len(self.terms) == 1

    def order(self) -> int:
        """Minimal total degree of the support; order of 0 is raised."""
        if not self.terms:
            raise ValueError("the zero polynomial has no order")
        return min(m.degree for m in self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(m.degree for m in self.terms)

    def constant_term(self):
        return self.terms.get(Monomial(0, 0), self.field.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-kv[0].a, kv[0].b))

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"operands over different fields: {self.field} vs {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = f.add(terms.get(m, f.zero), c)
        return Poly(f, terms)  # drops the cancelled terms

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.times(m2)
                terms[m] = f.add(terms.get(m, f.zero), f.mul(c1, c2))
        return Poly(f, terms)  # drops the cancelled terms

    def scale(self, coeff) -> "Poly":
        f = self.field
        c0 = f.coerce(coeff)
        if c0 == f.zero:
            return Poly(f)
        return Poly(f, {m: f.mul(c, c0) for m, c in self.terms.items()})

    def shift(self, a: int, b: int) -> "Poly":
        """Multiply by the monomial x^a y^b."""
        return Poly(self.field,
                    {Monomial(m.a + a, m.b + b): c for m, c in self.terms.items()})

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        return poly_to_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.field}, {poly_to_str(self)})"


# ---------------------------------------------------------------------------
# text form


def poly_to_str(f: Poly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for mono, coeff in f.sorted_terms():
        cs = f.field.coeff_str(coeff)
        neg = cs.startswith("-")
        mag = cs[1:] if neg else cs
        if mono.a == 0 and mono.b == 0:
            body = mag
        elif mag == "1":
            body = str(mono)
        else:
            body = f"{mag}*{mono}"
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?\*?"
    r"(?P<x>x(?:\^\d+)?)?\*?"
    r"(?P<y>y(?:\^\d+)?)?$")


def _parse_term(field: Field, text: str):
    m = _TERM_RE.match(text)
    if not m or not text or (m.group("coeff") is None and m.group("x") is None
                             and m.group("y") is None):
        raise ParseError(f"bad term {text!r}")
    coeff = m.group("coeff")
    if coeff is None:
        c = field.one
    elif "/" in coeff:
        num, den = coeff.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        try:
            c = field.from_fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ParseError(
                f"denominator of {text!r} vanishes in {field.name}") from None
    else:
        c = field.coerce(int(coeff))
    a = b = 0
    if m.group("x"):
        a = int(m.group("x")[2:]) if "^" in m.group("x") else 1
    if m.group("y"):
        b = int(m.group("y")[2:]) if "^" in m.group("y") else 1
    return Monomial(a, b), c


def parse_poly(text: str, field: Field) -> Poly:
    """Parse the polynomial grammar; raises ParseError on malformed input."""
    compact = text.replace("−", "-").replace(" ", "").replace("\t", "")
    if not compact:
        raise ParseError("empty polynomial")
    if compact == "0":
        return Poly.zero(field)
    pieces = re.findall(r"[+-]|[^+-]+", compact)
    terms = {}
    sign = 1
    expect_term = True
    for piece in pieces:
        if piece in "+-":  # a run of signs multiplies out
            sign = -sign if piece == "-" else sign
            expect_term = True
            continue
        mono, coeff = _parse_term(field, piece)
        if sign < 0:
            coeff = field.neg(coeff)
        terms[mono] = field.add(terms.get(mono, field.zero), coeff)
        sign = 1
        expect_term = False
    if expect_term:
        raise ParseError(f"dangling sign in {text!r}")
    return Poly(field, terms)


# ---------------------------------------------------------------------------
# determinants and minors


def poly_det(matrix: list[list[Poly]], field: Field, rows=None, cols=None,
             memo: dict | None = None) -> Poly:
    """Exact determinant of the rows x cols submatrix (default: all of it),
    by expansion along the sparsest column.  `memo` maps (rows, cols) to
    determinants; calls on one matrix that share it share sub-determinants."""
    if rows is None:
        rows = tuple(range(len(matrix)))
        cols = tuple(range(len(matrix[0]) if matrix else 0))
    memo = {} if memo is None else memo

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> Poly:
        if not rows:
            return Poly.one(field)
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        # expand along the column with the fewest nonzero entries
        best_j, best_count = 0, len(rows) + 1
        for j, cj in enumerate(cols):
            count = sum(1 for i in rows if not matrix[i][cj].is_zero)
            if count < best_count:
                best_j, best_count = j, count
        result = Poly.zero(field)
        if best_count > 0:
            cj = cols[best_j]
            subcols = cols[:best_j] + cols[best_j + 1:]
            for pos, i in enumerate(rows):
                entry = matrix[i][cj]
                if entry.is_zero:
                    continue
                sub = det(rows[:pos] + rows[pos + 1:], subcols)
                contrib = entry * sub
                if (pos + best_j) % 2:
                    contrib = -contrib
                result = result + contrib
        memo[key] = result
        return result

    return det(rows, cols)


def matrix_minors(matrix: list[list[Poly]], k: int, field: Field,
                  memo: dict | None = None):
    """All k x k minors of a rectangular Poly matrix, sharing
    sub-determinants through `memo` (a fresh one by default).

    For k <= 0 the one minor is the empty one, 1; an empty list when k
    exceeds either dimension.
    """
    if k <= 0:
        return [Poly.one(field)]
    from itertools import combinations

    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if k > nrows or k > ncols:
        return []
    memo = {} if memo is None else memo
    return [poly_det(matrix, field, rows, cols, memo)
            for rows in combinations(range(nrows), k)
            for cols in combinations(range(ncols), k)]
