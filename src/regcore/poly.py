"""Exact bivariate polynomials over Q or F_p, and minors of polynomial matrices.

A Poly is a finite map `terms` from exponent pairs to coefficients, kept
canonical: every key is a `Monomial`, every coefficient is nonzero and of
the field's own type (a `Fraction` over Q, an int in [0, p) over F_p).
The public constructor coerces and drops zeros; the arithmetic below builds
its results through `Poly.from_canonical`, which trusts them.  A product
runs one integer loop for either field: over F_p on the residues, reduced
mod p once per result term; over Q on the numerators of each factor over
its common denominator, divided out once per result term.  Result keys
keep their first occurrence in the double loop, with cancelled terms
dropped.  The text grammar (used by every file format) is

    poly  := term (('+'|'-') term)*
    term  := coeff ('*'? mono)? | mono
    coeff := integer | integer '/' integer
    mono  := 'x' ('^' uint)? ('*'? 'y' ('^' uint)?)? | 'y' ('^' uint)?

with insignificant whitespace.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm
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


_ONE = Monomial(0, 0)


def _numerators(terms: dict):
    """(den, [((a, b), n)]): the Q coefficients as n / den over their least
    common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, [(m, c.numerator * (den // c.denominator))
                 for m, c in terms.items()]


def _convolve(lhs, rhs) -> dict:
    """{(a, b): sum of c1*c2 over the pairs of integer terms meeting there},
    keys in order of first occurrence, zero sums kept."""
    acc: dict = {}
    get = acc.get
    for (a1, b1), c1 in lhs:
        for (a2, b2), c2 in rhs:
            k = (a1 + a2, b1 + b2)
            acc[k] = get(k, 0) + c1 * c2
    return acc


class Poly:
    """Canonical sparse polynomial; immutable once constructed."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: Field, terms=None):
        self.field = field
        clean = {}
        if terms:
            coerce = field.coerce
            for mono, coeff in terms.items():
                c = coerce(coeff)
                if c:
                    clean[Monomial(*mono)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def from_canonical(cls, field: Field, terms: dict) -> "Poly":
        """Trusted: `terms` already maps Monomials to nonzero coefficients
        of the field's type, and is not shared with a caller that edits it."""
        f = object.__new__(cls)
        f.field = field
        f.terms = terms
        f._hash = None
        return f

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls.from_canonical(field, {})

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls.from_canonical(field, {_ONE: field.one})

    @classmethod
    def term(cls, field: Field, a: int, b: int, coeff=1) -> "Poly":
        c = field.coerce(coeff)
        return cls.from_canonical(field, {Monomial(a, b): c} if c else {})

    @classmethod
    def monomial(cls, field: Field, mono: Monomial) -> "Poly":
        return cls.from_canonical(field, {Monomial(*mono): field.one})

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
        return min(a + b for a, b in self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(a + b for a, b in self.terms)

    def constant_term(self):
        return self.terms.get(_ONE, self.field.zero)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (-kv[0].a, kv[0].b))

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"operands over different fields: {self.field} vs {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        p = self.field.p
        terms = dict(self.terms)
        for m, c in other.terms.items():
            v = terms.get(m)
            if v is None:
                terms[m] = c
                continue
            v = v + c if p is None else (v + c) % p
            if v:
                terms[m] = v
            else:
                del terms[m]  # a key occurs once in `other`
        return Poly.from_canonical(self.field, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = self.field.p
        if p is None:
            terms = {m: -c for m, c in self.terms.items()}
        else:
            terms = {m: p - c for m, c in self.terms.items()}
        return Poly.from_canonical(self.field, terms)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        t1, t2 = self.terms, other.terms
        if not (t1 and t2):
            return Poly.from_canonical(f, {})
        p = f.p
        if p is not None:
            acc = _convolve(t1.items(), t2.items())
            return Poly.from_canonical(
                f, {Monomial(*k): r
                    for k, v in acc.items() if (r := v % p)})
        d1, lhs = _numerators(t1)
        d2, rhs = _numerators(t2)
        acc = _convolve(lhs, rhs)
        den = d1 * d2
        return Poly.from_canonical(
            f, {Monomial(*k): Fraction(v, den)
                for k, v in acc.items() if v})

    def _times_term(self, a: int, b: int, c0) -> "Poly":
        """self * c0*x^a*y^b for a nonzero c0 of the field: no term cancels,
        and the terms keep their order."""
        p = self.field.p
        items = self.terms.items()
        if p is not None:
            terms = {Monomial(ma + a, mb + b): c * c0 % p
                     for (ma, mb), c in items}
        else:
            n0, d0 = c0.numerator, c0.denominator
            terms = {Monomial(ma + a, mb + b):
                     Fraction(c.numerator * n0, c.denominator * d0)
                     for (ma, mb), c in items}
        return Poly.from_canonical(self.field, terms)

    def scale(self, coeff) -> "Poly":
        c0 = self.field.coerce(coeff)
        if not c0:
            return Poly.from_canonical(self.field, {})
        return self._times_term(0, 0, c0)

    def shift(self, a: int, b: int) -> "Poly":
        """Multiply by the monomial x^a y^b."""
        return self._times_term(a, b, self.field.one)

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
        cs = str(coeff)
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
    if not isinstance(text, str):
        raise ParseError(f"a polynomial must be a string, got {text!r}")
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
        terms[mono] = terms.get(mono, 0) + (coeff if sign > 0 else -coeff)
        sign = 1
        expect_term = False
    if expect_term:
        raise ParseError(f"dangling sign in {text!r}")
    return Poly(field, terms)  # reduces mod p and drops the cancelled terms


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
                if sub.is_zero:
                    continue
                contrib = entry * sub
                if (pos + best_j) % 2:
                    contrib = -contrib
                result = result + contrib
        memo[key] = result
        return result

    return det(rows, cols)


def minor_supports(matrix: list[list[Poly]], k: int):
    """(rows, cols) of the k x k submatrices whose support admits a
    transversal, in `matrix_minors`' order: every other minor is zero term
    by term.  A depth-first walk picks rows, then columns among the rows'
    nonzero ones, and grows a matching by one augmenting path per pick; a
    set with no matching has none above it, so its subtree is cut.
    """
    nonzero = [[j for j, f in enumerate(row) if not f.is_zero]
               for row in matrix]

    def matched(items, partners):
        if all(len(partners[i]) >= k for i in items):
            return combinations(items, k)  # greedily, k items never run out

        def augment(i, match, seen) -> bool:
            for p in partners[i]:
                if p not in seen:
                    seen.add(p)
                    if p not in match or augment(match[p], match, seen):
                        match[p] = i
                        return True
            return False

        def walk(start, chosen, match):
            for pos in range(start, len(items) - k + len(chosen) + 1):
                grown = dict(match)
                if augment(items[pos], grown, set()):
                    new = chosen + (items[pos],)
                    if len(new) == k:
                        yield new
                    else:
                        yield from walk(pos + 1, new, grown)
        return walk(0, (), {})

    for rows in matched(range(len(matrix)), nonzero):
        cols = sorted({j for i in rows for j in nonzero[i]})
        for subset in matched(cols, {j: [i for i in rows if j in nonzero[i]]
                                     for j in cols}):
            yield rows, subset


def matrix_minors(matrix: list[list[Poly]], k: int, field: Field,
                  memo: dict | None = None):
    """The k x k minors of a rectangular Poly matrix at `minor_supports`,
    in combinations order (every other minor is zero), sharing
    sub-determinants through `memo` (a fresh one by default).

    For k <= 0 the one minor is the empty one, 1; an empty list when k
    exceeds either dimension.
    """
    if k <= 0:
        return [Poly.one(field)]
    memo = {} if memo is None else memo
    return [poly_det(matrix, field, rows, cols, memo)
            for rows, cols in minor_supports(matrix, k)]
