"""Monomial ideals in two variables: staircases and Newton polyhedra.

Everything here is integer combinatorics: membership, sums, products,
intersections, colons, integral closure (lattice points of the Newton
polyhedron), adjoint (Howald-style shifted interior test), colength
(lattice count under the staircase), multiplicity (doubled covolume) and
the bidiagonal presentation matrix.  This module is the independent
oracle that the truncated linear-algebra engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import NotMPrimaryError, ZeroIdealError
from .field import Field
from .poly import Monomial, Poly


def minimalize(points) -> tuple[Monomial, ...]:
    """Minimal antichain generating the same monomial ideal."""
    keep: list[Monomial] = []
    for p in sorted({Monomial(*p) for p in points}):
        # by (a, b), p is minimal exactly when its b is below every kept b
        if not keep or p.b < keep[-1].b:
            keep.append(p)
    return tuple(reversed(keep))


@dataclass(frozen=True)
class MonomialIdeal:
    """Nonzero monomial ideal, stored as its minimal antichain of exponents.

    Generators are sorted by decreasing x-exponent (staircase order).
    """

    gens: tuple[Monomial, ...]

    @classmethod
    def from_exponents(cls, points) -> "MonomialIdeal":
        pts = list(points)
        if not pts:
            raise ZeroIdealError("a monomial ideal needs at least one generator")
        return cls(minimalize(pts))

    @classmethod
    def unit(cls) -> "MonomialIdeal":
        return cls((Monomial(0, 0),))

    @classmethod
    def max_power(cls, n: int) -> "MonomialIdeal":
        """The ideal m^n = (x, y)^n."""
        if n <= 0:
            return cls.unit()
        return cls(tuple(Monomial(n - b, b) for b in range(n + 1)))

    # -- structure ------------------------------------------------------

    @property
    def is_unit(self) -> bool:
        return self.gens == (Monomial(0, 0),)

    @property
    def is_m_primary(self) -> bool:
        """Proper with finite colength: pure powers of both variables occur."""
        return (not self.is_unit
                and any(g.b == 0 for g in self.gens)
                and any(g.a == 0 for g in self.gens))

    def max_a(self) -> int:
        return max(g.a for g in self.gens)

    def max_b(self) -> int:
        return max(g.b for g in self.gens)

    def content(self) -> Monomial:
        """Largest monomial dividing the ideal: componentwise minima."""
        return Monomial(min(g.a for g in self.gens), min(g.b for g in self.gens))

    def contains_monomial(self, m) -> bool:
        m = Monomial(*m)
        return any(g.divides(m) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.gens)

    # -- ideal arithmetic -------------------------------------------------

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal.from_exponents(
            g.times(h) for g in self.gens for h in other.gens)

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("negative power")
        result = MonomialIdeal.unit()
        for _ in range(n):
            result = result.product(self)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        lcms = (Monomial(max(g.a, h.a), max(g.b, h.b))
                for g in self.gens for h in other.gens)
        return MonomialIdeal.from_exponents(lcms)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other) = all monomials m with m*other inside self."""
        result = None
        for h in other.gens:
            shifted = MonomialIdeal.from_exponents(
                Monomial(max(g.a - h.a, 0), max(g.b - h.b, 0)) for g in self.gens)
            result = shifted if result is None else result.intersect(shifted)
        return result

    def shift(self, m) -> "MonomialIdeal":
        """Multiply by the single monomial m."""
        m = Monomial(*m)
        return MonomialIdeal(tuple(g.times(m) for g in self.gens))

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


# ---------------------------------------------------------------------------
# Newton polyhedron


@lru_cache(maxsize=None)
def hull_vertices(ideal: MonomialIdeal) -> tuple[Monomial, ...]:
    """Vertices of NP(ideal) = conv(gens) + R^2_{>=0}, by increasing a."""
    pts = sorted(ideal.gens)
    chain: list[Monomial] = []
    for p in pts:
        while len(chain) >= 2:
            p1, p2 = chain[-2], chain[-1]
            cross = (p.a - p1.a) * (p2.b - p1.b) - (p.b - p1.b) * (p2.a - p1.a)
            if cross >= 0:  # p2 on or above the segment p1-p: not a vertex
                chain.pop()
            else:
                break
        chain.append(p)
    return tuple(chain)


@lru_cache(maxsize=None)
def facets(ideal: MonomialIdeal) -> tuple[tuple[int, int, int], ...]:
    """Inequalities alpha*a + beta*b >= gamma cutting out NP(ideal).

    Includes the two axis-parallel facets a >= min_a and b >= min_b; the
    unbounded directions contribute no facets.
    """
    verts = hull_vertices(ideal)
    out = []
    for (a1, b1), (a2, b2) in zip(verts, verts[1:]):
        alpha, beta = b1 - b2, a2 - a1
        g = gcd(alpha, beta)
        alpha, beta = alpha // g, beta // g
        out.append((alpha, beta, alpha * a1 + beta * b1))
    c = ideal.content()
    out.append((1, 0, c.a))
    out.append((0, 1, c.b))
    return tuple(out)


def _column_minima(ideal: MonomialIdeal, shift: int) -> MonomialIdeal:
    """The monomials x^a y^b with (a + shift, b + shift) in NP(ideal), strictly
    inside when shift = 1, as the least b of each column a <= max_a.

    For integers, alpha*(a+1) + beta*(b+1) > gamma is alpha*a + beta*b >=
    gamma + 1 - alpha - beta.  A facet with beta > 0 bounds b from below; one
    with beta = 0 empties the column or imposes nothing.  Every minimal
    generator is dominated componentwise by the generator box, so columns
    past max_a and minima past max_b are not needed.
    """
    fac, box_b = facets(ideal), ideal.max_b()
    pts = []
    for a in range(ideal.max_a() + 1):
        least = 0
        for alpha, beta, gamma in fac:
            need = gamma + shift * (1 - alpha - beta) - alpha * a
            if beta:
                least = max(least, -(-need // beta))
            elif need > 0:
                break
        else:
            if least <= box_b:
                pts.append(Monomial(a, least))
    return MonomialIdeal.from_exponents(pts)


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Monomials whose exponent lies in the Newton polyhedron."""
    if ideal.is_unit:
        return ideal
    return _column_minima(ideal, 0)


def adjoint(ideal: MonomialIdeal) -> MonomialIdeal:
    """Lattice-point adjoint: exponents whose (1,1)-shift lies strictly
    inside the Newton polyhedron.

    A monomial factor is pulled out first (adj(x*I) = x*adj(I)), so any
    nonzero monomial ideal is accepted.
    """
    if ideal.is_unit:
        return ideal
    c = ideal.content()
    core = MonomialIdeal.from_exponents(
        Monomial(g.a - c.a, g.b - c.b) for g in ideal.gens)
    if core.is_unit:
        return MonomialIdeal((c,))
    adj = _column_minima(core, 1)
    return adj.shift(c) if (c.a or c.b) else adj


def staircase_heights(ideal: MonomialIdeal) -> list[int]:
    """For a m-primary ideal, min { b : x^a y^b in I } for a = 0..max_a."""
    heights = []
    for a in range(ideal.max_a() + 1):
        hs = [g.b for g in ideal.gens if g.a <= a]
        heights.append(min(hs) if hs else None)
    return heights


def colength(ideal: MonomialIdeal) -> int:
    """Number of standard monomials below the staircase."""
    if ideal.is_unit:
        return 0
    if not ideal.is_m_primary:
        raise NotMPrimaryError(f"ideal {ideal} has infinite colength")
    return sum(staircase_heights(ideal))


def multiplicity(ideal: MonomialIdeal) -> int:
    """Doubled area between the axes and the Newton polyhedron (shoelace)."""
    if ideal.is_unit:
        return 0
    if not ideal.is_m_primary:
        raise NotMPrimaryError(f"ideal {ideal} is not m-primary")
    polygon = [Monomial(0, 0)] + list(reversed(hull_vertices(ideal)))
    doubled = 0
    for (a1, b1), (a2, b2) in zip(polygon, polygon[1:] + polygon[:1]):
        doubled += a1 * b2 - a2 * b1
    return abs(doubled)


def power_certificate(ideal: MonomialIdeal) -> int:
    """Least t with m^t inside the ideal (m-primary or unit input)."""
    if ideal.is_unit:
        return 0
    if not ideal.is_m_primary:
        raise NotMPrimaryError(f"no power of m fits inside {ideal}")
    return max(a + h for a, h in enumerate(staircase_heights(ideal)) if h > 0)


def presentation_matrix(ideal: MonomialIdeal, field: Field) -> list[list[Poly]]:
    """Syzygies between staircase-adjacent generators.

    For s minimal generators sorted by decreasing x-exponent the result is
    the s x (s-1) bidiagonal matrix with column i carrying y^(b_{i+1}-b_i)
    against -x^(a_i - a_{i+1}); its maximal minors regenerate the ideal.
    """
    gens = ideal.gens
    s = len(gens)
    rows = [[Poly.zero(field) for _ in range(s - 1)] for _ in range(s)]
    for i in range(s - 1):
        g, h = gens[i], gens[i + 1]
        rows[i][i] = Poly.term(field, 0, h.b - g.b)
        rows[i + 1][i] = -Poly.term(field, g.a - h.a, 0)
    return rows


def ascii_staircase(ideal: MonomialIdeal) -> str:
    """Rows are y-degree descending; '#' inside the ideal, '.' outside."""
    width = ideal.max_a() + 2
    height = ideal.max_b() + 2
    lines = []
    for b in range(height - 1, -1, -1):
        line = "".join("#" if ideal.contains_monomial((a, b)) else "."
                       for a in range(width))
        lines.append(line)
    return "\n".join(lines)
