"""Exact ideal arithmetic in k[x,y] localized at (x,y) via finite truncations.

Working in k[x,y]/m^N is exact as soon as a Nakayama certificate
m^N0 <= I with N0 < N is in hand: membership, colons, colengths and
equality tests all reduce to row operations below the certificate degree.
A span is built once, one degree at a time, and the certificate is a pivot
count: the first degree t at which every degree-t monomial leads a stored
row.  The same machinery drives finite-colength submodules of R^s, so the
module layer reuses TruncatedSpan with more slots, and the Nakayama
equality test of the reduction layers is a pivot count on a certified span.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import lcm

from .config import DEFAULT, EngineConfig
from .errors import (FieldMismatchError, NotMPrimaryError,
                     TruncationCeilingError, ZeroIdealError)
from .field import Field
from .linalg import (SparseBasis, combine, has_variable_factor,
                     kernel_modulo, key_degree, key_exponents, key_slot,
                     monomial_row, normal_forms, pack_key, row_product,
                     slot_sums)
from .poly import Monomial, Poly
from . import staircase


def triangle(n: int) -> int:
    """dim of k[x,y]/m^n."""
    return n * (n + 1) // 2


def monomials_below(degree_cap: int):
    """All (a, b) with a+b <= degree_cap, sorted degree-major."""
    return [Monomial(d - b, b) for d in range(degree_cap + 1) for b in range(d + 1)]


def vector_rows(vectors, field: Field) -> tuple[list[dict], int]:
    """Pack tuples of polynomials (one per slot) into sparse rows over one
    common denominator D: (rows, D), each row D times its vector, integer
    over Q, so a combination of the rows is D times the vectors'."""
    items = [[(pack_key(a + b, slot, b), c) for slot, f in enumerate(vector)
              for (a, b), c in f.terms.items()] for vector in vectors]
    if field.p is not None:
        return [dict(row) for row in items], 1
    den = lcm(*(c.denominator for row in items for _, c in row))
    return [{k: c.numerator * (den // c.denominator) for k, c in row}
            for row in items], den


def vector_row(vector) -> dict:
    """`vector_rows` of one vector: an integer ray over Q."""
    return vector_rows([vector], vector[0].field)[0][0]


def row_vector(row: dict, nslots: int, field: Field,
               den: int = 1) -> tuple[Poly, ...]:
    """The polynomials, one per slot, of row / den: `vector_rows` undone."""
    parts: dict = {}
    for k, c in row.items():
        parts.setdefault(key_slot(k), {})[Monomial(*key_exponents(k))] = (
            field.coerce(c) if den == 1 else Fraction(c, den))
    return tuple(Poly.from_canonical(field, parts.get(slot, {}))
                 for slot in range(nslots))


class TruncatedSpan:
    """Echelonized R-span I of column vectors inside F/m^order F, F = R^nslots,
    given by rows, built once, one degree at a time like a Macaulay matrix.

    Stage t inserts the generator columns of order t, then x*b for every
    stored pivot row b of lead degree t-1, then y*b for those of them whose
    row did not come from an x-product (Janet's multiplicative variables:
    an x-multiple is multiplied further by x only, so each monomial
    multiple is reached once).  Rows are kept untruncated below the stage
    bound `order` until the certificate, so every stored row lies in I;
    stored rows are not changed while the span is built.

    Invariant: after stage t, the stored rows together with m^(t+1)F span
    I + m^(t+1)F.  Take f in I and write f = sum c_j(0) g_j + x*h' + y*h''
    with h', h'' in I.  The constant terms use generators of order <= t, and
    each of those was inserted at its own order.  By induction, h' lies in
    the span of the rows with lead degree <= t-1, plus m^t F.  Each such
    pivot b had x*b inserted at stage lead(b)+1 <= t, and y*b too unless b
    came from an x-product.  This works because a row inserted at stage s
    has order >= s, and top reduction only raises its lead, so every pivot
    of lead degree t-1 exists by the end of stage t-1.

    The skipped y*b are covered by R(b, T): for an x-product pivot b and
    every stage T >= deg lead(b) + 1, y*b lies in span(rows stored after
    stage T) + m^(T+1)F.  Induct on lead(b).  Its row is b = lam*x*b' -
    sum c_i r_i modulo m^order F, for a pivot b' of smaller lead degree and
    stored rows r_i of lead below lead(b) and lead degree <= deg lead(b).
    Each y*r_i was inserted by stage T or is covered by R(r_i, T).  And
    y*b' lies in the span after stage T-1 plus m^T F (inserted, or by
    R(b', T-1)), so x*y*b' is a sum of x*r over stored rows r: inserted at
    stage deg lead(r) + 1 <= T, or in m^(T+1)F when deg lead(r) >= T.

    So the rows of lead degree <= t, read modulo m^(t+1)F, are a basis of
    (I + m^(t+1)F)/m^(t+1)F, and the pivots of lead degree t number
    nslots*(t+1) exactly when m^t F <= I + m^(t+1)F, which by Nakayama
    means m^t F <= I.  The first such t is the certificate n0: building
    stops there with order = n0 + 1, and since m^n0 F <= I the rows are
    trimmed to degree < n0 and rows of higher lead are dropped, leaving a
    basis of I/m^n0 F.  No certificate below `order` leaves n0 = None.
    The nslots slots need not be 0..nslots-1: `slots` records them.
    """

    def __init__(self, field: Field, nslots: int, rows, order: int):
        self.field = field
        self.nslots = nslots
        self.basis = SparseBasis(field)
        self.n0 = None
        self.order = order
        cap = order - 1
        pending: list[list[dict]] = [[] for _ in range(order)]
        for row in rows:  # `insert` reads a row below the cap only
            if row and (t := key_degree(min(row))) <= cap:
                pending[t].append(row)
        leads: list[list[int]] = [[] for _ in range(order)]  # by degree
        x_leads = set()  # leads whose stored row came from an x-product
        rows = self.basis.rows
        for t, gens in enumerate(pending):
            prev = leads[t - 1] if t else []
            stage = [(row, None) for row in gens]
            stage += [(rows[b], (1, 0)) for b in prev]
            stage += [(rows[b], (0, 1)) for b in prev if b not in x_leads]
            for row, shift in stage:
                lead = self.basis.insert(row, cap, shift)
                if lead is not None:
                    leads[key_degree(lead)].append(lead)
                    if shift == (1, 0):
                        x_leads.add(lead)
            if len(leads[t]) == nslots * (t + 1):
                self.n0, self.order = t, t + 1
                self.slots = sorted({key_slot(k) for k in leads[t]})
                self.basis.truncate(t - 1)
                return

    def colength(self) -> int:
        return self.nslots * triangle(self.n0) - self.basis.dim_up_to(self.n0 - 1)

    def contains_row(self, row: dict) -> bool:
        return self.basis.contains(row, cap=self.n0 - 1)


# Certified spans by (field, nslots, rows, ceiling), held only while some
# caller holds them.  A span never changes after __init__ (`interreduce`
# keeps its span and leads), so equal inputs can share one.  Keys hold each
# distinct row once, its terms sorted: equal Polys may order them apart.
_certified: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def span_with_certificate(rows, nslots: int, field: Field,
                          config: EngineConfig = DEFAULT) -> TruncatedSpan:
    """Materialize the span of rows up to its Nakayama certificate below
    the truncation ceiling, or return the certified span already built
    from the same rows under the same ceiling.  Rows that a variable
    divides are refused before anything is built."""
    ceiling = config.truncation_ceiling
    distinct = {tuple(chain(*sorted(row.items()))): row for row in rows}
    key = (field, nslots, tuple(distinct), ceiling)
    span = _certified.get(key)
    if span is None and not has_variable_factor(distinct.values()):
        span = TruncatedSpan(field, nslots, distinct.values(), ceiling)
    if span is None or span.n0 is None:
        raise NotMPrimaryError(
            f"no Nakayama certificate up to the truncation ceiling "
            f"{ceiling}: not finite colength")
    _certified[key] = span
    return span


def nakayama_covers(big: TruncatedSpan, small) -> bool:
    """Is the certified span I = `big` generated by the rows `small`?

    Requires span(small) <= I: every caller knows it.  With n0 = n0(I),
    m^(n0+1)F = m*m^n0 F <= m*I, so by Nakayama span(small) = I exactly
    when span(small) + m*I = I modulo m^(n0+1)F, and as the left side lies
    in the right one, exactly when their dimensions there agree.  There I
    is its stored basis of I/m^n0 F plus all of m^n0 F, the degree-n0
    block of nslots*(n0+1) keys, and m*I is spanned by x*b and y*b for the
    stored rows b; m*span(small) <= m*I, so the `small` rows go in
    unshifted.
    """
    n0 = big.n0
    basis = SparseBasis(big.field)
    for _, b in sorted(big.basis.rows.items()):
        basis.insert(b, n0, (1, 0))
        basis.insert(b, n0, (0, 1))
    for row in small:
        basis.insert(row, cap=n0)
    return basis.dim_up_to(n0) == \
        big.basis.dim_up_to(n0 - 1) + big.nslots * (n0 + 1)


def span_colon(span: TruncatedSpan, rows,
               config: EngineConfig = DEFAULT) -> "TruncatedIdeal":
    """(N : M) = { r in R : r*M <= N } for the certified span N of R^s and
    the rows of the columns of M, computed in the quotient F/N.

    With o the least order of a nonzero entry of M and d = n0 - o,
    m^d * M <= m^n0 F <= N.  Whether r*c lies in N is decided modulo
    m^n0 F <= N by the normal form of r*c, a sum of `normal_forms`
    lookups.  The colon's own certificate comes first: the least t <= d at
    which u*c has normal form zero for every monomial u of degree t and
    every column c, i.e. m^t * M <= N.  Any r in the colon is r_low +
    r_high with r_high in m^t and r_low a combination of the monomials of
    degree < t, and r_low lies in the colon too; so the colon is generated
    by the low combinations it contains and m^t.  The low candidates are
    refined one column c at a time: the new ones are the relations among
    the normal forms of the old ones times c, a plain `kernel_modulo`.
    Columns in m^n0 F impose nothing.  The survivors and m^t are returned,
    with n0 = t, since m^(t-1) * M <= N fails by the choice of t.
    """
    field = span.field
    cap = span.n0 - 1
    bases = [row for row in rows if row and key_degree(min(row)) <= cap]
    d = span.n0 - min(map(key_degree, map(min, bases)), default=span.n0)
    nf = normal_forms(span.basis, cap)
    shifted = [[] for _ in bases]  # normal forms of u*column, deg u < t
    t = 0
    while t < d:
        stage = [[nf(base, t - b, b) for b in range(t + 1)] for base in bases]
        if not any(map(any, stage)):
            break
        for rows, more in zip(shifted, stage):
            rows += more
        t += 1
    candidates = [{i: 1} for i in range(triangle(t))]
    for rows in shifted:
        if not candidates:
            break
        lams = kernel_modulo([combine(v, rows, field.p) for v in candidates],
                             field)
        candidates = [v for v in (combine(lam, candidates, field.p)
                                  for lam in lams) if v]
    keys = [pack_key(m.degree, 0, m.b) for m in monomials_below(t - 1)]
    gens = [{keys[i]: c for i, c in v.items()} for v in candidates]
    gens += [monomial_row(t - b, b) for b in range(t + 1)]
    return TruncatedIdeal.from_rows(gens, field, config)


class TruncatedIdeal:
    """Finite-colength ideal with a verified Nakayama certificate m^n0 <= I,
    held as its certified span and generating rows (in several slots for
    `ModuleRep.sym`); the unit ideal R is the span of 1.  `gens` are read
    from the rows when asked, one per row: row / `den` (`vector_rows`); a
    product's rows are over Q rays, unit multiples of products."""

    def __init__(self, field: Field, span: TruncatedSpan,
                 config: EngineConfig = DEFAULT, rows=(), den: int = 1):
        self.field = field
        self.span = span
        self.config = config
        self.rows = rows
        self.den = den
        self._square = None  # I*I once built; no higher power is kept

    @cached_property
    def gens(self) -> tuple[Poly, ...]:
        return tuple(row_vector(row, 1, self.field, self.den)[0]
                     for row in self.rows)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows, field: Field, config: EngineConfig = DEFAULT,
                  den: int = 1) -> "TruncatedIdeal":
        """The ideal of the nonzero rows / den; R, generated by 1, when one
        of them has a constant term."""
        rows = [row for row in rows if row]
        if not rows:
            raise ZeroIdealError("the zero ideal is not supported")
        if any(0 in row for row in rows):  # key 0 is the constant term
            rows, den = [monomial_row(0, 0)], 1
        span = span_with_certificate(rows, 1, field, config=config)
        return cls(field, span, config, rows, den)

    @classmethod
    def materialize(cls, gens, field: Field | None = None,
                    config: EngineConfig = DEFAULT) -> "TruncatedIdeal":
        """The ideal of the nonzero Polys `gens`, by `from_rows`."""
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            raise ZeroIdealError("the zero ideal is not supported")
        if field is None:
            field = gens[0].field
        for g in gens:
            if g.field != field:
                raise FieldMismatchError("generators over different fields")
        rows, den = vector_rows([(g,) for g in gens], field)
        return cls.from_rows(rows, field, config, den)

    @classmethod
    def from_monomial(cls, ideal: staircase.MonomialIdeal, field: Field,
                      config: EngineConfig = DEFAULT) -> "TruncatedIdeal":
        cert = staircase.power_certificate(ideal)
        if cert >= config.truncation_ceiling:  # the staircase knows n0
            raise TruncationCeilingError(
                f"the Nakayama certificate n0 = {cert} of {ideal} is not "
                f"below the truncation ceiling {config.truncation_ceiling}: "
                f"raise --ceiling")
        return cls.from_rows([monomial_row(*g) for g in ideal.gens], field,
                             config)

    # -- basic structure --------------------------------------------------

    @property
    def n0(self) -> int:
        return self.span.n0

    @property
    def is_unit(self) -> bool:
        return self.n0 == 0

    def colength(self) -> int:
        return self.span.colength()

    def contains_poly(self, f: Poly) -> bool:
        if f.field != self.field:
            raise FieldMismatchError("membership across fields")
        return self.span.contains_row(vector_row((f,)))

    # -- comparisons ------------------------------------------------------

    def contains_ideal(self, other: "TruncatedIdeal") -> bool:
        if other.field != self.field:
            raise FieldMismatchError("containment across fields")
        return all(self.span.contains_row(row) for row in other.rows)

    def equals(self, other: "TruncatedIdeal") -> bool:
        if self.field != other.field:
            raise FieldMismatchError("comparing ideals over different fields")
        return (self.colength() == other.colength()
                and self.contains_ideal(other))

    # -- arithmetic ---------------------------------------------------------

    def product(self, other: "TruncatedIdeal") -> "TruncatedIdeal":
        """I*J from the standard rows of each, a square's pairs once, in the
        factors' slot sums: S_s(M)*S_t(M) = S_(s+t)(M) for Sym_1 forms.
        m^(n0(I) + n0(J)) <= I*J, so the rows are cut above that degree, or
        at the truncation ceiling; n0(I*J) is often lower."""
        ceiling = self.config.truncation_ceiling
        cap = min(self.n0 + other.n0, ceiling - 1)
        slots = slot_sums(self.span.slots, other.span.slots)
        rows = [row_product(a, b, cap, self.field.p)
                for i, a in enumerate(self.standard_rows)
                for b in other.standard_rows[i if other is self else 0:]]
        try:
            span = span_with_certificate(rows, len(slots), self.field,
                                         config=self.config)
        except NotMPrimaryError:  # I*J has finite colength: the ceiling
            raise TruncationCeilingError(
                f"a power or product has no Nakayama certificate below the "
                f"truncation ceiling {ceiling}: raise --ceiling") from None
        return TruncatedIdeal(self.field, span, self.config, rows)

    def square(self) -> "TruncatedIdeal":
        """I*I, built by `product` on first use and kept."""
        if self._square is None:
            self._square = self.product(self)
        return self._square

    def powers(self):
        """I, I^2 (the kept square), I^3, ... by `product`, until a power
        passes the truncation ceiling (TruncationCeilingError)."""
        power = self
        while True:
            yield power
            power = self.square() if power is self else power.product(self)

    def colon(self, other: "TruncatedIdeal") -> "TruncatedIdeal":
        """(self : other) = { r : r * other <= self }, by `span_colon`."""
        return span_colon(self.span, other.rows, self.config)

    # -- conversions ---------------------------------------------------------

    @cached_property
    def standard_rows(self) -> list[dict]:
        """Rows of generators of I, at most n0 + 1 per slot: for each slot s
        and each minimal generator u of its lead ideal L_s = (leads in slot
        s) + m^n0, the stored row of lead u in slot s, or the row of u there.

        A stored row lies in I + m^n0 F = I, and v times it has least key
        v*lead.  The least term of f in I lies in its slot's L_s (the rows
        are an echelon basis of I/m^n0 F), so subtracting a multiple of v
        times one generator raises f's least key.  So I <= I' + m^k F for
        their span I' and every k, and I = I' by Krull's intersection
        theorem in F/I'.  The rows are read reduced, so every holder of a
        shared span gets the same list.
        """
        self.span.basis.interreduce()
        rows, n0 = self.span.basis.rows, self.n0
        leads: dict = {slot: {} for slot in self.span.slots}
        for k in rows:
            leads[key_slot(k)][key_exponents(k)] = k
        out = []
        for slot, lead in leads.items():
            lead_ideal = staircase.MonomialIdeal.from_exponents(
                list(lead) + [(n0 - b, b) for b in range(n0 + 1)])
            out += [rows[lead[u]] if u in lead else monomial_row(*u, slot)
                    for u in lead_ideal.gens]
        return out

    def to_monomial(self) -> staircase.MonomialIdeal | None:
        """The monomial ideal equal to self, if self is monomial: as m^n0 <= I,
        that is when monomials span I/m^n0, read off its reduced basis."""
        leads = self.span.basis.term_leads(self.n0 - 1)
        if leads is None:
            return None
        return staircase.MonomialIdeal.from_exponents(
            leads + [(self.n0 - b, b) for b in range(self.n0 + 1)])

    def __repr__(self):
        return (f"TruncatedIdeal({self.field}, n0={self.n0}, "
                f"gens={[str(g) for g in self.gens]})")
