"""Reductions, integral closure membership, adjoints and multiplicities
for finite-colength ideals.

A reduction J <= I with J*I^n = I^(n+1) is certified, never assumed: the
equality is established by a Nakayama argument inside a high enough
truncation, or, once such a reduction has fixed e(I), by Rees' theorem
colength(J) = e(I); the certificate is recorded so callers can re-verify.
The one-colength decision (`by_multiplicity`, `MultiplicityCertificate`)
serves modules too, with br(M) in place of e(I).
Generic elements come from a seeded sampler; genericity failures are
detected (certificate fails, or cross-seed disagreement) and resampled.
A certificate that is not found is None.  `check_closed` is the one
refusal of input that is not integrally closed, for adjoints and cores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import pairwise
from math import comb

from .errors import (GenericityError, MathError, NotMPrimaryError,
                     TruncationCeilingError, ZeroIdealError)
from .field import Field
from .poly import Poly
from .linalg import combine, distinct_rows, row_product
from .trunc import (TruncatedIdeal, monomials_below, nakayama_covers,
                    vector_rows)
from . import staircase


# Generic coefficients over Q are drawn from {-B,...,B} minus 0.
COEFFICIENT_POOL = 10
# Draws of a reduction search before a genericity failure is reported.
RETRY_LIMIT = 8
# Independent sampler seeds used to cross-check colon-method adjoints.
ADJOINT_SEEDS = 3


@dataclass
class GenericSampler:
    """Deterministic source of generic field coefficients."""

    seed: int = 42

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def coefficient(self, fld: Field) -> int:
        if fld.p is None:
            v = self._rng.randint(1, 2 * COEFFICIENT_POOL)
            return v - COEFFICIENT_POOL if v > COEFFICIENT_POOL else -v
        return self._rng.randrange(1, fld.p)

    def combination(self, rows: list[dict], fld: Field) -> dict:
        """A generic k-linear combination of the given rows (`combine`),
        one coefficient per row in order."""
        return combine({i: self.coefficient(fld) for i in range(len(rows))},
                       rows, fld.p)

    def spawn(self, offset: int) -> "GenericSampler":
        return GenericSampler(self.seed + offset)


def search_reduction(rows, rank: int, fld: Field, sampler: GenericSampler,
                     build, certify, ceiling: int, refuted: str | None = None):
    """(N, certify(N, drawn)) for the first draw of rank+1 seeded-generic
    combinations of `rows`, the columns over one common denominator
    (`vector_rows`), that `build` turns into a finite-colength N and
    `certify` does not answer None; GenericityError after RETRY_LIMIT
    draws, naming the truncation ceiling when no draw was decided, both
    built and certified or refuted, below it, else `refuted`: what a None
    from `certify` may mean besides a field too small for generic draws."""
    decided = False
    for _ in range(RETRY_LIMIT):
        cand = [sampler.combination(rows, fld) for _ in range(rank + 1)]
        try:
            N = build(cand)
            cert = certify(N, cand)
        except (NotMPrimaryError, ZeroIdealError, TruncationCeilingError):
            continue
        decided = True
        if cert is not None:
            return N, cert
    reason = ((refuted or "the field may be too small or the input "
               "pathological") if decided
              else f"no draw could be decided below the truncation ceiling "
              f"{ceiling}: raise --ceiling")
    raise GenericityError(
        f"no certified reduction by {rank + 1} generic combinations in "
        f"{RETRY_LIMIT} draws; {reason}")


def power_difference(I: TruncatedIdeal, order: int) -> int:
    """The order-th difference of 0, colength(I), colength(I^2), ... once
    stable at three places: e(I) at order 2, br(M) at rank + 1 on M.sym."""
    seen, stable = [0], []
    for power in I.powers():
        seen.append(power.colength())
        if len(seen) > order:
            stable.append(sum((-1) ** k * comb(order, k) * seen[-1 - k]
                              for k in range(order + 1)))
            if stable[-3:] == [stable[-1]] * 3:
                return stable[-1]


@dataclass(frozen=True)
class ReductionCertificate:
    """Witness that J*I^n = I^(n+1), or S_1(N)*S_n(M) = S_(n+1)(M) with
    n = `degree` (0 for a free module): re-verifiable by re-running it."""

    exponent: int
    colength: int  # of I^(n+1)
    trivial: bool = False

    @property
    def degree(self) -> int:
        return self.exponent


def smaller_ideal_equals(big: TruncatedIdeal, small_rows: list[dict]) -> bool:
    """Decide ideal(small_rows) == big, given ideal(small_rows) <= big, by
    `nakayama_covers` on the certified span of `big`."""
    return nakayama_covers(big.span, small_rows)


def is_reduction(J: TruncatedIdeal, I: TruncatedIdeal, nmax: int | None = None,
                 names=("J", "I")):
    """The certificate of the first n <= nmax with J*I^n = I^(n+1), or None;
    J is read by its `rows` (and `colength()` if nmax is None), so on I =
    M.sym it may be a module N of any colength.  `names` name J and I.

    None is one-sided: no certificate up to the bound is not a disproof.
    A power past the truncation ceiling raises TruncationCeilingError.
    The default bound tries n = 1 first and falls back to colength(J).
    """
    if not I.contains_ideal(J):
        raise MathError("{} is not contained in {}".format(*names))
    if nmax is None:
        nmax = max(1, J.colength())
    for n, (power, bigger) in zip(range(1, nmax + 1), pairwise(I.powers())):
        q_rows = [row_product(g, h, bigger.n0, I.field.p)
                  for g in J.rows for h in power.standard_rows]
        if smaller_ideal_equals(bigger, q_rows):
            return ReductionCertificate(n, bigger.colength())
    return None


def _first_reduction(I: TruncatedIdeal, sampler: GenericSampler, certify):
    """(J, certify(J)) for the first 2-generated draw J <= I that `certify`
    does not answer None; I's generators are read as Polys, and J's only
    when asked."""
    if I.is_unit:
        raise NotMPrimaryError("the unit ideal has no minimal reduction")
    rows, den = vector_rows([(g,) for g in I.gens], I.field)
    return search_reduction(
        rows, 1, I.field, sampler,
        lambda cand: TruncatedIdeal.from_rows(cand, I.field, I.config, den),
        certify, I.config.truncation_ceiling)


def minimal_reduction(I: TruncatedIdeal, sampler: GenericSampler):
    """Two seeded-generic combinations of the generators, with certificate."""
    return _first_reduction(I, sampler, lambda J, _: is_reduction(J, I))


@dataclass(frozen=True)
class MultiplicityCertificate:
    """Witness that the parameter ideal or module N <= M with these drawn
    columns (rows over one common denominator, `vector_rows`) is a
    reduction, by one colength: colength(N) = e, the colength of the
    reduction that `reference` certifies, so both can be re-verified.

    R is formally equidimensional, so an m-primary J <= I is a reduction
    exactly when e(J) = e(I) (Rees 1961); a finite-colength N <= M is one
    exactly when br(N) = br(M) (Katz 1995, Kleiman-Thorup 1994).  For a
    parameter ideal or module the multiplicity is its colength (Buchsbaum-
    Rim 1964).  No power of I and no symmetric power was checked: degree 0.
    """

    columns: tuple
    e: int
    reference: object  # the ReductionCertificate
    degree: int = 0
    trivial: bool = False


def by_multiplicity(e: int, reference):
    """The `certify` of a reduction search of I or M that knows e = e(I) or
    br(M): e(N) >= e always, so colength(N) > e refutes the draw N, and
    colength(N) < e means e is not the multiplicity."""
    def certify(N, columns):
        ell = N.colength()
        if ell < e:
            raise MathError(f"a parameter ideal or module N <= M has "
                            f"colength {ell} below the reference "
                            f"multiplicity {e}")
        if ell == e:
            return MultiplicityCertificate(tuple(columns), e, reference)
    return certify


def rees_reduction(I: TruncatedIdeal, sampler: GenericSampler, e: int,
                   reference: ReductionCertificate):
    """A 2-generated reduction of I, given e = e(I), by one colength per draw
    (`by_multiplicity`)."""
    return _first_reduction(I, sampler, by_multiplicity(e, reference))


def is_integral_element(f: Poly, I: TruncatedIdeal, nmax: int | None = None):
    """The certificate that f is integral over I (I is a reduction of
    I + (f)), or None: one-sided, no certificate up to the bound or below
    the truncation ceiling.
    """
    if f.is_zero or I.contains_poly(f):
        return ReductionCertificate(0, I.colength())
    if f.constant_term() != I.field.zero:
        raise MathError("candidate element must lie in the maximal ideal")
    enlarged = TruncatedIdeal.materialize(list(I.gens) + [f], I.field,
                                          config=I.config)
    try:
        return is_reduction(I, enlarged, nmax=nmax)
    except TruncationCeilingError:
        return None


@dataclass(frozen=True)
class ClosureResult:
    ideal: TruncatedIdeal
    exact: bool


def integral_closure_ideal(I: TruncatedIdeal,
                           nmax: int | None = None) -> ClosureResult:
    """Integral closure: exact via the staircase oracle for monomial input,
    otherwise a certified enlargement I <= J <= closure(I) from monomial
    candidates (flagged exact only in the monomial case)."""
    mono = I.to_monomial()
    if mono is not None:
        closed = staircase.integral_closure(mono)
        return ClosureResult(TruncatedIdeal.from_monomial(
            closed, I.field, config=I.config), True)
    current = I
    bound = I.n0
    while True:
        added = []
        for m in monomials_below(bound):
            if m.degree == 0:
                continue
            cand = Poly.monomial(I.field, m)
            if current.contains_poly(cand):
                continue
            if is_integral_element(cand, current, nmax=nmax) is not None:
                added.append(cand)
        if not added:
            return ClosureResult(current, False)
        current = TruncatedIdeal.materialize(list(current.gens) + added,
                                             I.field, config=I.config)


def check_closed(parts):
    """Refuse input whose ideals, one per slot (monomial, or None where that
    is not known and so not decided here), include one that is not
    integrally closed: adj(I) = (J : I) and core(M) = adj(I(M))*M need it."""
    for slot, part in enumerate(parts, 1):
        if part and (closure := staircase.integral_closure(part)) != part:
            raise MathError(
                f"the input must be integrally closed (adj(I) = (J : I) and "
                f"core(M) = adj(I(M))*M need it); slot {slot} is {part}, "
                f"whose integral closure is {closure}")


def adjoint_ideal(I: TruncatedIdeal, sampler: GenericSampler) -> TruncatedIdeal:
    """Adjoint by the colon formula: (J : I) for a minimal reduction J.

    Requires I integrally closed (`check_closed` decides it when I is
    monomial, the caller asserts it otherwise).  The first seed's J is
    certified by powers of I, with exponent 1 if I is closed: I^2 = J*I for
    every minimal reduction J (Lipman-Teissier 1981; R(X) for a finite
    field).  Its colon must have colength(J) - colength(I), as linkage
    gives for a parameter ideal J <= I (Peskine-Szpiro 1974).  The later
    seeds' J_k, certified by colength e(I) (`rees_reduction`), must agree,
    as J : I = adj(I) for closed I: their colons have that colength too,
    so J_k : I = first exactly when first*I <= J_k.
    On monomial input the output is checked to be integrally closed.
    """
    if I.is_unit:
        return I
    mono = I.to_monomial()
    check_closed([mono])
    J, cert = minimal_reduction(I, sampler.spawn(0))
    if cert.exponent > 1:
        raise MathError(f"the input is not integrally closed: J*I != I^2 for "
                        f"a minimal reduction J (exponent {cert.exponent})")
    e, first = J.colength(), J.colon(I)
    if first.colength() != e - I.colength():
        raise MathError("colength(J : I) is not colength(J) - colength(I)")
    products = distinct_rows(row_product(g, h, None, I.field.p)
                             for g in first.standard_rows
                             for h in I.standard_rows)
    for k in range(1, ADJOINT_SEEDS):
        J, _ = rees_reduction(I, sampler.spawn(1009 * k), e, cert)
        if not all(J.span.contains_row(f) for f in products):
            raise MathError("the input is not integrally closed: colon "
                            "adjoints disagree across seeds")
    if mono is not None:
        out = first.to_monomial()
        if out is None or staircase.integral_closure(out) != out:
            raise GenericityError("colon adjoint of a monomial ideal is not "
                                  "integrally closed")
    return first


def hilbert_samuel(I: TruncatedIdeal, sampler: GenericSampler) -> int:
    """Multiplicity by two independent methods; they must agree.

    Method A: colength of a verified 2-generated minimal reduction.
    Method B: second differences of n -> colength(I^n), stabilized over
    three consecutive values (`power_difference`).
    """
    if I.is_unit:
        return 0
    method_a = minimal_reduction(I, sampler)[0].colength()
    method_b = power_difference(I, 2)
    if method_a != method_b:
        raise GenericityError(
            f"multiplicity methods disagree: reduction colength {method_a} "
            f"vs difference table {method_b}")
    return method_a


def term_ideal(gens) -> staircase.MonomialIdeal | None:
    """The monomial ideal of `gens` when every nonzero generator is a term."""
    gens = [g for g in gens if not g.is_zero]
    if not gens or not all(g.is_term for g in gens):
        return None
    return staircase.MonomialIdeal.from_exponents(
        [next(iter(g.terms)) for g in gens])
