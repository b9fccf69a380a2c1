"""Reductions, integral closure membership, adjoints and multiplicities
for finite-colength ideals.

A reduction J <= I with J*I^n = I^(n+1) is certified, never assumed: the
equality is established by a Nakayama argument inside a high enough
truncation, and the certificate is recorded so callers can re-verify.
Generic elements come from a seeded sampler; genericity failures are
detected (certificate fails, or cross-seed disagreement) and resampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT, EngineConfig
from .errors import (GenericityError, MathError, NotMPrimaryError,
                     TruncationCeilingError)
from .field import Field
from .poly import Monomial, Poly
from .trunc import TruncatedIdeal, monomials_below, nakayama_covers
from . import staircase


@dataclass
class GenericSampler:
    """Deterministic source of generic field coefficients.

    The coefficient pool and the retry limit are read from `config`, so a
    sampler built from the config in use honours its tunables.
    """

    seed: int = 42
    config: EngineConfig = DEFAULT

    @property
    def pool(self) -> int:
        return self.config.coefficient_pool

    @property
    def retries(self) -> int:
        return self.config.retry_limit

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def coefficient(self, fld: Field):
        if fld.p is None:
            v = self._rng.randint(1, 2 * self.pool)
            return Fraction(v - self.pool if v > self.pool else -v)
        return self._rng.randrange(1, fld.p)

    def combination(self, gens: list[Poly]) -> Poly:
        """A generic k-linear combination of all the given generators."""
        fld = gens[0].field
        out = Poly.zero(fld)
        for g in gens:
            out = out + g.scale(self.coefficient(fld))
        return out

    def spawn(self, offset: int) -> "GenericSampler":
        return GenericSampler(self.seed + offset, self.config)


@dataclass(frozen=True)
class ReductionCertificate:
    """Witness that J*I^n = I^(n+1): re-verifiable by re-running the check."""

    subideal_gens: tuple[Poly, ...]
    exponent: int
    lhs_colength: int
    rhs_colength: int


@dataclass(frozen=True)
class NotUpToBound:
    """One-sided outcome: no certificate found for n <= bound."""

    bound: int
    note: str = ""


def smaller_ideal_equals(big: TruncatedIdeal, small_gens: list[Poly]) -> bool:
    """Decide ideal(small_gens) == big, given ideal(small_gens) <= big.

    Nakayama: it is enough that every generator of `big` lies in
    ideal(small_gens) + m*big, checked exactly in R/m^(n0(big)+1).
    """
    fld = big.field
    if big.is_unit:
        return any(g.constant_term() != fld.zero for g in small_gens)
    return nakayama_covers([(g,) for g in big.gens],
                           [(q,) for q in small_gens], 1, fld, big.n0)


def is_reduction(J: TruncatedIdeal, I: TruncatedIdeal, nmax: int | None = None,
                 config: EngineConfig = DEFAULT):
    """First n <= nmax with J*I^n = I^(n+1), or a one-sided NotUpToBound.

    Absence up to the bound is not a disproof.  The default bound tries
    n = 1 first and falls back to colength(J).
    """
    if not I.contains_ideal(J):
        raise MathError("J is not contained in I")
    if nmax is None:
        nmax = max(1, J.colength())
    power = I  # I^n, starting at n = 1
    for n in range(1, nmax + 1):
        try:
            next_power = power.product(I)  # I^(n+1)
        except TruncationCeilingError:
            return NotUpToBound(n - 1, "truncation ceiling reached")
        q_gens = [g * h for g in J.gens for h in power.gens]
        if smaller_ideal_equals(next_power, q_gens):
            ell = next_power.colength()
            return ReductionCertificate(tuple(J.gens), n, ell, ell)
        power = next_power
    return NotUpToBound(nmax)


def minimal_reduction(I: TruncatedIdeal, sampler: GenericSampler,
                      config: EngineConfig = DEFAULT):
    """Two seeded-generic combinations of the generators, with certificate."""
    if I.is_unit:
        raise NotMPrimaryError("the unit ideal has no minimal reduction")
    gens = list(I.gens)
    for _ in range(sampler.retries):
        cand = [sampler.combination(gens), sampler.combination(gens)]
        try:
            J = TruncatedIdeal.materialize(cand, I.field, config=config)
        except (NotMPrimaryError, TruncationCeilingError):
            continue
        outcome = is_reduction(J, I, config=config)
        if isinstance(outcome, ReductionCertificate):
            return J, outcome
    raise GenericityError(
        "no verified 2-generated reduction found; field may be too small "
        "or the input is pathological")


def is_integral_element(f: Poly, I: TruncatedIdeal, nmax: int | None = None,
                        config: EngineConfig = DEFAULT):
    """Is f integral over I?  (I must be a reduction of I + (f).)

    Returns (True, certificate) or (False, NotUpToBound): the negative is
    one-sided.
    """
    if f.is_zero or I.contains_poly(f):
        return True, ReductionCertificate(tuple(I.gens), 0,
                                          I.colength(), I.colength())
    if f.constant_term() != I.field.zero:
        raise MathError("candidate element must lie in the maximal ideal")
    enlarged = TruncatedIdeal.materialize(list(I.gens) + [f], I.field,
                                          config=config)
    outcome = is_reduction(I, enlarged, nmax=nmax, config=config)
    if isinstance(outcome, ReductionCertificate):
        return True, outcome
    return False, outcome


@dataclass(frozen=True)
class ClosureResult:
    ideal: TruncatedIdeal
    exact: bool


def integral_closure_ideal(I: TruncatedIdeal, mode: str = "auto",
                           nmax: int | None = None,
                           config: EngineConfig = DEFAULT) -> ClosureResult:
    """Integral closure: exact via the staircase oracle for monomial input,
    otherwise a certified enlargement I <= J <= closure(I) from monomial
    candidates (flagged exact only in the monomial case)."""
    if I.is_unit:
        return ClosureResult(I, True)
    mono = I.to_monomial() if mode in ("auto", "monomial") else None
    if mode == "monomial" and mono is None:
        raise MathError("monomial mode requested for a non-monomial ideal")
    if mono is not None:
        closed = staircase.integral_closure(mono)
        return ClosureResult(TruncatedIdeal.from_monomial(closed, I.field,
                                                          config=config), True)
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
            verdict, _ = is_integral_element(cand, current, nmax=nmax,
                                             config=config)
            if verdict:
                added.append(cand)
        if not added:
            return ClosureResult(current, False)
        current = TruncatedIdeal.materialize(list(current.gens) + added,
                                             I.field, config=config)


def _is_integrally_closed_monomial(I: TruncatedIdeal) -> bool | None:
    mono = I.to_monomial()
    if mono is None:
        return None
    return staircase.integral_closure(mono) == mono


def adjoint_ideal(I: TruncatedIdeal, sampler: GenericSampler,
                  config: EngineConfig = DEFAULT) -> TruncatedIdeal:
    """Adjoint by the colon formula: (J : I) for a minimal reduction J.

    Requires I integrally closed (verified when I is monomial, asserted by
    the caller otherwise).  The result is recomputed for independent
    sampler seeds and must agree; on monomial input the output is checked
    to be integrally closed.
    """
    if I.is_unit:
        return I
    closed = _is_integrally_closed_monomial(I)
    if closed is False:
        raise MathError("adjoint via colon requires an integrally closed ideal")
    results = []
    for k in range(max(1, config.adjoint_seed_checks)):
        J, _cert = minimal_reduction(I, sampler.spawn(1009 * k), config=config)
        results.append(J.colon(I))
    first = results[0]
    for other in results[1:]:
        if not first.equals(other):
            raise GenericityError("colon adjoints disagree across seeds")
    if closed is True:
        out_mono = first.to_monomial()
        if out_mono is None or staircase.integral_closure(out_mono) != out_mono:
            raise GenericityError("colon adjoint of a monomial ideal is not "
                                  "integrally closed")
    return first


def adjoint_iterate(I: TruncatedIdeal, t: int, sampler: GenericSampler,
                    config: EngineConfig = DEFAULT) -> TruncatedIdeal:
    """t-fold adjoint; reaches the unit ideal in finitely many steps."""
    current = I
    for _ in range(t):
        if current.is_unit:
            return current
        mono = current.to_monomial()
        if mono is not None:
            current = TruncatedIdeal.from_monomial(staircase.adjoint(mono),
                                                   I.field, config=config)
        else:
            current = adjoint_ideal(current, sampler, config=config)
    return current


def hilbert_samuel(I: TruncatedIdeal, sampler: GenericSampler,
                   config: EngineConfig = DEFAULT) -> int:
    """Multiplicity by two independent methods; they must agree.

    Method A: colength of a verified 2-generated minimal reduction.
    Method B: second differences of n -> colength(I^n), stabilized over
    three consecutive values.
    """
    if I.is_unit:
        return 0
    J, _cert = minimal_reduction(I, sampler, config=config)
    method_a = J.colength()

    lengths = [0, I.colength()]
    second_diffs: list[int] = []
    method_b = None
    power = I
    while method_b is None:
        try:
            power = power.product(I)
        except TruncationCeilingError:
            raise TruncationCeilingError(
                "cannot stabilize second differences under the truncation "
                "ceiling; raise it or use the reduction method") from None
        lengths.append(power.colength())
        n = len(lengths) - 1
        second_diffs.append(lengths[n] - 2 * lengths[n - 1] + lengths[n - 2])
        if len(second_diffs) >= 3 and \
                second_diffs[-1] == second_diffs[-2] == second_diffs[-3]:
            method_b = second_diffs[-1]
    if method_a != method_b:
        raise GenericityError(
            f"multiplicity methods disagree: reduction colength {method_a} "
            f"vs difference table {method_b}")
    return method_a


def monomial_content_of_gens(gens: list[Poly]) -> Monomial:
    """Largest monomial dividing every term of every generator."""
    a = b = None
    for g in gens:
        for m in g.terms:
            a = m.a if a is None else min(a, m.a)
            b = m.b if b is None else min(b, m.b)
    return Monomial(a or 0, b or 0)


def adjoint_of_generators(gens: list[Poly], fld: Field, method: str,
                          sampler: GenericSampler,
                          config: EngineConfig = DEFAULT):
    """Adjoint for possibly non-m-primary input: a monomial factor x^c y^d
    is pulled out first (adj(x*I) = x*adj(I)) and restored afterwards.

    Returns (generators, monomial_form_or_None).
    """
    content = monomial_content_of_gens(gens)
    reduced = gens
    if content.a or content.b:
        reduced = [Poly(fld, {Monomial(m.a - content.a, m.b - content.b): c
                              for m, c in g.terms.items()}) for g in gens]
    core = TruncatedIdeal.materialize(reduced, fld, config=config)
    mono = core.to_monomial()
    if method == "howald":
        if mono is None:
            raise MathError("the lattice method needs a monomial ideal")
        adj = staircase.adjoint(mono)
    elif method == "colon":
        result = adjoint_ideal(core, sampler, config=config)
        out_mono = result.to_monomial()
        if out_mono is not None:
            adj = out_mono
        else:
            shifted = [g.shift(content.a, content.b) for g in result.gens]
            return shifted, None
    else:
        raise MathError(f"unknown adjoint method {method!r}")
    if content.a or content.b:
        adj = adj.shift(content)
    return [Poly.monomial(fld, m) for m in adj.gens], adj
