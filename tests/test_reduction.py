import pytest

from regcore.config import EngineConfig
from regcore.errors import GenericityError, MathError, NotMPrimaryError
from regcore.field import QQ, PrimeField
from regcore.poly import parse_poly
from regcore.reduction import (GenericSampler, NotUpToBound,
                               ReductionCertificate, adjoint_ideal,
                               adjoint_iterate, adjoint_of_generators,
                               hilbert_samuel, integral_closure_ideal,
                               is_integral_element, is_reduction,
                               minimal_reduction)
from regcore.staircase import MonomialIdeal, multiplicity
from regcore.trunc import TruncatedIdeal

F65537 = PrimeField(65537)
M = MonomialIdeal.max_power


def P(text, field=QQ):
    return parse_poly(text, field)


def Tr(*texts, field=QQ):
    return TruncatedIdeal.materialize([P(t, field) for t in texts], field)


def from_mono(ideal, field=QQ):
    return TruncatedIdeal.from_monomial(ideal, field)


def test_parameter_subideal_is_reduction_of_m2():
    J = Tr("x^2", "y^2")
    I = from_mono(M(2))
    cert = is_reduction(J, I)
    assert isinstance(cert, ReductionCertificate)
    assert cert.exponent == 1
    assert cert.lhs_colength == cert.rhs_colength == 10  # colength of m^4


def test_generic_pair_is_reduction_of_m2():
    J = Tr("x^2 + y^2", "x*y")
    cert = is_reduction(J, from_mono(M(2)))
    assert isinstance(cert, ReductionCertificate)
    assert cert.exponent == 1


def test_cubes_are_not_a_reduction_of_m2():
    J = Tr("x^3", "y^3")
    outcome = is_reduction(J, from_mono(M(2)), nmax=4)
    assert isinstance(outcome, NotUpToBound)


def test_reduction_requires_inclusion():
    with pytest.raises(MathError):
        is_reduction(Tr("x", "y"), from_mono(M(2)))


def test_minimal_reduction_of_m2_certified():
    J, cert = minimal_reduction(from_mono(M(2)), GenericSampler(seed=42))
    assert cert.exponent == 1
    assert J.colength() == 4  # equals e(m^2)
    # deterministic given the seed
    J2, _ = minimal_reduction(from_mono(M(2)), GenericSampler(seed=42))
    assert J.equals(J2)


def test_minimal_reduction_of_worked_example():
    worked = Tr("x^3", "x*y", "y^2")
    J, cert = minimal_reduction(worked, GenericSampler(seed=7))
    assert J.colength() == 5 == multiplicity(worked.to_monomial())


class StuckSampler(GenericSampler):
    draws = 0

    def combination(self, gens):
        self.draws += 1
        return gens[0]


def test_sampler_takes_pool_and_retries_from_the_config():
    # every draw of StuckSampler is the same polynomial, so each retry
    # fails and the retry limit sets the number of draws
    config = EngineConfig(truncation_ceiling=8, retry_limit=3)
    sampler = StuckSampler(1, config)
    with pytest.raises(GenericityError):
        minimal_reduction(from_mono(M(2)), sampler, config=config)
    assert sampler.draws == 2 * 3
    config = EngineConfig(coefficient_pool=1)
    sampler = GenericSampler(42, config)
    assert sampler.spawn(1009).config is config
    J, _ = minimal_reduction(from_mono(M(2)), sampler, config=config)
    assert {abs(c) for g in J.gens for c in g.terms.values()} == {1}
    assert J.colength() == 4


def test_minimal_reduction_rejects_unit():
    with pytest.raises(NotMPrimaryError):
        minimal_reduction(TruncatedIdeal.unit(QQ), GenericSampler(seed=1))


def test_integral_element_certificates():
    I = Tr("x^2", "y^2")
    ok, cert = is_integral_element(P("x*y"), I)
    assert ok and cert.exponent == 1
    bad, outcome = is_integral_element(P("x"), I, nmax=3)
    assert not bad
    assert isinstance(outcome, NotUpToBound)
    triv, _ = is_integral_element(P("x^2"), I)
    assert triv


def test_integral_closure_monomial_mode():
    res = integral_closure_ideal(Tr("x^2", "y^2"))
    assert res.exact
    assert res.ideal.to_monomial() == M(2)
    res2 = integral_closure_ideal(from_mono(M(4)))
    assert res2.exact and res2.ideal.to_monomial() == M(4)


def test_integral_closure_candidate_mode():
    res = integral_closure_ideal(Tr("x^2 - y^3", "x*y"), mode="candidates")
    assert not res.exact  # certified lower bound
    # whatever was added is certified integral: y^2 is, over this ideal
    assert res.ideal.contains_ideal(Tr("x^2 - y^3", "x*y"))


def test_adjoint_of_m2_by_colon():
    adj = adjoint_ideal(from_mono(M(2)), GenericSampler(seed=42))
    assert adj.to_monomial() == M(1)


def test_adjoint_worked_example_both_methods():
    worked = Tr("x^3", "x*y", "y^2")
    colon = adjoint_ideal(worked, GenericSampler(seed=42))
    assert colon.to_monomial() == M(1)
    gens, mono = adjoint_of_generators([P("x^3"), P("x*y"), P("y^2")], QQ,
                                       "howald", GenericSampler(seed=42))
    assert mono == M(1)


def test_adjoint_m5_matches_lattice_oracle():
    adj = adjoint_ideal(from_mono(M(5)), GenericSampler(seed=3))
    assert adj.to_monomial() == M(4)


def test_adjoint_iterate_chain():
    assert adjoint_iterate(from_mono(M(5)), 2,
                           GenericSampler(seed=5)).to_monomial() == M(3)
    assert adjoint_iterate(from_mono(M(2)), 0,
                           GenericSampler(seed=5)).to_monomial() == M(2)
    assert adjoint_iterate(from_mono(M(2)), 2, GenericSampler(seed=5)).is_unit
    assert adjoint_iterate(from_mono(M(2)), 9, GenericSampler(seed=5)).is_unit


def test_adjoint_content_factoring():
    # adj(x^2*y * m^2) = x^2*y * m
    shifted = MonomialIdeal.from_exponents([(4, 1), (3, 2), (2, 3)])
    gens, mono = adjoint_of_generators(
        [P("x^4*y"), P("x^3*y^2"), P("x^2*y^3")], QQ, "howald",
        GenericSampler(seed=1))
    assert mono == M(1).shift((2, 1))


def test_hilbert_samuel_powers():
    for n in (1, 2, 3):
        assert hilbert_samuel(from_mono(M(n)), GenericSampler(seed=11)) == n * n


def test_hilbert_samuel_worked_example():
    assert hilbert_samuel(Tr("x^3", "x*y", "y^2"), GenericSampler(seed=11)) == 5


def test_hilbert_samuel_unit():
    assert hilbert_samuel(TruncatedIdeal.unit(QQ), GenericSampler(seed=1)) == 0


def test_prime_field_reduction():
    I = from_mono(M(3), F65537)
    J, cert = minimal_reduction(I, GenericSampler(seed=42))
    assert cert.exponent == 1
    assert J.colength() == 9
    adj = adjoint_ideal(I, GenericSampler(seed=42))
    assert adj.to_monomial() == M(2)
