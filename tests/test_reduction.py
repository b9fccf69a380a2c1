import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from regcore import reduction
from regcore.cli import divide_monomial_content
from regcore.config import EngineConfig
from regcore.errors import (GenericityError, MathError, NotMPrimaryError,
                            ZeroIdealError)
from regcore.field import QQ, PrimeField
from regcore.modcore import ModuleRep, buchsbaum_rim, minimal_reduction_module
from regcore.poly import parse_poly
from regcore.poly import Poly
from regcore.reduction import (COEFFICIENT_POOL, RETRY_LIMIT, GenericSampler,
                               MultiplicityCertificate,
                               ReductionCertificate,
                               adjoint_ideal, hilbert_samuel,
                               integral_closure_ideal, is_integral_element,
                               is_reduction, minimal_reduction,
                               rees_reduction, term_ideal)
from regcore.staircase import (MonomialIdeal, adjoint, integral_closure,
                               multiplicity)
from regcore.trunc import TruncatedIdeal, span_colon, vector_row

from test_trunc import as_m_primary, mixed_ideals

F7 = PrimeField(7)

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
    assert cert.colength == 10  # colength of m^4


def test_generic_pair_is_reduction_of_m2():
    J = Tr("x^2 + y^2", "x*y")
    cert = is_reduction(J, from_mono(M(2)))
    assert isinstance(cert, ReductionCertificate)
    assert cert.exponent == 1


def test_cubes_are_not_a_reduction_of_m2():
    J = Tr("x^3", "y^3")
    outcome = is_reduction(J, from_mono(M(2)), nmax=4)
    assert outcome is None


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
    """Every combination is the first column."""

    draws = 0

    def combination(self, columns):
        self.draws += 1
        return columns[0]


def test_sampler_takes_pool_and_retries_from_the_constants(monkeypatch):
    # every draw of StuckSampler is (g, g), so each retry fails and the
    # retry limit sets the number of combinations; the low ceiling of I
    # makes each failure fast
    I = TruncatedIdeal.from_monomial(M(2), QQ,
                                     config=EngineConfig(truncation_ceiling=8))
    sampler = StuckSampler(1)
    with pytest.raises(GenericityError):
        minimal_reduction(I, sampler)
    assert sampler.draws == 2 * RETRY_LIMIT
    J, _ = minimal_reduction(from_mono(M(2)), GenericSampler(42))
    assert all(1 <= abs(c) <= COEFFICIENT_POOL
               for g in J.gens for c in g.terms.values())
    # the pool is read when a coefficient is drawn
    monkeypatch.setattr(reduction, "COEFFICIENT_POOL", 1)
    J, _ = minimal_reduction(from_mono(M(2)), GenericSampler(42))
    assert {abs(c) for g in J.gens for c in g.terms.values()} == {1}
    assert J.colength() == 4


def test_minimal_reduction_rejects_unit():
    with pytest.raises(NotMPrimaryError):
        minimal_reduction(TruncatedIdeal.materialize([Poly.one(QQ)], QQ),
                          GenericSampler(seed=1))


def test_integral_element_certificates():
    I = Tr("x^2", "y^2")
    cert = is_integral_element(P("x*y"), I)
    assert cert is not None and cert.exponent == 1
    assert is_integral_element(P("x"), I, nmax=3) is None
    assert is_integral_element(P("x^2"), I) is not None


def test_integral_closure_monomial_mode():
    res = integral_closure_ideal(Tr("x^2", "y^2"))
    assert res.exact
    assert res.ideal.to_monomial() == M(2)
    res2 = integral_closure_ideal(from_mono(M(4)))
    assert res2.exact and res2.ideal.to_monomial() == M(4)


def test_integral_closure_candidate_mode():
    res = integral_closure_ideal(Tr("x^2 - y^3", "x*y"))
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
    mono = adjoint(term_ideal([P("x^3"), P("x*y"), P("y^2")]))
    assert mono == M(1)


def test_adjoint_m5_matches_lattice_oracle():
    adj = adjoint_ideal(from_mono(M(5)), GenericSampler(seed=3))
    assert adj.to_monomial() == M(4)


def test_adjoint_content_factoring():
    # adj(x^2*y * m^2) = x^2*y * m
    shifted = MonomialIdeal.from_exponents([(4, 1), (3, 2), (2, 3)])
    content, reduced = divide_monomial_content(
        [P("x^4*y"), P("x^3*y^2"), P("x^2*y^3")])
    mono = adjoint(term_ideal(reduced)).shift(content)
    assert mono == M(1).shift((2, 1))


def test_hilbert_samuel_powers():
    for n in (1, 2, 3):
        assert hilbert_samuel(from_mono(M(n)), GenericSampler(seed=11)) == n * n


def test_hilbert_samuel_worked_example():
    assert hilbert_samuel(Tr("x^3", "x*y", "y^2"), GenericSampler(seed=11)) == 5


def test_hilbert_samuel_unit():
    unit = TruncatedIdeal.materialize([Poly.one(QQ)], QQ)
    assert hilbert_samuel(unit, GenericSampler(seed=1)) == 0


def test_prime_field_reduction():
    I = from_mono(M(3), F65537)
    J, cert = minimal_reduction(I, GenericSampler(seed=42))
    assert cert.exponent == 1
    assert J.colength() == 9
    adj = adjoint_ideal(I, GenericSampler(seed=42))
    assert adj.to_monomial() == M(2)


def test_rees_reduction_accepts_by_colength_and_keeps_the_reference():
    I = from_mono(M(2))
    J1, cert = minimal_reduction(I, GenericSampler(seed=42))
    J, mcert = rees_reduction(I, GenericSampler(seed=43), J1.colength(), cert)
    assert isinstance(mcert, MultiplicityCertificate)
    assert mcert.e == J.colength() == 4
    assert mcert.reference is cert
    assert mcert.columns == tuple((g,) for g in J.gens)


class FixedPairSampler(GenericSampler):
    """Draws the same pair (f, g) every time."""

    def __init__(self, f, g):
        super().__init__(0)
        self.pair = [f, g]

    def combination(self, columns):
        self.pair.reverse()
        return (self.pair[0],)


def test_colength_above_e_is_not_a_reduction():
    # I = m has e = 1; J = (x, y^2) has colength 2 and is no reduction
    I, J = from_mono(M(1)), Tr("x", "y^2")
    assert J.colength() == 2
    assert is_reduction(J, I) is None
    _, cert = minimal_reduction(I, GenericSampler(seed=42))
    with pytest.raises(GenericityError):  # every draw is J, and refuted
        rees_reduction(I, FixedPairSampler(P("x"), P("y^2")), 1, cert)


def test_reference_multiplicity_too_large_raises():
    # e(m^2) = 4, so a reference e = 5 is wrong: every reduction drawn
    # has colength 4 < 5
    J1, cert = minimal_reduction(from_mono(M(2)), GenericSampler(seed=42))
    with pytest.raises(MathError):
        rees_reduction(from_mono(M(2)), GenericSampler(seed=43), 5, cert)


def _changed(field, exponents, lin):
    """Images of the monomials x^a*y^b under x -> a1*x + b1*y,
    y -> c1*x + d1*y."""
    (a1, b1), (c1, d1) = lin
    x = Poly.term(field, 1, 0, a1) + Poly.term(field, 0, 1, b1)
    y = Poly.term(field, 1, 0, c1) + Poly.term(field, 0, 1, d1)
    out = []
    for a, b in exponents:
        g = Poly.one(field)
        for _ in range(a):
            g = g * x
        for _ in range(b):
            g = g * y
        out.append(g)
    return out


def changed_monomial(field):
    """An m-primary monomial ideal of degree <= 4 after an invertible
    linear change of coordinates over Q and F7."""
    pts = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   min_size=1, max_size=4).map(as_m_primary).filter(
        lambda mono: not mono.is_unit)
    lin = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).flatmap(
        lambda row: st.tuples(st.just(row), st.tuples(
            st.integers(-3, 3), st.integers(-3, 3)).filter(
            lambda r: (row[0] * r[1] - row[1] * r[0]) % 7 != 0)))
    return st.tuples(pts, lin).map(lambda t: TruncatedIdeal.materialize(
        _changed(field, [(m.a, m.b) for m in t[0].gens], t[1]), field))


def _parent_adjoint_route(I, sampler):
    """adj(I) as computed before, every seed certified by powers of I; None
    when the seeds disagree."""
    colons = [minimal_reduction(I, sampler.spawn(1009 * k))[0].colon(I)
              for k in range(3)]
    if all(colons[0].equals(c) for c in colons[1:]):
        return colons[0]
    return None


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_rees_and_nakayama_agree(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    I = data.draw(st.one_of(mixed_ideals(field), changed_monomial(field)))
    seed = data.draw(st.integers(0, 10**6))
    J1, cert = minimal_reduction(I, GenericSampler(seed))
    e = J1.colength()
    for k in (1, 2):
        J, mcert = rees_reduction(I, GenericSampler(seed + 1009 * k), e, cert)
        assert J.colength() == mcert.e == e
        assert isinstance(is_reduction(J, I), ReductionCertificate)
    # a wrong e below every colength: each draw is refuted, none accepted
    with pytest.raises(GenericityError):
        rees_reduction(I, GenericSampler(seed), e - 1, cert)
    # the same draws are accepted, so the colon adjoint is unchanged; the
    # seeds may disagree, as I need not be integrally closed, and then I
    # is refused; refused input is skipped
    mono = I.to_monomial()
    if mono is None or integral_closure(mono) == mono:  # else refused
        expected = _parent_adjoint_route(I, GenericSampler(seed))
        try:
            adj = adjoint_ideal(I, GenericSampler(seed))
        except MathError as refused:
            assert "not integrally closed" in str(refused)
        else:
            assert expected is not None and adj.equals(expected)


def test_degree_four_coordinate_change_builds_no_powers(monkeypatch):
    # I = phi(x^4, x^2*y, x*y^3, y^4), phi = (3x - 3y, 3x - y): with this
    # seed a later draw is no reduction, which is_reduction can only learn
    # by building I^n up to n = colength(J)
    field = PrimeField(65537)
    lin = ((3, -3), (3, -1))
    mono = MonomialIdeal.from_exponents([(4, 0), (2, 1), (1, 3), (0, 4)])
    I = TruncatedIdeal.materialize(
        _changed(field, [(g.a, g.b) for g in mono.gens], lin), field)
    calls = []
    product = TruncatedIdeal.product
    monkeypatch.setattr(TruncatedIdeal, "product",
                        lambda self, other: calls.append(1)
                        or product(self, other))
    adj = adjoint_ideal(I, GenericSampler(seed=923069118))
    assert len(calls) <= 2
    expected = adjoint(mono)
    assert adj.colength() == 3
    assert all(adj.contains_poly(g) for g in
               _changed(field, [(g.a, g.b) for g in expected.gens], lin))


def linkage_inputs(field):
    """m-primary ideals, integrally closed or not, monomial or under a
    linear change of coordinates (invertible over Q, F7 and F65537), and
    binomial-perturbed ones."""
    pts = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   min_size=1, max_size=4).map(as_m_primary).filter(
        lambda mono: not mono.is_unit)
    monos = st.one_of(pts, pts.map(integral_closure))
    lins = st.sampled_from([((1, 0), (0, 1)), ((1, 1), (0, 1)),
                            ((2, -1), (1, 2)), ((3, -3), (3, -1))])
    return st.one_of(
        st.tuples(monos, lins).map(lambda t: TruncatedIdeal.materialize(
            _changed(field, [(m.a, m.b) for m in t[0].gens], t[1]), field)),
        mixed_ideals(field))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_colon_by_a_parameter_ideal_has_the_linked_colength(data):
    # linkage: colength(J : I) = colength(J) - colength(I) for J <= I
    # generated by two elements with finite colength
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    I = data.draw(linkage_inputs(field))
    sampler = GenericSampler(data.draw(st.integers(0, 10**6)))
    columns = [(g,) for g in I.gens]
    try:
        J = TruncatedIdeal.materialize(
            [sampler.combination(columns)[0] for _ in range(2)], field)
    except (NotMPrimaryError, ZeroIdealError):
        return  # J is no parameter ideal
    rows = [vector_row(c) for c in columns]
    assert span_colon(J.span, rows).colength() == \
        J.colength() - I.colength()


def test_seeds_that_disagree_are_refused(monkeypatch):
    # the later seeds' reductions are tested by first*I <= J_k; for this
    # ideal, which is not monomial, the colons still differ across seeds,
    # which only an ideal that is not integrally closed allows; every seed
    # here finds that earlier, by a first certificate exponent above 1
    gens = ["6*y^3", "6*x^2*y^3", "2*x^2*y", "6*x^3 + 3*x*y^2 + 3*x*y^3",
            "x^6", "y^6"]
    I = TruncatedIdeal.materialize([P(g, F7) for g in gens], F7)
    for seed in range(1, 7):
        with pytest.raises(MathError, match="not integrally closed"):
            adjoint_ideal(I, GenericSampler(seed))
    # a later seed that disagrees: for m^2, J_1 : I = m, and J = (x, y^4)
    # has the colength e(m^2) = 4 but not y^3 of m*m^2
    other = TruncatedIdeal.materialize([P("x"), P("y^4")], QQ)
    monkeypatch.setattr(reduction, "rees_reduction",
                        lambda *args: (other, None))
    with pytest.raises(MathError, match="not integrally closed: colon "
                                        "adjoints disagree across seeds"):
        adjoint_ideal(from_mono(M(2)), GenericSampler(1))


def test_one_square_per_ideal_and_no_higher_power_kept(monkeypatch):
    # phi(x^3, x*y, y^2), phi = (x + y, x - y): closed, not monomial; and
    # the twisted sum g*(m^2 (+) I), g = [[1, x + y], [0, 1]], whose Sym_1
    # form keeps S_2(M) the same way
    field = F65537
    gens = _changed(field, [(3, 0), (1, 1), (0, 2)], ((1, 1), (1, -1)))
    I = TruncatedIdeal.materialize(gens, field)
    zero, f = Poly.zero(field), P("x + y", field)
    mod = ModuleRep(field, 2, [(P(g, field), zero)
                               for g in ("x^2", "x*y", "y^2")]
                    + [(f * g, g) for g in gens])
    sym = mod.sym
    squares, built = [], []
    product = TruncatedIdeal.product

    def counted(self, other):
        out = product(self, other)
        if self is other and (self is I or self is sym):
            squares.append(out)
        built.append(weakref.ref(out))
        return out
    monkeypatch.setattr(TruncatedIdeal, "product", counted)
    assert hilbert_samuel(I, GenericSampler(1)) == 5
    assert adjoint_ideal(I, GenericSampler(2)).colength() == 1
    assert len(squares) == 1 and len(built) > 1  # I^3, ... were built too
    # S_2(M) certifies the reduction, then starts the difference table;
    # br(M) = br(m^2 (+) I) = e(m^2) + e(m^2|I) + e(I) = 4 + 4 + 5
    _, cert = minimal_reduction_module(mod, GenericSampler(3))
    assert cert.degree == 1
    assert buchsbaum_rim(mod) == 13
    assert len(squares) == 2 and squares[1] is sym.square()
    del squares
    gc.collect()
    assert [ref() for ref in built if ref() is not None] == \
        [I.square(), sym.square()]
