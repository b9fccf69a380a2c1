from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from regcore.errors import NotMPrimaryError, ZeroIdealError
from regcore.field import QQ, PrimeField
from regcore.linalg import kernel_modulo, pack_key, times_monomial
from regcore.poly import Poly, parse_poly
from regcore.staircase import MonomialIdeal, colength as mono_colength
from regcore.modcore import ModuleRep, colon_into
from regcore.trunc import (TruncatedIdeal, monomials_below,
                           span_with_certificate, triangle, vector_row)

from oracles import (quotient_dimension, reference_colon, reference_kernel,
                     reference_span)

F7 = PrimeField(7)


def P(text, field=QQ):
    return parse_poly(text, field)


def Tr(*texts, field=QQ, order=None):
    return TruncatedIdeal.materialize([P(t, field) for t in texts],
                                      field, order=order)


M = MonomialIdeal.max_power


def test_maximal_ideal():
    ideal = Tr("x", "y", order=3)
    assert ideal.n0 == 1
    assert ideal.colength() == 1


def test_worked_mixed_ideal_certificate_and_colength():
    # oracle (independent Fraction elimination): dim k[x,y]/((x^2-y^3, xy)+m^8)
    gens = [[(1, 2, 0), (-1, 0, 3)], [(1, 1, 1)]]
    assert quotient_dimension(gens, 8) == 5
    ideal = Tr("x^2 - y^3", "x*y", order=8)
    assert ideal.n0 == 4
    assert ideal.colength() == 5


def test_nakayama_certificate_values():
    assert Tr("x", "y", order=3).contains_power(1)
    m2 = Tr("x^2", "x*y", "y^2", order=4)
    assert m2.contains_power(2)
    assert not m2.contains_power(1)
    worked = Tr("x^3", "x*y", "y^2", order=6)
    assert worked.contains_power(3)
    assert not worked.contains_power(2)
    assert not worked.contains_poly(P("x^2"))


def test_non_m_primary_is_rejected():
    with pytest.raises(NotMPrimaryError):
        Tr("x^2", order=6)
    with pytest.raises(NotMPrimaryError):  # n0 is 4: order 4 stops at stage 3
        Tr("x^2 - y^3", "x*y", order=4)
    assert Tr("x^2 - y^3", "x*y", order=5).n0 == 4
    with pytest.raises(NotMPrimaryError):
        TruncatedIdeal.materialize([P("x^2")], QQ)  # auto-raise hits ceiling


def test_zero_ideal_rejected():
    with pytest.raises(ZeroIdealError):
        TruncatedIdeal.materialize([Poly.zero(QQ)], QQ)


def test_unit_short_circuit():
    ideal = TruncatedIdeal.materialize([P("1 + x")], QQ)
    assert ideal.is_unit
    assert ideal.colength() == 0
    assert ideal.contains_poly(P("y^9"))


def test_colength_of_powers():
    assert Tr("x^3", "x^2*y", "x*y^2", "y^3").colength() == 6
    assert TruncatedIdeal.from_monomial(M(3), QQ).colength() == 6


def test_membership_cross_checks_staircase():
    worked = Tr("x^3", "x*y", "y^2")
    assert worked.contains_poly(P("x^2*y"))
    assert not worked.contains_poly(P("x^2"))
    assert worked.contains_poly(P("x^3 - x*y"))


def test_product_agrees_with_staircase():
    lhs = Tr("x^3", "x*y", "y^2").product(Tr("x", "y"))
    rhs = TruncatedIdeal.from_monomial(
        MonomialIdeal.from_exponents([(3, 0), (1, 1), (0, 2)]).product(M(1)), QQ)
    assert lhs.equals(rhs)


def test_sum_and_membership():
    s = Tr("x^2", "y^3").plus(Tr("x^3", "x*y", "y^2"))
    assert s.contains_poly(P("x*y"))
    assert s.equals(Tr("x^2", "x*y", "y^2"))
    assert s.colength() == 3


def test_intersection_of_mixed_ideals():
    left = Tr("x", "y^2")
    right = Tr("x^2", "y")
    expected = TruncatedIdeal.from_monomial(M(2), QQ)
    assert left.intersect(right).equals(expected)


def test_intersection_of_ideals_with_different_certificates():
    small_mono = MonomialIdeal.from_exponents([(3, 0), (0, 1)])
    big_mono = MonomialIdeal.from_exponents(
        [(5, 0), (4, 1), (3, 2), (2, 3), (0, 4)])
    small = TruncatedIdeal.from_monomial(small_mono, QQ)
    big = TruncatedIdeal.from_monomial(big_mono, QQ)
    assert (small.n0, big.n0) == (3, 5)
    expected = small_mono.intersect(big_mono)
    assert small.intersect(big).to_monomial() == expected
    assert big.intersect(small).to_monomial() == expected
    # growing a span in place leaves its own answers alone
    assert small.n0 == 3 and small.colength() == mono_colength(small_mono)


def test_colon_workhorse():
    j = Tr("x^2", "y^2")
    result = j.colon(Tr("x^2", "x*y", "y^2"))
    assert result.to_monomial() == M(1)


def test_colon_self_is_unit():
    ideal = Tr("x^3", "x*y", "y^2")
    assert ideal.colon(ideal).is_unit


def test_colon_closure_property():
    j = Tr("x^3", "y^3")
    i = Tr("x^2", "x*y", "y^2")
    c1 = j.colon(i)
    c3 = j.colon(j.colon(j.colon(i)))
    assert c1.equals(c3)
    # colon(J, I) * I <= J
    prod = c1.product(i)
    assert j.contains_ideal(prod)


def test_results_independent_of_order():
    a = Tr("x^2 - y^3", "x*y", order=8)
    b = Tr("x^2 - y^3", "x*y", order=10)
    assert a.colength() == b.colength()
    assert a.n0 == b.n0
    assert a.equals(b)


def test_to_monomial_detects_and_rejects():
    assert Tr("x^2", "x*y", "y^2").to_monomial() == M(2)
    assert Tr("x^2 - y^3", "x*y").to_monomial() is None


def test_prime_field_engine():
    ideal = Tr("x^2 - y^3", "x*y", field=F7, order=8)
    assert ideal.n0 == 4
    assert ideal.colength() == 5


def test_equals_across_materializations():
    a = Tr("x^2", "x*y", "y^2")
    b = Tr("x^2", "x*y", "y^2", "x^2 + x*y")
    assert a.equals(b)


mono_pts = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=1, max_size=5)


def as_m_primary(pts):
    pts = list(pts) + [(max(a for a, _ in pts) + 1, 0), (0, max(b for _, b in pts) + 1)]
    return MonomialIdeal.from_exponents(pts)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(mono_pts, mono_pts)
def test_dual_backend_ops_agree(p1, p2):
    a_mono, b_mono = as_m_primary(p1), as_m_primary(p2)
    a = TruncatedIdeal.from_monomial(a_mono, QQ)
    b = TruncatedIdeal.from_monomial(b_mono, QQ)
    assert a.colength() == mono_colength(a_mono)
    assert a.product(b).to_monomial() == a_mono.product(b_mono)
    assert a.plus(b).to_monomial() == a_mono.plus(b_mono)
    assert a.intersect(b).to_monomial() == a_mono.intersect(b_mono)
    assert a.colon(b).to_monomial() == a_mono.colon(b_mono)
    assert a.equals(b) == (a_mono == b_mono)


def mixed_ideals(field=QQ):
    """Small non-monomial m-primary ideals: binomial-perturbed antichains."""
    def build(data):
        (a0, b0, pa, pb, qa, qb, sign) = data
        gens = [P(f"x^{a0}", field), P(f"y^{b0}", field),
                P(f"x^{pa}*y^{pb}", field)
                + P(f"x^{qa}*y^{qb}", field).scale(sign)]
        return TruncatedIdeal.materialize(gens, field)
    return st.tuples(st.integers(2, 4), st.integers(2, 4),
                     st.integers(1, 3), st.integers(0, 2),
                     st.integers(0, 2), st.integers(1, 3),
                     st.sampled_from([1, -1, 2])).map(build)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(mixed_ideals(), mixed_ideals())
def test_colon_properties_on_mixed_ideals(j, i):
    c = j.colon(i)
    # colon(J, I) * I <= J, always
    assert j.contains_ideal(c.product(i))
    # the colon is a fixed point of the triple iteration
    assert j.colon(j.colon(j.colon(i))).equals(c)
    # 1 in colon(J, I) exactly when I <= J
    assert c.is_unit == j.contains_ideal(i)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(mixed_ideals(), mixed_ideals())
def test_lattice_relations_on_mixed_ideals(i, j):
    meet = i.intersect(j)
    join = i.plus(j)
    assert i.contains_ideal(meet) and j.contains_ideal(meet)
    assert join.contains_ideal(i) and join.contains_ideal(j)
    # (I meet J) * (I join J) <= I*J
    assert i.product(j).contains_ideal(meet.product(join))
    # modularity of colengths: len(R/meet) + len(R/join) = len(R/I) + len(R/J)
    assert meet.colength() + join.colength() == i.colength() + j.colength()


def changed_monomial_gens(field):
    """Generators of an m-primary monomial ideal after a linear change of
    coordinates x -> a*x + b*y, y -> c*x + d*y, invertible over Q and F7."""
    def build(data):
        pts, (a, b, c, d) = data
        x = Poly.term(field, 1, 0, a) + Poly.term(field, 0, 1, b)
        y = Poly.term(field, 1, 0, c) + Poly.term(field, 0, 1, d)
        gens = []
        for m in as_m_primary(pts).gens:
            g = Poly.one(field)
            for _ in range(m.a):
                g = g * x
            for _ in range(m.b):
                g = g * y
            gens.append(g)
        return gens
    coeffs = st.tuples(*[st.integers(-3, 3)] * 4).filter(
        lambda t: (t[0] * t[3] - t[1] * t[2]) % 7 != 0)
    return st.tuples(mono_pts, coeffs).map(build)


def probe_polys(field):
    terms = st.tuples(st.integers(0, 6), st.integers(0, 6),
                      st.sampled_from([1, -1, 2, 3]))
    return st.lists(terms, min_size=1, max_size=3).map(
        lambda ts: sum((Poly.term(field, a, b, c) for a, b, c in ts),
                       Poly.zero(field)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_builder_matches_reference_builder(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    gens = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field))
    i_gens, j_gens = data.draw(gens), data.draw(gens)
    probes = data.draw(st.lists(probe_polys(field), min_size=4, max_size=4))
    new_i, new_j = (TruncatedIdeal.materialize(g, field)
                    for g in (i_gens, j_gens))
    ref_i, ref_j = (TruncatedIdeal(field, g, reference_span(
        [(f,) for f in g], 1, field), False) for g in (i_gens, j_gens))
    for new, ref in ((new_i, ref_i), (new_j, ref_j)):
        assert new.n0 == ref.n0
        assert new.colength() == ref.colength()
        assert [new.contains_poly(f) for f in probes] == \
            [ref.contains_poly(f) for f in probes]
    assert new_i.intersect(new_j).equals(ref_i.intersect(ref_j))
    assert new_i.colon(new_j).equals(ref_i.colon(ref_j))
    assert new_j.colon(new_i).equals(ref_j.colon(ref_i))
    # the rank-2 direct sum I (+) J
    zero = Poly.zero(field)
    columns = [(g, zero) for g in i_gens] + [(zero, h) for h in j_gens]
    new = span_with_certificate(columns, 2, field)
    ref = reference_span(columns, 2, field)
    assert new.n0 == ref.n0 == max(new_i.n0, new_j.n0)
    assert new.colength() == ref.colength() == \
        new_i.colength() + new_j.colength()
    vectors = [(f, g) for f in probes for g in probes]
    assert [new.contains_vector(v) for v in vectors] == \
        [ref.contains_vector(v) for v in vectors]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_interreduce_keeps_leads_span_and_answers(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    gens = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field))
    i_gens, j_gens = data.draw(gens), data.draw(gens)
    probes = data.draw(st.lists(probe_polys(field), min_size=3, max_size=3))
    zero = Poly.zero(field)
    rank_two = [(g, zero) for g in i_gens] + [(zero, h) for h in j_gens]
    for columns, nslots in (([(g,) for g in i_gens], 1), (rank_two, 2)):
        span = span_with_certificate(columns, nslots, field)
        plain = span.basis
        assert not plain.reduced  # building a span never interreduces
        stored = {lead: dict(row) for lead, row in plain.rows.items()}
        basis = plain.clone()
        basis.interreduce()
        assert plain.rows == stored  # clones share rows; none was mutated
        assert basis.reduced and set(basis.rows) == set(plain.rows)
        for lead, row in basis.rows.items():
            assert min(row) == lead
            assert not any(k in basis.rows for k in row if k != lead)
            if field.p:
                assert row[lead] == 1
            else:
                assert row[lead] > 0 and gcd(*row.values()) == 1
        for a, b in ((plain, basis), (basis, plain)):
            assert all(a.reduce_to_lead(row)[0] is None
                       for row in b.rows.values())
        cap = span.n0 - 1
        vectors = [tuple(f if s == slot else zero for s in range(nslots))
                   for f in probes for slot in range(nslots)]
        vectors += [tuple(f.shift(1, 1) for f in col) for col in columns]
        rows = [vector_row(v, cap=cap) for v in vectors]
        rows = [r for r in rows if r]
        assert [basis.contains(r, cap=cap) for r in rows] == \
            [plain.reduce_to_lead(r, cap)[0] is None for r in rows]
        rows += [times_monomial(r, 1, 0) for r in rows]
        assert kernel_modulo(basis, rows, cap=cap) == \
            reference_kernel(plain, rows, cap=cap)
        before = dict(basis.rows)
        basis.interreduce()  # a second call is a no-op
        assert all(basis.rows[k] is before[k] for k in before)
        assert basis.insert(next(iter(before.values()))) is None
        assert basis.reduced  # a dependent row stores nothing
        assert basis.insert({pack_key(0, 0, 0): 1}) == pack_key(0, 0, 0)
        assert not basis.reduced


def uneven_gens(field):
    """Two generators of different orders, such as (x, y^3): x^a, perturbed
    by a y-power, and y^b."""
    def build(data):
        a, b, c, coeff = data
        return [P(f"x^{a}", field) + Poly.term(field, 0, c, coeff),
                P(f"y^{b}", field)]
    return st.tuples(st.integers(1, 2), st.integers(3, 5), st.integers(2, 4),
                     st.sampled_from([0, 1, -2])).map(build)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_colon_matches_reference_colon(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    gens = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field), uneven_gens(field))
    i_gens, j_gens = data.draw(gens), data.draw(gens)
    i, j = (TruncatedIdeal.materialize(g, field) for g in (i_gens, j_gens))
    for big, small_gens in ((i, j_gens), (j, i_gens)):
        if not big.is_unit:
            assert big.colon(small_gens).equals(
                reference_colon(big.span, [(g,) for g in small_gens]))
    if i.is_unit or j.is_unit:
        return
    # rank 2: (I (+) J : J (+) I) = (I : J) meet (J : I)
    zero = Poly.zero(field)
    n = ModuleRep(field, 2, [(g, zero) for g in i_gens]
                  + [(zero, h) for h in j_gens])
    m = ModuleRep(field, 2, [(h, zero) for h in j_gens]
                  + [(zero, g) for g in i_gens])
    result = colon_into(n, m)
    assert result.equals(reference_colon(n.span(), m.columns))
    assert result.equals(i.colon(j).intersect(j.colon(i)))


def test_colon_edges():
    j = Tr("x^2", "y^2")  # n0 = 3
    inside = [P("x^3"), P("x^2*y - y^4"), P("y^3")]
    assert j.colon(inside).is_unit  # other <= m^n0
    assert reference_colon(j.span, [(g,) for g in inside]).is_unit
    assert j.colon([P("1 + x"), P("y")]) is j  # a unit in other
    i = Tr("x^2", "x*y", "y^2")
    with_zero = j.colon([P("0")] + list(i.gens))
    assert with_zero.equals(j.colon(i))  # a zero column imposes nothing
    assert with_zero.to_monomial() == M(1)
    zero = Poly.zero(QQ)
    n = ModuleRep(QQ, 2, [(g, zero) for g in j.gens]
                  + [(zero, g) for g in j.gens])
    m = ModuleRep(QQ, 2, [(g, zero) for g in i.gens]
                  + [(zero, g) for g in i.gens] + [(zero, zero)])
    assert colon_into(n, m).to_monomial() == M(1)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(mono_pts)
def test_colength_strictly_monotone_under_proper_inclusion(pts):
    small_mono = as_m_primary(pts)
    small = TruncatedIdeal.from_monomial(small_mono, QQ)
    # enlarge by a monomial outside the ideal, if any exists below degree 6
    for a in range(7):
        for b in range(7):
            if not small_mono.contains_monomial((a, b)) and (a, b) != (0, 0):
                big = TruncatedIdeal.materialize(
                    list(small.gens) + [Poly.term(QQ, a, b)], QQ)
                assert big.contains_ideal(small)
                assert big.colength() < small.colength()
                return


def test_monomials_below_ordering():
    ms = monomials_below(2)
    assert [(m.a, m.b) for m in ms] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert triangle(4) == 10
