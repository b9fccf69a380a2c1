import gc
import json
from fractions import Fraction
import weakref
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from regcore import cli, trunc
from regcore.config import DEFAULT, EngineConfig
from regcore.errors import (NotMPrimaryError, TruncationCeilingError,
                            ZeroIdealError)
from regcore.field import QQ, PrimeField
from regcore.linalg import (SparseBasis, combine, kernel_modulo, key_degree,
                            normal_forms, pack_key, row_product)
from regcore.poly import Poly, parse_poly
from regcore.serialize import ideal_text
from regcore.staircase import MonomialIdeal, colength as mono_colength
from regcore.modcore import ModuleRep, colon_into
from regcore.trunc import (TruncatedIdeal, TruncatedSpan, monomials_below,
                           nakayama_covers,
                           span_colon, span_with_certificate, triangle,
                           vector_row, vector_rows)

from oracles import (capped_row, quotient_dimension, reference_colon,
                     reference_intersect, reference_kernel,
                     reference_monomial_plus, reference_mul,
                     reference_nakayama_covers, reference_plus,
                     reference_product, reference_span, reference_to_monomial,
                     sequential_colon, times_monomial)

F7 = PrimeField(7)
F65537 = PrimeField(65537)


def P(text, field=QQ):
    return parse_poly(text, field)


def packed(columns):
    return [vector_row(col) for col in columns]


def Tr(*texts, field=QQ, config=DEFAULT):
    return TruncatedIdeal.materialize([P(t, field) for t in texts],
                                      field, config=config)


def ceiling(n):
    return EngineConfig(truncation_ceiling=n)


M = MonomialIdeal.max_power


def test_maximal_ideal():
    ideal = Tr("x", "y")
    assert ideal.n0 == 1
    assert ideal.colength() == 1


def test_worked_mixed_ideal_certificate_and_colength():
    # oracle (independent Fraction elimination): dim k[x,y]/((x^2-y^3, xy)+m^8)
    gens = [[(1, 2, 0), (-1, 0, 3)], [(1, 1, 1)]]
    assert quotient_dimension(gens, 8) == 5
    ideal = Tr("x^2 - y^3", "x*y")
    assert ideal.n0 == 4
    assert ideal.colength() == 5


def test_nakayama_certificate_values():
    # n0 is the least t with m^t <= I
    assert Tr("x", "y").n0 == 1
    assert Tr("x^2", "x*y", "y^2").n0 == 2
    worked = Tr("x^3", "x*y", "y^2")
    assert worked.n0 == 3
    assert worked.contains_poly(P("y^3")) and worked.contains_poly(P("x^3"))
    assert not worked.contains_poly(P("x^2"))


@pytest.mark.parametrize("field", [QQ, F7])
def test_span_builder_reaches_each_monomial_multiple_once(field, monkeypatch):
    # an x-product pivot is multiplied further by x only, so x*(y*b) and
    # y*(x*b) are not both inserted: on these monomial spans every insert
    # is a new pivot
    leads = []
    insert = SparseBasis.insert

    def counted(self, row, cap=None, shift=None):
        leads.append(insert(self, row, cap, shift))
        return leads[-1]
    monkeypatch.setattr(SparseBasis, "insert", counted)
    zero = Poly.zero(field)
    x5_y5 = [(P("x^5", field),), (P("y^5", field),)]
    rank_two = [(P("x^2", field), zero), (P("y^3", field), zero),
                (zero, P("x", field)), (zero, P("y^4", field))]
    for columns, nslots, inserts, colength in ((x5_y5, 1, 30, 25),
                                               (rank_two, 2, 20, 10)):
        leads.clear()
        span = span_with_certificate(packed(columns), nslots, field)
        assert span.colength() == colength
        assert len(leads) == inserts
        assert None not in leads


def test_non_m_primary_is_rejected():
    with pytest.raises(NotMPrimaryError):
        Tr("x^2", config=ceiling(6))
    with pytest.raises(NotMPrimaryError):  # n0 = 4: ceiling 4 stops at stage 3
        Tr("x^2 - y^3", "x*y", config=ceiling(4))
    assert Tr("x^2 - y^3", "x*y", config=ceiling(5)).n0 == 4
    with pytest.raises(NotMPrimaryError):
        TruncatedIdeal.materialize([P("x^2")], QQ)  # auto-raise hits ceiling


def test_from_monomial_refuses_a_certificate_at_the_ceiling():
    # the staircase knows n0 = 5 for m^5: refused before any span is built
    with pytest.raises(TruncationCeilingError, match="n0 = 5 .* ceiling 5"):
        TruncatedIdeal.from_monomial(M(5), QQ, config=ceiling(5))
    assert TruncatedIdeal.from_monomial(M(5), QQ, config=ceiling(6)).n0 == 5


def test_zero_ideal_rejected():
    with pytest.raises(ZeroIdealError):
        TruncatedIdeal.materialize([Poly.zero(QQ)], QQ)


def test_unit_short_circuit():
    ideal = TruncatedIdeal.materialize([P("1 + x")], QQ)
    assert ideal.is_unit
    assert ideal.colength() == 0
    assert ideal.contains_poly(P("y^9"))
    # R is the span of 1, certified at n0 = 0, and answers as R everywhere
    unit = TruncatedIdeal.materialize([P("1 + x"), P("y")], QQ)
    assert unit.gens == (Poly.one(QQ),)
    assert unit.n0 == 0 and unit.span.n0 == 0
    i = Tr("x^3", "x*y", "y^2")
    assert unit.contains_ideal(i) and not i.contains_ideal(unit)
    assert unit.equals(ideal) and ideal.equals(unit)
    assert not unit.equals(i) and not i.equals(unit)
    assert unit.product(i).equals(i) and i.product(unit).equals(i)  # R*I
    assert i.colon(unit).equals(i)  # I:R
    assert unit.colon(i).is_unit  # R:I
    assert reference_intersect(unit, i).equals(i)
    assert reference_intersect(i, unit).equals(i)
    assert reference_plus(i, unit).is_unit
    assert reference_plus(unit, i).is_unit
    assert ideal_text(unit) == "R"
    assert unit.to_monomial() == MonomialIdeal.unit()


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
    s = reference_plus(Tr("x^2", "y^3"), Tr("x^3", "x*y", "y^2"))
    assert s.contains_poly(P("x*y"))
    assert s.equals(Tr("x^2", "x*y", "y^2"))
    assert s.colength() == 3


def test_intersection_of_mixed_ideals():
    left = Tr("x", "y^2")
    right = Tr("x^2", "y")
    expected = TruncatedIdeal.from_monomial(M(2), QQ)
    assert reference_intersect(left, right).equals(expected)


def test_intersection_of_ideals_with_different_certificates():
    small_mono = MonomialIdeal.from_exponents([(3, 0), (0, 1)])
    big_mono = MonomialIdeal.from_exponents(
        [(5, 0), (4, 1), (3, 2), (2, 3), (0, 4)])
    small = TruncatedIdeal.from_monomial(small_mono, QQ)
    big = TruncatedIdeal.from_monomial(big_mono, QQ)
    assert (small.n0, big.n0) == (3, 5)
    expected = small_mono.intersect(big_mono)
    assert reference_intersect(small, big).to_monomial() == expected
    assert reference_intersect(big, small).to_monomial() == expected
    assert small.n0 == 3 and small.colength() == mono_colength(small_mono)


def test_intersect_leaves_both_spans_unchanged():
    # certified spans are built once: intersecting reads them, in either
    # order, and grows or truncates neither
    def state(ideal):
        span = ideal.span
        return span.order, span.n0, dict(span.basis.rows)

    pairs = [(TruncatedIdeal.from_monomial(
                 MonomialIdeal.from_exponents([(3, 0), (0, 1)]), QQ),
              TruncatedIdeal.from_monomial(M(5), QQ)),
             (Tr("x^2 + 2*x*y^2", "x*y + y^3", "y^2"),
              Tr("x^2 + 2*x*y^2 - y^5", "y^6"))]
    for small, big in pairs:
        assert small.n0 < big.n0
        for left, right in ((small, big), (big, small)):
            for ideal in (left, right):
                ideal.span.basis.interreduce()  # as any query leaves it
            before = [state(left), state(right)]
            meet = reference_intersect(left, right)
            assert [state(left), state(right)] == before
            assert left.contains_ideal(meet) and right.contains_ideal(meet)
            assert meet.colength() + reference_plus(left, right).colength() == \
                left.colength() + right.colength()


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


def test_results_independent_of_ceiling():
    a = Tr("x^2 - y^3", "x*y", config=ceiling(8))
    b = Tr("x^2 - y^3", "x*y", config=ceiling(10))
    assert a.colength() == b.colength()
    assert a.n0 == b.n0
    assert a.equals(b)


def test_to_monomial_detects_and_rejects():
    assert Tr("x^2", "x*y", "y^2").to_monomial() == M(2)
    assert Tr("x^2 - y^3", "x*y").to_monomial() is None
    # a monomial ideal given by generators that are not terms
    assert Tr("x^2 + y^2", "y^2").to_monomial() == \
        MonomialIdeal.from_exponents([(2, 0), (0, 2)])


def test_prime_field_engine():
    ideal = Tr("x^2 - y^3", "x*y", field=F7)
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
    assert reference_plus(a, b).to_monomial() == \
        reference_monomial_plus(a_mono, b_mono)
    assert reference_intersect(a, b).to_monomial() == a_mono.intersect(b_mono)
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
    meet = reference_intersect(i, j)
    join = reference_plus(i, j)
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
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    gens = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field))
    i_gens, j_gens = data.draw(gens), data.draw(gens)
    probes = data.draw(st.lists(probe_polys(field), min_size=4, max_size=4))
    new_i, new_j = (TruncatedIdeal.materialize(g, field)
                    for g in (i_gens, j_gens))
    ref_i, ref_j = (TruncatedIdeal(field, reference_span(
        [(f,) for f in g], 1, field), DEFAULT,
        *vector_rows([(f,) for f in g], field)) for g in (i_gens, j_gens))
    for new, ref in ((new_i, ref_i), (new_j, ref_j)):
        assert new.n0 == ref.n0
        assert new.colength() == ref.colength()
        assert [new.contains_poly(f) for f in probes] == \
            [ref.contains_poly(f) for f in probes]
    assert reference_intersect(new_i, new_j).equals(
        reference_intersect(ref_i, ref_j))
    assert new_i.colon(new_j).equals(ref_i.colon(ref_j))
    assert new_j.colon(new_i).equals(ref_j.colon(ref_i))
    # the rank-2 direct sum I (+) J
    zero = Poly.zero(field)
    columns = [(g, zero) for g in i_gens] + [(zero, h) for h in j_gens]
    new = span_with_certificate(packed(columns), 2, field)
    ref = reference_span(columns, 2, field)
    assert new.n0 == ref.n0 == max(new_i.n0, new_j.n0)
    assert new.colength() == ref.colength() == \
        new_i.colength() + new_j.colength()
    vectors = [(f, g) for f in probes for g in probes]
    assert [new.contains_row(r) for r in packed(vectors)] == \
        [ref.contains_row(r) for r in packed(vectors)]
    # twisted by g = [[1, x], [0, 1]]: g*(I (+) J) is no slotwise sum
    x = P("x", field)
    twisted = [(g, zero) for g in i_gens] + [(x * h, h) for h in j_gens]
    new = span_with_certificate(packed(twisted), 2, field)
    ref = reference_span(twisted, 2, field)
    assert new.n0 == ref.n0 == max(new_i.n0, new_j.n0)
    assert new.colength() == ref.colength() == \
        new_i.colength() + new_j.colength()
    assert [new.contains_row(r) for r in packed(vectors)] == \
        [ref.contains_row(r) for r in packed(vectors)]


def to_monomial_inputs(field):
    """Generator lists of m-primary ideals, monomial or not: mixed ideals,
    monomial ideals as terms, as g1 + gk, g2, ..., gk and under a linear
    change of coordinates, and generators of R."""
    def terms(pts):
        return [Poly.monomial(field, g) for g in as_m_primary(pts).gens]

    def disguised(pts):
        gens = terms(pts)
        return [gens[0] + gens[-1]] + gens[1:]
    return st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field), mono_pts.map(terms),
                     mono_pts.map(disguised),
                     probe_polys(field).map(
                         lambda f: [Poly.one(field) + f.shift(1, 0),
                                    P("y", field)]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_to_monomial_matches_reference_scan(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    gens = data.draw(to_monomial_inputs(field))
    ideal = TruncatedIdeal.materialize(gens, field)
    answer = ideal.to_monomial()
    assert answer == reference_to_monomial(ideal)
    assert answer is not None or not all(g.is_term for g in gens)


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
        # built directly: a span shared through span_with_certificate may
        # already have been interreduced by another holder's queries
        span = TruncatedSpan(field, nslots, packed(columns),
                             DEFAULT.truncation_ceiling)
        plain = span.basis
        assert not plain.reduced  # building a span never interreduces
        stored = {lead: dict(row) for lead, row in plain.rows.items()}
        basis = SparseBasis(field)
        basis.rows = dict(plain.rows)
        assert all(basis.rows[k] is plain.rows[k] for k in stored)
        basis.interreduce()
        assert plain.rows == stored  # copies share rows; none was mutated
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
        rows = [capped_row(v, cap) for v in vectors]
        rows = [r for r in rows if r]
        assert [basis.contains(r, cap=cap) for r in rows] == \
            [plain.reduce_to_lead(r, cap)[0] is None for r in rows]
        rows += [times_monomial(r, 1, 0) for r in rows]
        # lookup normal forms: zero exactly on the span, linear at the
        # fixed scale, and a shift argument that multiplies first
        nf = normal_forms(basis, cap)
        assert [not nf(r) for r in rows] == \
            [basis.contains(r, cap=cap) for r in rows]
        assert all(nf(r, 1, 0) == nf(times_monomial(r, 1, 0)) for r in rows)
        for r, r2 in zip(rows, rows[1:]):
            lam = {0: 3, 1: -2}
            assert nf(combine(lam, [r, r2], field.p)) == \
                combine(lam, [nf(r), nf(r2)], field.p)
        before = dict(basis.rows)
        basis.interreduce()  # a second call is a no-op
        assert all(basis.rows[k] is before[k] for k in before)
        # a dependent row stores nothing (R's basis of R/m^0 has no rows)
        assert all(basis.insert(row) is None for row in before.values())
        assert basis.reduced
        assert basis.insert({pack_key(0, 0, 0): 1}) == pack_key(0, 0, 0)
        assert not basis.reduced


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_kernel_modulo_matches_reference_kernel(data):
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    probes = data.draw(st.lists(probe_polys(field), min_size=2, max_size=5))
    zero = Poly.zero(field)
    rows = [vector_row((f, g)) for f in probes for g in (zero, f)]
    rows = [r for r in rows if r]
    # dependent rows: a shift of one and a combination of two
    rows += [times_monomial(rows[0], 0, 1),
             combine({0: 2, len(rows) - 1: -3}, rows, field.p)]
    # a zero row is its own relation, taken without an insert
    with_zeros = [row for r in rows for row in ({}, r)] + [{}]
    for batch in (rows, with_zeros):
        kernel = kernel_modulo(batch, field)
        assert kernel == reference_kernel(SparseBasis(field), batch)
        assert not any(combine(lam, batch, field.p) for lam in kernel)
        basis = SparseBasis(field)
        rank = sum(basis.insert(r) is not None for r in batch if r)
        assert len(kernel) == len(batch) - rank


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
            columns = [(g,) for g in small_gens]
            assert span_colon(big.span, packed(columns)).equals(
                reference_colon(big.span, columns))
    if i.is_unit or j.is_unit:
        return
    # rank 2: (I (+) J : J (+) I) = (I : J) meet (J : I)
    zero = Poly.zero(field)
    n = ModuleRep(field, 2, [(g, zero) for g in i_gens]
                  + [(zero, h) for h in j_gens])
    m = ModuleRep(field, 2, [(h, zero) for h in j_gens]
                  + [(zero, g) for g in i_gens])
    result = colon_into(n, m)
    assert result.equals(reference_colon(n.sym.span, m.columns))
    assert result.equals(reference_intersect(i.colon(j), j.colon(i)))


def assert_same_colon(span, columns):
    # the same ideal as the colon refined against N itself, generated by
    # the low combinations and m^t: n0 = t, at most triangle(t + 1)
    # generators, each of degree <= t
    new = span_colon(span, packed(columns))
    old = sequential_colon(span, columns)
    assert new.equals(old) and new.n0 == old.n0
    t, _ = colon_degrees(span, columns)
    assert new.n0 == t
    assert len(new.gens) <= triangle(t + 1)
    assert all(g.degree() <= t for g in new.gens)


def colon_degrees(span, columns):
    """(t, d): the least t with m^t * M <= N, by membership of every
    monomial multiple, and d = n0 - o."""
    orders = [f.order() for col in columns for f in col if not f.is_zero]
    d = max(span.n0 - min(orders, default=span.n0), 0)
    t = next(t for t in range(d + 1) if all(
        span.contains_row(vector_row(tuple(f.shift(t - b, b) for f in col)))
        for col in columns for b in range(t + 1)))
    return t, d


@pytest.mark.parametrize("n_gens, m_gens, degrees", [
    (("x", "y^5"), ("x", "y^4"), (1, 4)),  # t < d
    (("x^2", "y^2"), ("x", "y"), (2, 2)),  # t = d
    (("x", "y^5"), ("x", "y^5", "x*y"), (0, 4)),  # t = 0: M <= N, R
    (("x^2", "y^2"), ("x^3", "y^3"), (0, 0)),  # d = 0
    (("x^2 + y^3", "x*y"), ("0", "x", "y^2"), (2, 3)),  # a zero column
    (("x^2", "x*y + y^3", "y^4"), ("x + y", "y^2"), (3, 3)),
])
def test_colon_regimes_match_sequential_colon(n_gens, m_gens, degrees):
    for field in (QQ, F7, F65537):
        span = Tr(*n_gens, field=field).span
        columns = [(P(g, field),) for g in m_gens]
        assert colon_degrees(span, columns) == degrees
        assert_same_colon(span, columns)
        assert span_colon(span, packed(columns)).is_unit == \
            (degrees[0] == 0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_colon_gens_match_sequential_colon(data):
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    gens = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                     changed_monomial_gens(field), uneven_gens(field))
    i_gens, j_gens = data.draw(gens), data.draw(gens)
    i, j = (TruncatedIdeal.materialize(g, field) for g in (i_gens, j_gens))
    for big, small_gens in ((i, j_gens), (j, i_gens), (i, i_gens)):
        assert_same_colon(big.span, [(g,) for g in small_gens])
    zero = Poly.zero(field)
    x = P("x", field)
    n = span_with_certificate(packed([(g, zero) for g in i_gens]
                                     + [(zero, h) for h in j_gens]), 2, field)
    for m in ([(h, zero) for h in j_gens] + [(zero, g) for g in i_gens],
              [(g, x * g) for g in j_gens] + [(zero, zero)]
              + [(zero, h) for h in i_gens]):
        assert_same_colon(n, m)


def test_colon_edges():
    j = Tr("x^2", "y^2")  # n0 = 3
    inside = [(P("x^3"),), (P("x^2*y - y^4"),), (P("y^3"),)]
    assert span_colon(j.span, packed(inside)).is_unit  # other <= m^n0
    assert reference_colon(j.span, inside).is_unit
    unit = packed([(P("1 + x"),), (P("y"),)])
    assert span_colon(j.span, unit).equals(j)  # I:R
    i = Tr("x^2", "x*y", "y^2")
    with_zero = span_colon(j.span,
                           packed([(P("0"),)] + [(g,) for g in i.gens]))
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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_nakayama_covers_matches_reference_joint_build(data):
    # M: a direct sum of coordinate-changed monomial ideals, its slots mixed
    # by a unitriangular constant matrix, so its columns are still minimal
    # generators; every `small` below lies in M, as nakayama_covers requires
    field = data.draw(st.sampled_from([QQ, F7]))
    nslots = data.draw(st.integers(1, 3))
    rnd = data.draw(st.randoms(use_true_random=False))
    zero = Poly.zero(field)
    big = [tuple(g if s == slot else zero for s in range(nslots))
           for slot in range(nslots)
           for g in data.draw(changed_monomial_gens(field))]
    mix = [[rnd.choice([0, 1, -1, 2]) for _ in range(nslots)]
           for _ in range(nslots)]
    big = [tuple(sum((col[t].scale(mix[s][t]) for t in range(s + 1, nslots)),
                     col[s]) for s in range(nslots)) for col in big]
    span = span_with_certificate(packed(big), nslots, field)
    cap = span.n0

    def times(f, col):
        return tuple(f * h for h in col)

    def plus(col, other):
        return tuple(f + h for f, h in zip(col, other))

    # generic combinations, unitriangular modulo m*M: they generate M
    combos = []
    for i, col in enumerate(big):
        for other in big[i + 1:]:
            f = (Poly.term(field, 0, 0, rnd.randint(-3, 3))
                 + Poly.term(field, rnd.randint(0, 2), rnd.randint(1, 2),
                             rnd.randint(-3, 3)))
            col = plus(col, times(f, other))
        combos.append(col)
    rnd.shuffle(combos)
    dropped = list(big)
    del dropped[rnd.randrange(len(big))]  # a minimal generator is missing
    high = times(Poly.term(field, rnd.randint(0, cap + 1), cap + 1), big[0])
    extra = [tuple([zero] * nslots), high]  # nothing at or below the cap
    for small, expected in ((combos, True), (combos + extra, True),
                            (dropped, False), (extra + dropped, False),
                            ([], False), (extra, False)):
        assert nakayama_covers(span, packed(small)) == expected
        assert reference_nakayama_covers(big, small, nslots, field,
                                         cap) == expected


def test_nakayama_covers_the_free_module():
    # n0 = 0: only the constant terms of `small` count
    for field in (QQ, F7):
        zero, one = Poly.zero(field), Poly.one(field)
        units = [(one, zero), (zero, one)]
        free = span_with_certificate(packed(units), 2, field)
        assert free.n0 == 0
        mixed = [(one + P("x", field), P("y", field)), (one, one)]
        assert nakayama_covers(free, packed(mixed))
        assert not nakayama_covers(free, packed([(one, one),
                                                 (one + P("x", field), one)]))
        assert not nakayama_covers(free, [])


def span_inputs(field):
    """Generator lists of m-primary ideals, R included: monomial,
    coordinate-changed and uneven."""
    def terms(pts):
        return [Poly.monomial(field, g) for g in as_m_primary(pts).gens]
    return st.one_of(mono_pts.map(terms), changed_monomial_gens(field),
                     uneven_gens(field))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_standard_rows_generate_the_ideal(data):
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    ideal = TruncatedIdeal.materialize(data.draw(span_inputs(field)), field)
    rows = ideal.standard_rows
    assert len(rows) <= ideal.n0 + 1
    again = TruncatedIdeal(field, span_with_certificate(rows, 1, field),
                           rows=rows)
    assert again.colength() == ideal.colength()
    assert again.contains_ideal(ideal) and ideal.contains_ideal(again)


def test_standard_rows_of_the_unit_ideal():
    for field in (QQ, F7, F65537):
        unit = TruncatedIdeal.materialize([P("1 + x", field)], field)
        assert unit.standard_rows == packed([(Poly.one(field),)])


def test_equal_columns_share_one_certified_span():
    polys = [(P("x^2"),), (P("x*y + y^3"),), (P("y^4"),)]
    cols = packed(polys)
    span = span_with_certificate(cols, 1, QQ)
    assert span_with_certificate(tuple(cols), 1, QQ) is span
    # a row's terms in another order, and a repeated row, change nothing
    shuffled = [dict(reversed(row.items())) for row in cols]
    assert [list(r) for r in shuffled] != [list(r) for r in cols]
    assert span_with_certificate(shuffled + cols[:1], 1, QQ) is span
    # a different ceiling, slot count or field is another span
    assert span_with_certificate(cols, 1, QQ, ceiling(10)) is not span
    assert span_with_certificate(cols, 1, QQ, ceiling(30)) is not span
    with pytest.raises(NotMPrimaryError):  # m^3 F is not inside a 1-slot I
        span_with_certificate(cols, 2, QQ)
    other = span_with_certificate(
        packed([(P(str(c[0]), F65537),) for c in polys]), 1, F65537)
    assert other is not span and other.field == F65537
    # a ceiling at the certificate is refused, not served
    with pytest.raises(NotMPrimaryError):
        span_with_certificate(cols, 1, QQ, ceiling(span.n0))


@pytest.mark.parametrize("field", [QQ, F65537])
def test_ideal_and_rank_one_module_share_one_span(field):
    # (x^4, x^2*y, x*y^2, y^3) is integrally closed; its ideal, its rank-1
    # module and that module's minor ideal are spans of the same rows
    mono = MonomialIdeal.from_exponents([(4, 0), (2, 1), (1, 2), (0, 3)])
    ideal = TruncatedIdeal.from_monomial(mono, field)
    module = ModuleRep.from_monomial_ideal(mono, field)
    assert module.sym.span is ideal.span
    assert module.minor_ideal().span is ideal.span


def memo_rows(columns):
    """The rows of columns as a span memo key holds them."""
    return tuple(tuple(chain.from_iterable(sorted(row.items())))
                 for row in packed(columns))


def test_span_memo_holds_only_certified_spans_in_use():
    cols = ((P("x^3") + P("y^5"),), (P("x*y^2"),), (P("x^2*y"),),
            (P("y^6"),))
    span = span_with_certificate(packed(cols), 1, QQ)
    ref = weakref.ref(span)
    del span
    gc.collect()
    assert ref() is None
    assert all(key[2] != memo_rows(cols) for key in trunc._certified.keys())
    line = ((P("x^2"),), (P("x*y"),))  # no power of y: not m-primary
    for _ in range(2):  # the traceback keeps the refused span alive
        with pytest.raises(NotMPrimaryError) as refused:
            span_with_certificate(packed(line), 1, QQ, ceiling(8))
        assert refused.traceback
        assert all(key[2] != memo_rows(line)
                   for key in trunc._certified.keys())


def test_shared_span_gives_the_same_standard_rows():
    # the same list whether or not another holder queried the span first
    gens = [P("x^2 + x*y"), P("x*y + y^2"), P("x^3"), P("y^3")]
    untouched = TruncatedIdeal.materialize(gens, QQ).standard_rows
    gc.collect()
    first = TruncatedIdeal.materialize(gens, QQ)
    assert first.contains_poly(P("x^2 + 2*x*y + y^2"))
    second = TruncatedIdeal.materialize(gens, QQ)
    assert second.span is first.span
    assert second.standard_rows == untouched
    # a power is built from standard generators: at most (n0 + 1)^2
    assert len(first.square().gens) <= (first.n0 + 1) ** 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_certified_spans_store_nothing_at_or_above_n0(data):
    # a span keeps a basis of I/m^n0 F: the degree-n0 block is all of
    # m^n0 F/m^(n0+1) F, and no query reads it from the rows
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    i_gens, j_gens = data.draw(span_inputs(field)), data.draw(span_inputs(field))
    i, j = (TruncatedIdeal.materialize(g, field) for g in (i_gens, j_gens))
    zero, x = Poly.zero(field), P("x", field)
    twisted = [(g, zero) for g in i_gens] + [(x * h, h) for h in j_gens]
    for span in (i.span, j.span, i.product(j).span, i.square().span,
                 i.colon(j).span, j.colon(i).span,
                 span_with_certificate(packed(twisted), 2, field)):
        assert all(key_degree(k) < span.n0
                   for row in span.basis.rows.values() for k in row)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_nakayama_covers_on_twisted_spans_matches_reference(data):
    # M = g*(I (+) J) for g = [[1, x], [0, 1]], whose columns are no
    # slotwise sum; every `small` lies in M
    field = data.draw(st.sampled_from([QQ, F7]))
    rnd = data.draw(st.randoms(use_true_random=False))
    zero, x = Poly.zero(field), P("x", field)
    big = [(g, zero) for g in data.draw(span_inputs(field))] + \
        [(x * h, h) for h in data.draw(span_inputs(field))]
    span = span_with_certificate(packed(big), 2, field)
    combos = []
    for i, col in enumerate(big):  # unitriangular: they generate M
        for other in big[i + 1:]:
            f = Poly.term(field, rnd.randint(0, 2), rnd.randint(0, 2),
                          rnd.randint(-3, 3))
            col = tuple(a + f * b for a, b in zip(col, other))
        combos.append(col)
    dropped = list(big)
    del dropped[rnd.randrange(len(big))]
    for small in (combos, dropped, big[:1], []):
        assert nakayama_covers(span, packed(small)) == \
            reference_nakayama_covers(big, small, 2, field, span.n0)
    assert nakayama_covers(span, packed(combos))


def test_nakayama_covers_at_n0_zero_matches_reference():
    for field in (QQ, F7):
        zero, one = Poly.zero(field), Poly.one(field)
        x, y = P("x", field), P("y", field)
        for big in ([(one, zero), (zero, one)], [(one, zero), (x, one)],
                    [(one, x), (y, one)]):
            span = span_with_certificate(packed(big), 2, field)
            assert span.n0 == 0 and not span.basis.rows
            for small in (big, [(one + x, y), (one, one)],
                          [(one, one), (one + x, one)], [(x, y)], []):
                assert nakayama_covers(span, packed(small)) == \
                    reference_nakayama_covers(big, small, 2, field, 0)
        unit = span_with_certificate(packed([(one + x,)]), 1, field)
        assert nakayama_covers(unit, packed([(y + one,)]))
        assert not nakayama_covers(unit, packed([(x,)]))


def test_span_docstrings_name_the_stored_quotient():
    assert "I/m^n0 F" in TruncatedSpan.__doc__
    assert "I/m^n0 F" in nakayama_covers.__doc__


def factor_polys(field):
    coeffs = [1, -1, 2, -3] + ([Fraction(1, 2), Fraction(-3, 4),
                                Fraction(5, 3)] if field.p is None
                               else [field.p - 1, 3])
    term = st.tuples(st.integers(0, 4), st.integers(0, 4),
                     st.sampled_from(coeffs))
    return st.lists(term, min_size=1, max_size=5).map(
        lambda ts: Poly(field, {(a, b): c for a, b, c in ts})).filter(
        lambda f: not f.is_zero)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_row_product_matches_the_term_by_term_reference(data):
    # a slot-0 row times a row in any slot, in either order, capped or not:
    # over F_p the packed product, over Q a positive multiple of it
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    f, g = data.draw(factor_polys(field)), data.draw(factor_polys(field))
    nslots = data.draw(st.integers(1, 3))
    slot = data.draw(st.integers(0, nslots - 1))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 8)))
    zero = Poly.zero(field)
    vector = tuple(g if s == slot else zero for s in range(nslots))
    want = capped_row(tuple(reference_mul(f, h) for h in vector), cap)
    for got in (row_product(vector_row((f,)), vector_row(vector), cap,
                            field.p),
                row_product(vector_row(vector), vector_row((f,)), cap,
                            field.p)):
        assert set(got) == set(want) and all(got.values())
        if field.p is not None:
            assert got == want
        else:
            ratios = {Fraction(got[k], want[k]) for k in want}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_product_matches_the_poly_route(data):
    # monomial, coordinate-changed and uneven ideals, and squares: the rows
    # span the ideal the Poly products span, with the same certificate
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    i, j = (TruncatedIdeal.materialize(data.draw(span_inputs(field)), field)
            for _ in range(2))
    for a, b in ((i, j), (j, i), (i, i)):
        got, want = a.product(b), reference_product(a, b)
        assert got.n0 == want.n0 and got.colength() == want.colength()
        assert got.equals(want) and want.equals(got)
        assert all(got.contains_poly(f) for f in want.gens)


def test_products_and_nakayama_tests_make_no_poly_products(monkeypatch):
    # phi(x^3, x*y, y^2), phi = (x + y, x - y), and a twisted sum: every
    # product feeding a span or a membership test stays a row product
    from regcore import modcore, reduction
    field = F65537
    x, y = P("x + y", field), P("x - y", field)
    I = TruncatedIdeal.materialize([x * x * x, x * y, y * y], field)
    J, _ = reduction.minimal_reduction(I, reduction.GenericSampler(7))
    zero = Poly.zero(field)
    twisted = ModuleRep(field, 2, [(P("x^2", field), zero),
                                   (P("y^2", field), zero),
                                   (P("x^2", field), P("x", field)),
                                   (P("x*y", field), P("y", field))])
    rows, den = vector_rows(twisted.columns, field)
    n = ModuleRep.from_rows(field, 2, [reduction.GenericSampler(k).combination(
        rows, field) for k in range(3)], den)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda f, g: calls.append(1) or mul(f, g))
    I.product(J)
    I.square().product(I)
    assert reduction.is_reduction(J, I) is not None
    reduction.adjoint_ideal(I, reduction.GenericSampler(3))
    modcore.sym_reduction_check(n, twisted, 1)
    assert calls == []
    assert x * y and calls == [1]  # the wrapper counts Poly products


# -- the span kernel: shifted inserts and primitive stored rows ----------


def assert_stored_rows_normal(basis):
    """A stored row has no zero coefficient, its least key is its lead, and
    over Q it is primitive with a positive lead (over F_p its lead is 1)."""
    p = basis.field.p
    for lead, row in basis.rows.items():
        assert min(row) == lead and all(row.values())
        if p is None:
            assert row[lead] > 0 and gcd(*row.values()) == 1
        else:
            assert row[lead] == 1 and all(0 < c < p for c in row.values())


def kernel_inputs(field):
    """Generator columns with their slot count: a mixed ideal, a
    coordinate-changed monomial ideal, and twisted rank-2 sums
    g*(I (+) J) for g = [[1, x], [0, 1]]."""
    zero, x = Poly.zero(field), Poly.term(field, 1, 0)
    ideal = st.one_of(mixed_ideals(field).map(lambda i: list(i.gens)),
                      changed_monomial_gens(field))
    twisted = st.tuples(ideal, ideal).map(
        lambda ij: [(g, zero) for g in ij[0]] + [(x * h, h) for h in ij[1]])
    return st.one_of(ideal.map(lambda gens: ([(g,) for g in gens], 1)),
                     twisted.map(lambda cols: (cols, 2)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_shifted_insert_matches_inserting_the_shifted_row(data):
    # the same stored rows, shifted on insert or shifted first, give the
    # same leads and the same stored rows, caps that cut them included
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    columns, nslots = data.draw(kernel_inputs(field))
    span = TruncatedSpan(field, nslots, packed(columns),
                         DEFAULT.truncation_ceiling)
    stored = sorted(span.basis.rows.values(), key=min)
    shifts = data.draw(st.lists(st.sampled_from([(1, 0), (0, 1), (2, 1)]),
                                min_size=len(stored), max_size=len(stored)))
    for cap in (span.n0, span.n0 + 1, max(span.n0 - 1, 0)):
        shifted, reference = SparseBasis(field), SparseBasis(field)
        for row, (a, b) in zip(stored, shifts):
            for basis in (shifted, reference):  # a plain row on both
                basis.insert(row, cap)
            lead = shifted.insert(row, cap, (a, b))
            assert lead == reference.insert(times_monomial(row, a, b), cap)
            assert shifted.rows == reference.rows
        assert_stored_rows_normal(shifted)


def test_shifted_insert_strips_what_a_cut_or_a_merge_leaves():
    # 2x^2 + 4xy + 3y^3 is primitive; its x-shift cut at degree 3, and a
    # merge of x*(x + y) with the pivot x^2 - xy + 2y^3, each leave content 2
    k = {(a, b): pack_key(a + b, 0, b) for a in range(4) for b in range(4)}
    basis = SparseBasis(QQ)
    lead = basis.insert({k[2, 0]: 2, k[1, 1]: 4, k[0, 3]: 3}, 3, (1, 0))
    assert basis.rows[lead] == {k[3, 0]: 1, k[2, 1]: 2}
    basis = SparseBasis(QQ)
    basis.insert({k[2, 0]: 1, k[1, 1]: -1, k[0, 3]: 2})
    lead = basis.insert({k[1, 0]: 1, k[0, 1]: 1}, None, (1, 0))
    assert basis.rows[lead] == {k[1, 1]: 1, k[0, 3]: -1}
    # `truncate` strips a row that loses a term, and keeps the others
    basis = SparseBasis(QQ)
    whole = {k[1, 0]: 1, k[0, 1]: 3}
    basis.insert(whole)
    basis.insert({k[2, 0]: 2, k[1, 1]: 4, k[0, 3]: 3})
    basis.truncate(2)
    assert basis.rows == {k[1, 0]: whole, k[2, 0]: {k[2, 0]: 1, k[1, 1]: 2}}
    assert basis.rows[k[1, 0]] is not whole  # stored as a copy


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_every_stored_row_is_normal(data):
    # after each insert of a span build or a Nakayama test, and after
    # every truncate and interreduce
    field = data.draw(st.sampled_from([QQ, F7, F65537]))
    columns, nslots = data.draw(kernel_inputs(field))
    insert, truncate = SparseBasis.insert, SparseBasis.truncate
    interreduce = SparseBasis.interreduce
    bases = []

    def checked(method):
        def run(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            assert_stored_rows_normal(self)
            bases.append(self)
            return out
        return run
    with pytest.MonkeyPatch.context() as mp:
        for name, method in (("insert", insert), ("truncate", truncate),
                             ("interreduce", interreduce)):
            mp.setattr(SparseBasis, name, checked(method))
        span = TruncatedSpan(field, nslots, packed(columns),
                             DEFAULT.truncation_ceiling)
        assert nakayama_covers(span, packed(columns))
        span.basis.interreduce()
        if nslots == 1:
            ideal = TruncatedIdeal(field, span, rows=packed(columns))
            ideal.product(ideal)
            ideal.colon(TruncatedIdeal.from_monomial(M(1), field))
    assert span.basis in bases and len(bases) > len(span.basis.rows)


def test_rows_with_a_variable_factor_build_no_span(tmp_path, capsys,
                                                   monkeypatch):
    # every 2-minor of this presentation is divisible by y, and so are the
    # entries of the rank-2 module; (x^2, x*y) lies in (x)
    def refuse(*args):
        raise AssertionError("a span was built")
    monkeypatch.setattr(TruncatedSpan, "__init__", refuse)
    found = {"field": "Q", "matrix": [
        ["0", "0"], ["x^4 + x*y + 2*y", "7/6*y + 1/2*x^2*y"], ["y^4", "0"],
        ["3/5*y^3 - 2/3*y^4 + y", "7/6*x*y^2 - y^2 + 2*y"]]}
    path = tmp_path / "A.json"
    path.write_text(json.dumps(found), encoding="utf-8")
    assert cli.main(["fitting", "--presentation", str(path), "--k", "2"]) == 1
    assert "not finite colength" in capsys.readouterr().err
    for field in (QQ, F7):
        with pytest.raises(NotMPrimaryError, match="not finite colength"):
            Tr("x^2", "x*y", field=field)
        y, zero = P("y", field), Poly.zero(field)
        with pytest.raises(NotMPrimaryError, match="not finite colength"):
            span_with_certificate(packed([(y, zero), (zero, y * y),
                                          (P("x*y + y^3", field), y)]),
                                  2, field)
