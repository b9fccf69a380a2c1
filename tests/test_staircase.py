import pytest
from hypothesis import given, settings, strategies as st

from regcore.errors import NotMPrimaryError
from regcore.field import QQ
from regcore.poly import Monomial
from regcore.staircase import (MonomialIdeal, adjoint, ascii_staircase,
                               colength, hull_vertices, integral_closure,
                               minimalize, multiplicity, power_certificate,
                               presentation_matrix)

from oracles import (brute_colength, brute_colon, brute_product,
                     mono_member, reference_adjoint,
                     reference_integral_closure, reference_minimalize)


def I(*pts):
    return MonomialIdeal.from_exponents(pts)


M = MonomialIdeal.max_power
WORKED = I((3, 0), (1, 1), (0, 2))  # (x^3, x*y, y^2)


def test_minimal_antichain_and_str():
    assert I((2, 0), (3, 1), (0, 2)).gens == (Monomial(2, 0), Monomial(0, 2))
    assert str(WORKED) == "(x^3, x*y, y^2)"
    assert str(M(2)) == "(x^2, x*y, y^2)"


def test_m_primary_detection():
    assert WORKED.is_m_primary
    assert not I((2, 0)).is_m_primary
    assert not MonomialIdeal.unit().is_m_primary
    assert MonomialIdeal.unit().is_unit


def test_product_power_addition():
    assert M(2).product(M(3)) == M(5)


def test_intersect_is_lcm():
    assert I((1, 0)).intersect(I((0, 1))) == I((1, 1))
    assert I((1, 0), (0, 2)).intersect(I((2, 0), (0, 1))) == \
        I((2, 0), (1, 1), (0, 2))


def test_colon_matches_brute_force():
    # frozen from the scanning oracle: ((x^2,y^2) : m^2) = (x, y)
    assert brute_colon([(2, 0), (0, 2)], [(2, 0), (1, 1), (0, 2)]) == \
        [(0, 1), (1, 0)]
    assert I((2, 0), (0, 2)).colon(M(2)) == M(1)
    # and a non-symmetric case, against the oracle
    j, i = I((4, 0), (0, 3)), I((2, 1))
    expected = brute_colon([(4, 0), (0, 3)], [(2, 1)])
    assert sorted(j.colon(i).gens) == [Monomial(*p) for p in expected]


def test_colon_by_unit():
    assert WORKED.colon(MonomialIdeal.unit()) == WORKED


def test_hull_vertices_of_worked_example():
    assert hull_vertices(WORKED) == (Monomial(0, 2), Monomial(1, 1), Monomial(3, 0))
    assert hull_vertices(M(2)) == (Monomial(0, 2), Monomial(2, 0))


def test_closure_already_closed():
    assert integral_closure(WORKED) == WORKED


def test_closure_adds_hull_lattice_points():
    assert integral_closure(I((2, 0), (0, 2))) == M(2)


def test_closure_of_max_ideal_powers():
    for n in range(1, 7):
        assert integral_closure(M(n)) == M(n)


def test_adjoint_of_powers():
    # shifted-interior test on the half-plane a+b >= n gives m^(n-1)
    assert adjoint(M(2)) == M(1)
    assert adjoint(M(5)) == M(4)
    assert adjoint(M(1)) == MonomialIdeal.unit()


def test_adjoint_worked_example():
    assert adjoint(WORKED) == M(1)


def test_adjoint_contains_closure():
    for ideal in [WORKED, M(3), I((4, 0), (2, 1), (0, 3))]:
        assert adjoint(ideal).contains(integral_closure(ideal))


def test_adjoint_principal_factor():
    # adj(x*I) = x*adj(I); pure principal monomials are fixed points
    assert adjoint(I((2, 0))) == I((2, 0))
    assert adjoint(I((3, 1), (1, 2))) == adjoint(I((2, 0), (0, 1))).shift((1, 1))


def test_colength_values():
    assert colength(M(3)) == 6
    assert colength(WORKED) == 4
    assert colength(MonomialIdeal.unit()) == 0
    assert brute_colength([(3, 0), (1, 1), (0, 2)]) == 4


def test_colength_infinite_raises():
    with pytest.raises(NotMPrimaryError):
        colength(I((2, 0)))


def test_multiplicity_values():
    for n in range(1, 7):
        assert multiplicity(M(n)) == n * n
    assert multiplicity(WORKED) == 5
    assert multiplicity(MonomialIdeal.unit()) == 0


def test_power_certificate():
    assert power_certificate(M(2)) == 2
    assert power_certificate(WORKED) == 3  # x^2*y^0? no: (2,0) missing, deg-3 all in
    assert power_certificate(MonomialIdeal.unit()) == 0


def test_presentation_of_worked_example():
    A = presentation_matrix(WORKED, QQ)
    assert [[str(e) for e in row] for row in A] == \
        [["y", "0"], ["-x^2", "y"], ["0", "-x"]]


def test_presentation_of_maximal_ideal():
    A = presentation_matrix(M(1), QQ)
    assert [[str(e) for e in row] for row in A] == [["y"], ["-x"]]


def test_presentation_of_m_squared():
    A = presentation_matrix(M(2), QQ)
    assert [[str(e) for e in row] for row in A] == \
        [["y", "0"], ["-x", "y"], ["0", "-x"]]


def test_ascii_staircase():
    art = ascii_staircase(M(1))
    assert art.splitlines() == ["###", "###", ".##"]


points = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  min_size=1, max_size=6)


@settings(max_examples=80, derandomize=True)
@given(points)
def test_closure_idempotent_extensive(pts):
    ideal = MonomialIdeal.from_exponents(pts)
    closed = integral_closure(ideal)
    assert closed.contains(ideal)
    assert integral_closure(closed) == closed


@settings(max_examples=60, derandomize=True)
@given(points, points)
def test_product_of_closed_is_closed(p1, p2):
    a = integral_closure(MonomialIdeal.from_exponents(p1))
    b = integral_closure(MonomialIdeal.from_exponents(p2))
    ab = a.product(b)
    assert integral_closure(ab) == ab
    assert sorted((m.a, m.b) for m in ab.gens) == \
        [p for p in brute_product(a.gens, b.gens)
         if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                    for q in brute_product(a.gens, b.gens))]


@settings(max_examples=60, derandomize=True)
@given(points)
def test_colength_against_brute_force(pts):
    ideal = MonomialIdeal.from_exponents(pts)
    if ideal.is_m_primary or ideal.is_unit:
        assert colength(ideal) == brute_colength([(g.a, g.b) for g in ideal.gens])


@settings(max_examples=40, derandomize=True)
@given(points)
def test_membership_against_brute_force(pts):
    ideal = MonomialIdeal.from_exponents(pts)
    gens = [(g.a, g.b) for g in ideal.gens]
    for a in range(7):
        for b in range(7):
            assert ideal.contains_monomial((a, b)) == mono_member((a, b), gens)


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=12),
       st.integers(0, 3), st.booleans())
def test_minimalize_matches_pairwise_divisibility(pts, repeats, unit):
    # repeated points, points on the axes and the unit among them
    pts = pts + pts[:repeats] + [(0, 0)] * unit
    got = minimalize(pts)
    assert got == reference_minimalize(pts)
    assert all(isinstance(m, Monomial) for m in got)


@settings(max_examples=300, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=1, max_size=7),
       st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_column_scans_match_the_box_scans(pts, content):
    # shifted by a monomial content; most draws miss an axis, so are not
    # m-primary
    ideal = MonomialIdeal.from_exponents(
        (a + content[0], b + content[1]) for a, b in pts)
    assert integral_closure(ideal) == reference_integral_closure(ideal)
    assert adjoint(ideal) == reference_adjoint(ideal)
