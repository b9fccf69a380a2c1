import pytest
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import given, settings, strategies as st

from regcore.errors import FieldMismatchError, ParseError
from regcore.field import QQ, PrimeField, field_from_name
from regcore.poly import (Monomial, Poly, matrix_minors, minor_supports,
                          parse_poly, poly_det)

from oracles import (all_minors, permutation_determinant, reference_add,
                     reference_mul, reference_neg, reference_scale)

F5 = PrimeField(5)
F7 = PrimeField(7)
F65537 = PrimeField(65537)
X = Monomial(1, 0)


def P(text, field=QQ):
    return parse_poly(text, field)


def test_parse_and_print_roundtrip():
    for text in ["x", "y", "x + y", "x^2 - y^3", "3*x*y", "1/2*x^4*y^2 - 7",
                 "-x", "2", "x*y", "5*y^7"]:
        f = P(text)
        assert parse_poly(str(f), QQ) == f


def test_parse_rejects_garbage():
    for bad in ["", "x+", "z", "x^", "++", "1/0"]:
        with pytest.raises(ParseError):
            P(bad)


def test_addition_cancels():
    assert P("x + y") + P("-y") == P("x")


def test_difference_of_squares():
    assert P("x + y") * P("x - y") == P("x^2 - y^2")


def test_scale_over_prime_field():
    f = Poly.term(F5, 2, 0).scale(3)
    assert f == parse_poly("3*x^2", F5)
    assert Poly.term(F5, 1, 0).scale(5).is_zero


def test_constructor_reduces_mod_p_and_drops_zeros():
    assert Poly(F7, {X: 7}).is_zero
    assert str(Poly(F7, {X: 7})) == "0"
    assert Poly(F7, {X: 7}) == Poly.zero(F7)


def test_constructor_makes_residues_canonical():
    f, g = Poly(F7, {X: -1}), Poly(F7, {X: 6})
    assert f == g
    assert hash(f) == hash(g)
    assert f.terms == {X: 6}
    assert str(f) == str(g) == "6*x"


def test_constructor_holds_fractions_over_q():
    f = Poly(QQ, {(1, 0): 3})
    [(mono, coeff)] = f.terms.items()
    assert type(mono) is Monomial and mono == X
    assert type(coeff) is Fraction and coeff == 3


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        P("x") + parse_poly("x", F5)


def test_order_and_degree():
    f = P("x^2*y + y^5")
    assert f.order() == 3
    assert f.degree() == 5
    with pytest.raises(ValueError):
        Poly.zero(QQ).order()


def test_field_descriptors():
    assert field_from_name("Q") is QQ
    assert field_from_name("F65537").p == 65537
    with pytest.raises(ParseError):
        field_from_name("F65536")  # even
    with pytest.raises(ParseError):
        field_from_name("R")


coeffs = st.integers(min_value=-6, max_value=6)


def small_polys(field):
    term = st.tuples(st.integers(0, 4), st.integers(0, 4), coeffs)
    def build(terms):
        f = Poly.zero(field)
        for a, b, c in terms:
            f = f + Poly.term(field, a, b, field.coerce(c))
        return f
    return st.lists(term, max_size=5).map(build)


@settings(max_examples=80, derandomize=True)
@given(small_polys(QQ), small_polys(QQ), small_polys(QQ))
def test_ring_axioms_rational(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, derandomize=True)
@given(small_polys(F5), small_polys(F5), small_polys(F5))
def test_ring_axioms_prime_field(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), coeffs),
                min_size=9, max_size=9))
def test_determinant_matches_permutation_sum(flat):
    matrix = [[Poly.term(QQ, a, b, Fraction(c)) for a, b, c in flat[i:i + 3]]
              for i in range(0, 9, 3)]
    lap = poly_det(matrix, QQ)
    perm = permutation_determinant(
        matrix, Poly.zero(QQ),
        lambda u, v: u + v, lambda u, v: u * v, lambda u: -u)
    assert lap == perm


def test_minors_of_bidiagonal_presentation():
    # hand expansion of the three 2x2 minors of [[y,0],[-x^2,y],[0,-x]]
    A = [[P("y"), P("0")], [P("-x^2"), P("y")], [P("0"), P("-x")]]
    minors = matrix_minors(A, 2, QQ)
    assert sorted(str(m) for m in minors) == sorted(["y^2", "-x*y", "x^3"])


def test_minors_size_one_lists_entries():
    A = [[P("y")], [P("-x")]]
    assert [str(m) for m in matrix_minors(A, 1, QQ)] == ["y", "-x"]


def test_minors_k_zero_is_unit_marker():
    A = [[P("y")], [P("-x")]]
    # the one 0 x 0 minor is the empty determinant, 1
    assert matrix_minors(A, 0, QQ) == [Poly.one(QQ)]
    assert matrix_minors(A, -3, QQ) == [Poly.one(QQ)]


def test_minors_oversized_empty():
    A = [[P("y")], [P("-x")]]
    assert matrix_minors(A, 2, QQ) == []


MINOR_ENTRIES = ["0", "0", "x", "y", "x^2", "x*y", "y^2", "x + y^2",
                 "2*x - y", "x^2 - 3*y^2", "1"]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([QQ, F7]), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_minors_are_the_determinants_of_the_submatrices(field, nrows, ncols,
                                                         data):
    A = [[P(data.draw(st.sampled_from(MINOR_ENTRIES)), field)
          for _ in range(ncols)] for _ in range(nrows)]
    memo = {}  # one memo shared by every size, as in the Fitting chain
    for k in range(1, min(nrows, ncols) + 1):
        dets = {(rows, cols): poly_det([[A[i][j] for j in cols] for i in rows],
                                       field)
                for rows in combinations(range(nrows), k)
                for cols in combinations(range(ncols), k)}
        assert all_minors(A, k, field) == list(dets.values())
        # matrix_minors: the submatrices' determinants at their supports
        expected = [dets[pair] for pair in minor_supports(A, k)]
        assert matrix_minors(A, k, field) == expected
        assert matrix_minors(A, k, field, memo) == expected
    for k in (0, min(nrows, ncols) + 1):
        assert matrix_minors(A, k, field, memo) == \
            ([Poly.one(field)] if k == 0 else [])


NONZERO_ENTRIES = [e for e in MINOR_ENTRIES if e != "0"]


@st.composite
def shaped_matrices(draw):
    """A field and a matrix of one of the shapes the Fitting chain meets:
    bidiagonal, block-diagonal, dense, sparse, or an outer product u v^T,
    whose 2-minors all cancel although their supports admit transversals
    (e.g. [[x, x], [y, y]])."""
    field = draw(st.sampled_from([QQ, F7, F65537]))
    shape = draw(st.sampled_from(
        ["bidiagonal", "blocks", "dense", "sparse", "outer"]))
    entry = st.sampled_from(NONZERO_ENTRIES).map(lambda e: P(e, field))
    zero = Poly.zero(field)
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if shape == "bidiagonal":
        n = draw(st.integers(1, 6))
        return field, [[draw(entry) if i in (j, j + 1) else zero
                        for j in range(n)] for i in range(n + 1)]
    if shape == "outer":
        u = [draw(entry) for _ in range(nrows)]
        v = [draw(entry) for _ in range(ncols)]
        return field, [[a * b for b in v] for a in u]
    if shape == "blocks":
        split_r, split_c = nrows // 2, ncols // 2
        return field, [[draw(entry) if (i < split_r) == (j < split_c)
                        else zero for j in range(ncols)]
                       for i in range(nrows)]
    pool = entry if shape == "dense" else st.one_of(st.just(zero), entry)
    return field, [[draw(pool) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(shaped_matrices())
def test_supported_minors_are_the_nonzero_minors_in_order(case):
    field, A = case
    nrows, ncols = len(A), len(A[0])
    for k in range(1, min(nrows, ncols) + 1):
        pairs = [(rows, cols) for rows in combinations(range(nrows), k)
                 for cols in combinations(range(ncols), k)]
        full = all_minors(A, k, field)
        supports = list(minor_supports(A, k))
        # combinations order, without repeats
        assert supports == sorted(set(supports))
        # exactly the pairs with a nonzero term in the Leibniz expansion
        kept = set(supports)
        assert kept == {(rows, cols) for rows, cols in pairs
                        if any(all(not A[i][j].is_zero
                                   for i, j in zip(rows, perm))
                               for perm in permutations(cols))}
        supported = matrix_minors(A, k, field)
        assert supported == [m for pair, m in zip(pairs, full)
                             if pair in kept]
        assert [m for m in supported if not m.is_zero] == \
            [m for m in full if not m.is_zero]


def test_cancelling_minors_are_supported_but_zero():
    A = [[P("x"), P("x")], [P("y"), P("y")]]
    assert list(minor_supports(A, 2)) == [((0, 1), (0, 1))]
    assert matrix_minors(A, 2, QQ) == [Poly.zero(QQ)]
    # a zero column leaves no transversal: no 2-minor is enumerated
    B = [[P("x"), P("0")], [P("y"), P("0")]]
    assert list(minor_supports(B, 2)) == []
    assert list(minor_supports(B, 1)) == [((0,), (0,)), ((1,), (0,))]


def test_determinant_of_a_submatrix_by_index():
    A = [[P("x"), P("0"), P("y")], [P("y^2"), P("x"), P("0")],
         [P("0"), P("1"), P("x*y")]]
    memo = {}
    for rows, cols in [((0, 2), (0, 1)), ((1, 2), (1, 2)), ((0, 1, 2),) * 2]:
        sub = [[A[i][j] for j in cols] for i in rows]
        assert poly_det(A, QQ, rows, cols, memo) == poly_det(sub, QQ)
        assert memo[rows, cols] == poly_det(sub, QQ)
    assert poly_det(A, QQ) == poly_det(A, QQ, (0, 1, 2), (0, 1, 2))
    assert poly_det([], QQ) == Poly.one(QQ)


# coefficients that wrap around mod p, cancel, or are not integral over Q
KERNEL_COEFFS = {
    QQ: [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
         Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)],
    F5: [1, 2, 3, 4, 6, -1, 9],
    F7: [1, 3, 6, 8, -1, -6, 13],
    F65537: [1, 2, 65536, 65538, -1, -2, 32769],
}


def kernel_polys(field):
    term = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.sampled_from(KERNEL_COEFFS[field]))
    return st.lists(term, max_size=6).map(
        lambda ts: Poly(field, {(a, b): c for a, b, c in ts}))


def assert_canonical_equal(got, want):
    assert got.field == want.field
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)
    assert all(type(m) is Monomial for m in got.terms)
    p = got.field.p
    for c in got.terms.values():
        assert c
        if p is None:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 <= c < p


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(list(KERNEL_COEFFS)), st.data())
def test_arithmetic_agrees_with_the_term_by_term_reference(field, data):
    f = data.draw(kernel_polys(field))
    g = data.draw(st.one_of(
        kernel_polys(field),
        st.just(reference_neg(f)),                        # full cancellation
        st.just(Poly.zero(field)),
        st.sampled_from(KERNEL_COEFFS[field]).map(
            lambda c: Poly.term(field, 1, 2, c))))        # a single term
    coeff = data.draw(st.sampled_from(KERNEL_COEFFS[field] + [0]))
    assert_canonical_equal(f * g, reference_mul(f, g))
    assert_canonical_equal(g * f, reference_mul(g, f))
    assert_canonical_equal(f + g, reference_add(f, g))
    assert_canonical_equal(f - g, reference_add(f, reference_neg(g)))
    assert_canonical_equal(-f, reference_neg(f))
    assert_canonical_equal(f.scale(coeff), reference_scale(f, coeff))


def test_reference_cases_cancel_and_wrap():
    x_plus_y = parse_poly("x + y", F5)
    x_minus_y = parse_poly("x + 4*y", F5)
    assert_canonical_equal(x_plus_y * x_minus_y,
                           reference_mul(x_plus_y, x_minus_y))
    assert str(x_plus_y * x_minus_y) == "x^2 + 4*y^2"  # xy terms wrap to 0
    square = parse_poly("x + y", QQ) * parse_poly("x - y", QQ)
    assert_canonical_equal(square, parse_poly("x^2 - y^2", QQ))
    f = parse_poly("1/2*x - 3/4*y", QQ)
    assert_canonical_equal(f + (-f), Poly.zero(QQ))
    assert_canonical_equal(f * f, reference_mul(f, f))
    assert str(f * f) == "1/4*x^2 - 3/4*x*y + 9/16*y^2"
