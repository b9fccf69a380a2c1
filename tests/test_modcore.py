import gc
import random
import weakref
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from regcore import modcore
from regcore.config import EngineConfig
from regcore.errors import (GenericityError, MathError, NotMPrimaryError,
                            ZeroIdealError)
from regcore.field import QQ, PrimeField
from regcore.linalg import key_slot, monomial_row, slot_sums, sym_rows
from regcore.modcore import (ModuleRep, _slot_monomial_ideals, buchsbaum_rim,
                             colon_into, core_module, fitting,
                             minimal_reduction_module, sym_colength,
                             sym_reduction_check)
from regcore.poly import Poly, matrix_minors, parse_poly
from regcore.reduction import (RETRY_LIMIT, GenericSampler,
                               MultiplicityCertificate, hilbert_samuel,
                               minimal_reduction)
from regcore.staircase import (MonomialIdeal, colength, multiplicity,
                               presentation_matrix)
from regcore.trunc import (TruncatedIdeal, row_vector, span_with_certificate,
                           vector_row, vector_rows)

from oracles import (reference_chain_gens, reference_combination,
                     reference_fitting, reference_sym_product)
from test_reduction import FixedPairSampler, StuckSampler

F65537 = PrimeField(65537)
F7 = PrimeField(7)
M = MonomialIdeal.max_power


def P(text, field=QQ):
    return parse_poly(text, field)


def mono_module(ideal, field=QQ):
    return ModuleRep.from_monomial_ideal(ideal, field)


def msum(a, b, field=QQ):
    return mono_module(a, field).direct_sum(mono_module(b, field))


WORKED = MonomialIdeal.from_exponents([(3, 0), (1, 1), (0, 2)])


def test_minor_ideal_of_rank1_is_the_ideal():
    mod = mono_module(WORKED)
    assert mod.minor_ideal().to_monomial() == WORKED


def test_minor_ideal_of_direct_sum_is_product():
    mod = msum(M(2), M(3))
    assert mod.rank == 2 and mod.ngens == 7
    assert mod.minor_ideal().to_monomial() == M(5)


def test_free_module_unit_minors():
    free = ModuleRep(QQ, 2, [(P("1"), P("0")), (P("0"), P("1"))])
    assert free.is_free()


def test_rank_deficient_rejected():
    bad = ModuleRep(QQ, 2, [(P("x"), P("0")), (P("y"), P("0"))])
    with pytest.raises(ZeroIdealError):
        bad.minor_ideal()


def test_fitting_of_worked_presentation():
    A = [[P("y"), P("0")], [P("-x^2"), P("y")], [P("0"), P("-x")]]
    assert fitting(A, 2, QQ).to_monomial() == WORKED
    assert fitting(A, 1, QQ).to_monomial() == M(1)
    assert fitting(A, 0, QQ).is_unit
    with pytest.raises(ZeroIdealError):
        fitting(A, 3, QQ)


def test_fitting_block_convolution_matches_direct_sum():
    # block presentation of m^2 (+) m^3: I_4 must be adj(m^5) = m^4
    mod = msum(M(2), M(3))
    assert mod.presentation is not None
    assert fitting(mod.presentation, 4, QQ).to_monomial() == M(4)
    assert fitting(mod.presentation, 5, QQ).to_monomial() == M(5)
    assert fitting(mod.presentation, 3, QQ).to_monomial() == M(3)
    assert fitting(mod.presentation, 1, QQ).to_monomial() == M(1)
    assert fitting(mod.presentation, 0, QQ).is_unit


ENTRIES = ["0", "x", "y", "x^2", "x*y", "y^2", "x + y^2", "2*x - y", "y^3",
           "x^2 - 3*y^2"] * 3 + ["1"]
SMALL = EngineConfig(truncation_ceiling=12)  # non-m-primary I_k fail fast


def staircase_block(points):
    """The bidiagonal presentation of an m-primary monomial ideal."""
    ideal = MonomialIdeal.from_exponents(
        list(points) + [(max(a for a, _ in points) + 1, 0),
                        (0, max(b for _, b in points) + 1)])
    return [[str(f) for f in row]
            for row in presentation_matrix(ideal, QQ)]


def fitting_matrices(field):
    """Small matrices: one or two blocks, random or bidiagonal, placed
    block-diagonally, each of its own shape, and zero rows inserted."""
    width = st.integers(1, 3)
    random_blocks = width.flatmap(lambda w: st.lists(
        st.lists(st.sampled_from(ENTRIES), min_size=w, max_size=w),
        min_size=1, max_size=3))
    staircase_blocks = st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        min_size=1, max_size=2).map(staircase_block)
    blocks = st.one_of(random_blocks, staircase_blocks)

    def build(data):
        parts, zero_rows = data
        ncols = sum(len(part[0]) for part in parts)
        matrix, left = [], 0
        for part in parts:
            width = len(part[0])
            for row in part:
                matrix.append(["0"] * left + row
                              + ["0"] * (ncols - left - width))
            left += width
        for at in zero_rows:
            matrix.insert(at % (len(matrix) + 1), ["0"] * ncols)
        return [[P(e, field) for e in row] for row in matrix]
    return st.tuples(st.lists(blocks, min_size=1, max_size=2),
                     st.lists(st.integers(0, 6), max_size=2)).map(build)


def fitting_outcome(compute):
    try:
        return compute()
    except (ZeroIdealError, NotMPrimaryError) as exc:
        return type(exc)


def assert_same_fitting(got, expected):
    if isinstance(expected, type):
        assert got is expected
    else:
        assert isinstance(got, TruncatedIdeal) and got.equals(expected)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_fitting_chain_matches_reference(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    A = data.draw(fitting_matrices(field))
    for k in range(-1, min(len(A), len(A[0])) + 2):
        assert_same_fitting(
            fitting_outcome(lambda: fitting(A, k, field, SMALL)),
            fitting_outcome(lambda: reference_fitting(A, k, field, SMALL)))
    assert fitting(A, 0, field, SMALL).is_unit
    with pytest.raises(ZeroIdealError):
        fitting(A, min(len(A), len(A[0])) + 1, field, SMALL)


def test_fitting_memo_follows_the_latest_presentation():
    worked = [["y", "0"], ["-x^2", "y"], ["0", "-x"]]
    a_q = [[P(e) for e in row] for row in worked]
    a_f7 = [[P(e, F7) for e in row] for row in worked]
    b_q = msum(M(2), M(3)).presentation
    calls = [(a_q, 2, QQ), (b_q, 4, QQ), (a_q, 1, QQ), (a_f7, 2, F7),
             (b_q, 5, QQ), (a_q, 2, QQ), (a_f7, 1, F7), (b_q, 2, QQ)]
    for matrix, k, field in calls:
        got = fitting(matrix, k, field)
        assert got.field == field
        assert got.equals(reference_fitting(matrix, k, field))
    # list-of-lists and tuple-of-tuples name the same presentation
    tuples = tuple(tuple(row) for row in a_q)
    assert fitting(a_q, 2, QQ) is fitting(tuples, 2, QQ)
    # the config is part of the key: a lower ceiling must be honoured
    wide = [[P("y^9")], [P("-x^9")]]
    assert fitting(wide, 1, QQ).n0 == 17
    with pytest.raises(NotMPrimaryError):
        fitting(wide, 1, QQ, EngineConfig(truncation_ceiling=8))


def test_presentation_syzygy_validation():
    with pytest.raises(MathError):
        ModuleRep(QQ, 1, [(P("x"),), (P("y"),)],
                  presentation=[[P("y")], [P("x")]])  # sign is wrong


def test_syzygy_validation_sees_one_wrong_entry_of_a_block():
    good = msum(M(2), M(3))  # block-diagonal, mostly zeros
    for i, j in [(1, 1), (5, 3)]:  # an entry of each block
        bad = [list(row) for row in good.presentation]
        bad[i][j] = -bad[i][j]
        with pytest.raises(MathError):
            ModuleRep(QQ, 2, good.columns, presentation=bad)
    bad = [list(row) for row in good.presentation]
    bad[1][3] = P("x")  # a zero entry of the other block made nonzero
    with pytest.raises(MathError):
        ModuleRep(QQ, 2, good.columns, presentation=bad)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_lazy_chain_answers_each_k_in_any_order(data):
    field = data.draw(st.sampled_from([QQ, F7]))
    A = data.draw(fitting_matrices(field))
    other = [[P("y", field)], [P("-x", field)]]
    top = min(len(A), len(A[0]))
    chain_gens = reference_chain_gens(A, field)
    shuffled = list(range(1, top + 1))
    random.Random(top).shuffle(shuffled)
    for order in (list(range(top, 0, -1)), shuffled):
        fitting(other, 1, field, SMALL)  # the next request builds a fresh chain
        for at, k in enumerate(order):
            if at == len(order) // 2:
                fitting(other, 1, field, SMALL)
            assert_same_fitting(
                fitting_outcome(lambda: fitting(A, k, field, SMALL)),
                fitting_outcome(lambda: reference_fitting(A, k, field, SMALL)))
            chain = modcore._latest[0]
            assert [row_vector(g, 1, field, chain.den ** k)[0]
                    for g in chain.generators(k)] == \
                list(dict.fromkeys(chain_gens.get(k, [])))


def count_minors(monkeypatch):
    """Fresh Fitting chains whose enumerated minors are counted."""
    counted = [0]

    def counting(*args, **kwargs):
        minors = matrix_minors(*args, **kwargs)
        counted[0] += len(minors)
        return minors
    monkeypatch.setattr(modcore, "matrix_minors", counting)
    monkeypatch.setattr(modcore, "_chains", weakref.WeakValueDictionary())
    monkeypatch.setattr(modcore, "_latest", [None])
    return counted


def test_fitting_enumerates_only_the_sizes_it_needs(monkeypatch):
    counted = count_minors(monkeypatch)
    pres = presentation_matrix(M(10), F65537)  # 11 x 10, one block
    assert fitting(pres, 9, F65537).to_monomial() == M(9)
    # the 9-minors alone are 55 * 10 = 550; every size is 352,715
    assert counted[0] <= 600
    # the chain keeps them: I_10 adds only its own size
    assert fitting(pres, 10, F65537).to_monomial() == M(10)
    assert counted[0] <= 600 + 11


def test_fitting_of_a_large_bidiagonal_block():
    # I_11 of m^12's presentation is adj(m^12) = m^11; a chain that
    # enumerates every size refuses it (its 6-minors exceed the budget)
    pres = presentation_matrix(M(12), F65537)
    assert fitting(pres, 11, F65537).to_monomial() == M(11)


def test_fitting_enumerates_minors_by_support(monkeypatch):
    # I_6 of m^12's presentation is m^6: of its 13 * 12 block's 1,585,584
    # index pairs, over the budget, only 27,132 admit a transversal
    counted = count_minors(monkeypatch)
    pres = presentation_matrix(M(12), F65537)
    assert fitting(pres, 6, F65537).to_monomial() == M(6)
    assert counted[0] == 27132


def test_minors_chains_and_draws_make_no_poly_arithmetic(monkeypatch):
    # Polys only at the boundary: over Q with fractional entries, the
    # minors, a Fitting chain, the draws and the colon run on packed rows
    B = [[P("x + 1/2*y"), P("0")], [P("y^2"), P("x - 1/3*y")],
         [P("0"), P("y^2 + 2/5*x^2")]]
    mod = ModuleRep(QQ, 2, [(P("x"), P("0")), (P("1/2*y"), P("0")),
                            (P("0"), P("x^2 + 1/3*y^3")), (P("0"), P("y^2"))])
    monkeypatch.setattr(modcore, "_chains", weakref.WeakValueDictionary())
    calls = []
    for name in ("__mul__", "__add__", "__neg__", "scale"):
        original = getattr(Poly, name)
        monkeypatch.setattr(Poly, name, lambda *args, _f=original:
                            calls.append(1) or _f(*args))
    fitting(B, 2, QQ)
    minors = mod.minor_ideal()
    minimal_reduction_module(mod, GenericSampler(1))
    J, _ = minimal_reduction(minors, GenericSampler(2))
    J.colon(minors)
    assert calls == []
    assert minors.gens[0] * minors.gens[0] and calls == [1]  # counted


def test_modules_with_one_presentation_share_one_chain(monkeypatch):
    built = []

    class CountedChain(modcore._FittingChain):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)
    monkeypatch.setattr(modcore, "_FittingChain", CountedChain)
    monkeypatch.setattr(modcore, "_chains", weakref.WeakValueDictionary())
    monkeypatch.setattr(modcore, "_latest", [None])
    a, b = mono_module(M(4), F7), mono_module(M(4), F7)
    assert a.presentation == b.presentation
    assert fitting(a.presentation, 3, F7).to_monomial() == M(3)
    assert fitting(b.presentation, 3, F7) is fitting(a.presentation, 3, F7)
    assert len(built) == 1
    chain = weakref.ref(modcore._latest[0])
    fitting([[P("x", F7), P("y", F7)]], 1, F7)  # another latest chain
    del a
    gc.collect()
    assert chain() is not None  # b still holds it
    del b
    gc.collect()
    assert chain() is None
    assert len(built) == 2


def dense_block(n, seed):
    rng = random.Random(seed)
    entries = [e for e in ENTRIES if e not in ("0", "1")]
    return [[rng.choice(entries) for _ in range(n)] for _ in range(n)]


def test_minor_budget_refusal_names_its_cause():
    A = [[P(e, F7) for e in row] for row in dense_block(24, 3)]
    with pytest.raises(MathError) as err:
        fitting(A, 12, F7)
    message = str(err.value)
    for part in ("I_12", "12x12 minors", "24x24 block",
                 f"{2704156 ** 2} minors"):
        assert part in message
    # a size within the budget is enumerated: the entries generate m
    assert fitting(A, 1, F7).to_monomial() == M(1)


def test_membership_componentwise():
    mod = msum(M(3), M(3))
    assert mod.contains_vector((P("y^3"), P("0")))
    assert not mod.contains_vector((P("y^2"), P("0")))


def test_module_equality_subspace_not_matrix():
    a = mono_module(M(2))
    b = ModuleRep(QQ, 1, [(P("x^2 + y^2"),), (P("x^2"),), (P("x*y"),)])
    # spans differ: b misses y^2? actually x^2+y^2 - x^2 = y^2, so equal
    assert a.equals(b)


def test_scale_by_ideal():
    mod = mono_module(WORKED)
    scaled = mod.scale_by_monomial_ideal(M(1))
    expected = mono_module(MonomialIdeal.from_exponents(
        [(4, 0), (2, 1), (1, 2), (0, 3)]))
    assert scaled.equals(expected)


def test_colon_into_submodule():
    # (m^3 (+) m^3 : m^2 (+) m^3) = (r*m^2 <= m^3) = m
    n = msum(M(3), M(3))
    m = msum(M(2), M(3))
    assert colon_into(n, m).to_monomial() == M(1)
    assert colon_into(m, m).is_unit


def test_colon_into_minimal_reduction_is_adjoint():
    mod = msum(M(2), M(3))
    n, cert = minimal_reduction_module(mod, GenericSampler(seed=42))
    assert cert.degree == 1
    assert n.ngens == 3
    assert colon_into(n, mod).to_monomial() == M(4)  # adj(m^5)


def test_sym_slots_and_colength():
    mm = msum(M(1), M(1))
    assert mm.sym.square().span.nslots == 3  # slots e1^2, e1*e2, e2^2
    assert sym_colength(mm, 2) == 9  # sum of len(R/m^i m^j), i+j=2
    assert sym_colength(mm, 0) == 0
    rank1 = mono_module(M(2))
    assert sym_colength(rank1, 3) == 21  # len(R/m^6)


@pytest.mark.parametrize("field", [QQ, F7, F65537], ids=str)
def test_sym_colength_and_buchsbaum_rim_of_sums_are_exact(field):
    # S_t(A (+) B) is the sum over i <= t of A^i B^(t-i) e1^i e2^(t-i), so
    # its colength is the sum of the staircase colengths, and br(A (+) B)
    # is e(A) + e(A|B) + e(B) = (e(A) + e(AB) + e(B))/2; g*(A (+) B) for
    # g = [[1, f], [0, 1]] is isomorphic to A (+) B and has the same values
    parts = (M(1), M(2), WORKED)
    for a in parts:
        for b in parts:
            expected = [sum(colength(a.power(i).product(b.power(t - i)))
                            for i in range(t + 1)) for t in (1, 2)]
            br = (multiplicity(a) + multiplicity(a.product(b))
                  + multiplicity(b)) // 2
            for mod in [msum(a, b, field)] + [twisted_sum(a, b, f, field)
                                              for f in ("x", "y^2", "x + y")]:
                assert [sym_colength(mod, t) for t in (1, 2)] == expected
                assert buchsbaum_rim(mod) == br


def test_sym_slots_stay_distinct_until_refused():
    # the slots of Sym_t(R^r) are the sums of t slots of Sym_1: there are
    # comb(r + t - 1, t) of them, one per monomial, up to the first degree
    # that `slot_sums` refuses, which lies past every degree t with
    # (t + 1)^(r - 1) <= 2^14
    for rank in range(1, 12):
        one = sorted({key_slot(k) for row in sym_rows(
            [monomial_row(0, 0, s) for s in range(rank)], rank) for k in row})
        slots, t = one, 1
        while t < 200:
            assert len(slots) == comb(rank + t - 1, t)
            try:
                slots = slot_sums(slots, one)
            except MathError as exc:
                assert "too many slots" in str(exc)
                break
            t += 1
        assert (t + 2) ** (rank - 1) > 2 ** 14 or t == 200


def three_sum(a, b, c, field, f=None, h=None):
    """A (+) B (+) C, or g*(A (+) B (+) C) for g = [[1, f, 0], [0, 1, h],
    [0, 0, 1]], which is isomorphic to it and not slot-monomial."""
    zero = Poly.zero(field)
    f, h = (P(s, field) if s else zero for s in (f, h))
    return ModuleRep(field, 3, [
        (g, zero, zero) for g in (Poly.monomial(field, m) for m in a.gens)
    ] + [(f * g, g, zero) for g in (Poly.monomial(field, m) for m in b.gens)
         ] + [(zero, h * g, g)
              for g in (Poly.monomial(field, m) for m in c.gens)])


@pytest.mark.parametrize("field", [QQ, F65537], ids=str)
def test_sym_colength_of_rank_three_sums_is_exact(field):
    # S_t(A (+) B (+) C) is the sum of A^i B^j C^k e1^i e2^j e3^k over
    # i + j + k = t, so its colength is the sum of the staircase colengths
    a, b, c = M(1), M(2), WORKED
    expected = [sum(colength(a.power(i).product(b.power(j))
                             .product(c.power(t - i - j)))
                    for i in range(t + 1) for j in range(t + 1 - i))
                for t in (1, 2, 3)]
    for mod in (three_sum(a, b, c, field),
                three_sum(a, b, c, field, "x + y", "y^2")):
        assert [sym_colength(mod, t) for t in (1, 2, 3)] == expected


def test_buchsbaum_rim_at_rank_three_and_five():
    # br(m^(+r)) = e(m)*comb(r + 1, 2): 6 at rank 3, 15 at rank 5, where a
    # minimal reduction is certified by S_1(N)*S_1(M) = S_2(M)
    mmm = three_sum(M(1), M(1), M(1), QQ)
    assert buchsbaum_rim(mmm) == 6
    m5 = mono_module(M(1), F65537)
    for _ in range(4):
        m5 = m5.direct_sum(mono_module(M(1), F65537))
    assert buchsbaum_rim(m5) == 15
    n, cert = minimal_reduction_module(m5, GenericSampler(seed=42))
    assert (cert.degree, cert.trivial) == (1, False)
    assert n.ngens == 6 and n.colength() == 15


def test_sym_reduction_certificate_m_plus_m():
    mm = msum(M(1), M(1))
    n, cert = minimal_reduction_module(mm, GenericSampler(seed=42))
    assert cert.degree == 1
    assert n.ngens == 3
    assert sym_reduction_check(n, mm, 1)


def test_sym_reduction_check_refutes_a_non_reduction():
    # N = m (+) m without (0, y): F/N has infinite length, so no t works
    mm = msum(M(1), M(1))
    n = ModuleRep(QQ, 2, [(P("x"), P("0")), (P("y"), P("0")),
                          (P("0"), P("x"))])
    for t in (1, 2):
        assert not sym_reduction_check(n, mm, t)


def twisted_sum(a, b, f, field):
    """g*(A (+) B) for g = [[1, f], [0, 1]]: not slot-monomial, and
    isomorphic to A (+) B, so still integrally closed when A and B are."""
    zero = Poly.zero(field)
    gens = [Poly.monomial(field, m) for m in a.gens]
    return ModuleRep(field, 2, [(g, zero) for g in gens]
                     + [(P(f, field) * h, h) for h in
                        (Poly.monomial(field, m) for m in b.gens)])


@pytest.mark.parametrize("field", [QQ, F65537], ids=str)
@pytest.mark.parametrize("t", [1, 2])
def test_sym_reduction_check_on_twisted_sums(field, t):
    # oracle: with N <= M, S_1(N)*S_t(M) = S_(t+1)(M) exactly when the
    # certified span of the products has the colength of S_(t+1)(M)
    cases = [(M(2), M(1), "x"), (WORKED, M(2), "y^2"), (M(1), WORKED, "x + y")]
    for seed, (a, b, f) in enumerate(cases):
        mod = twisted_sum(a, b, f, field)
        sampler = GenericSampler(seed)
        inside_m = mod.scale_by_gens([P("x", field), P("y", field)])
        for source, expected in ((mod, True), (inside_m, False)):
            rows, den = vector_rows(source.columns, field)
            n = ModuleRep.from_rows(field, 2, [sampler.combination(rows, field)
                                               for _ in range(3)], den)
            slots, products = reference_sym_product(n, mod, t)
            span = span_with_certificate([vector_row(c) for c in products],
                                         len(slots), field)
            assert (span.colength() == sym_colength(mod, t + 1)) == expected
            assert bool(sym_reduction_check(n, mod, t)) == expected


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_module_draws_read_as_polys_are_the_poly_combinations(field):
    # rank 2 with fractional entries: one denominator for all the columns
    mod = ModuleRep(field, 2, [
        tuple(P(f, field) for f in col) for col in
        [("x", "0"), ("1/2*y", "0"), ("0", "x^2 + 1/3*y^3"), ("0", "y^2")]])
    rows, den = vector_rows(mod.columns, field)
    for seed in range(4):
        drawn, ref = GenericSampler(seed), GenericSampler(seed)
        for _ in range(3):
            assert ModuleRep.from_rows(
                field, 2, [drawn.combination(rows, field)], den).columns == \
                (reference_combination(ref, mod.columns),)
        # N is one of the search's triples of draws, read as Polys
        n, _ = minimal_reduction_module(mod, GenericSampler(seed))
        ref = GenericSampler(seed)
        assert n.columns in [tuple(reference_combination(ref, mod.columns)
                                   for _ in range(3))
                             for _ in range(RETRY_LIMIT)]


def test_sym_reduction_check_refuses_n_outside_m():
    mm = msum(M(1), M(1))
    n = ModuleRep(QQ, 2, [(P("x"), P("0")), (P("y"), P("0")),
                          (P("1"), P("x"))])
    with pytest.raises(MathError, match="N is not contained in M"):
        sym_reduction_check(n, mm, 1)


def test_module_search_gives_up_after_the_retry_limit():
    # every column StuckSampler draws is the first generator, so no draw
    # has finite colength; the low ceiling of M makes each failure fast
    mm = ModuleRep.from_monomial_ideal(
        M(1), QQ, config=EngineConfig(truncation_ceiling=8))
    mm = mm.direct_sum(mm)
    sampler = StuckSampler(1)
    with pytest.raises(GenericityError):
        minimal_reduction_module(mm, sampler)
    assert sampler.draws == (mm.rank + 1) * RETRY_LIMIT


def test_free_module_reduction_trivial():
    free = ModuleRep(QQ, 2, [(P("1"), P("0")), (P("0"), P("1"))])
    n, cert = minimal_reduction_module(free, GenericSampler(seed=1))
    assert cert.trivial
    assert n is free
    # a reference does not change that: br(free) = 0, and no draw is made
    n, cert = minimal_reduction_module(free, GenericSampler(seed=1), (0, cert))
    assert cert.trivial and cert.degree == 0
    assert n is free


class FirstDrawFrom(GenericSampler):
    """Draws its first rank+1 combinations from the columns of `source`,
    the later ones from the columns it is asked for; keeps every draw."""

    def __init__(self, seed, source):
        super().__init__(seed)
        self.source, self.drawn = source, []

    def combination(self, rows, fld):
        first = len(self.drawn) <= self.source.rank
        self.drawn.append(super().combination(
            vector_rows(self.source.columns, fld)[0] if first else rows, fld))
        return self.drawn[-1]


def reference_cases(field):
    return [msum(M(2), M(3), field), msum(WORKED, M(1), field),
            twisted_sum(M(2), M(1), "x", field),
            twisted_sum(WORKED, M(2), "y^2", field),
            twisted_sum(M(1), WORKED, "x + y", field)]


@pytest.mark.parametrize("field", [QQ, F7, F65537], ids=str)
def test_buchsbaum_rim_reference_agrees_with_symmetric_powers(field):
    # seed 1 fixes br(M) = colength(N1) by symmetric powers; a later draw
    # is accepted exactly when its colength is br(M)
    for i, mod in enumerate(reference_cases(field)):
        first, cert = minimal_reduction_module(mod, GenericSampler(i))
        br = first.colength()
        if _slot_monomial_ideals(mod) is not None:  # cheap slotwise S_t
            assert br == buchsbaum_rim(mod)
        for seed in (10 + i, 20 + i, 30 + i):
            n, mcert = minimal_reduction_module(mod, GenericSampler(seed),
                                                (br, cert))
            assert isinstance(mcert, MultiplicityCertificate)
            assert (mcert.e, mcert.reference, mcert.columns) == \
                (br, cert, tuple(n.rows))
            assert (mcert.degree, mcert.trivial) == (0, False)
            assert n.colength() == br
            assert sym_reduction_check(n, mod, 1)
        # a draw from m*M has colength above br(M): refuted, and a later
        # draw, from M, is accepted (over F7 some draws from m*M have
        # infinite colength, e.g. seed 40's for m^2 (+) m^3; these build)
        inside_m = mod.scale_by_gens([P("x", field), P("y", field)])
        sampler = FirstDrawFrom(41 + i, inside_m)
        n, _ = minimal_reduction_module(mod, sampler, (br, cert))
        drawn = ModuleRep.from_rows(field, 2, sampler.drawn[:3], 1)
        assert drawn.colength() > br
        assert not sym_reduction_check(drawn, mod, 1)
        assert len(sampler.drawn) > 3
        assert n.rows == sampler.drawn[-3:]
        # a reference above br(M) is refused
        with pytest.raises(MathError, match="below the reference multiplicity"):
            minimal_reduction_module(mod, GenericSampler(i), (br + 1, cert))


@pytest.mark.parametrize("field", [QQ, F7], ids=str)
def test_rank_one_is_one_multiplicity_decision(field):
    # an ideal is the rank-1 module: with one sampler seed, by powers or by
    # one reference e(I), the ideal and module searches accept the same
    # drawn columns with equal certificates, and refuse a wrong e with one
    # error
    ideals = [TruncatedIdeal.from_monomial(M(2), field),
              TruncatedIdeal.from_monomial(WORKED, field),
              TruncatedIdeal.materialize([P("x^2 - y^3", field),
                                          P("x*y + y^3", field)], field)]
    for i, ideal in enumerate(ideals):
        J1, cert = minimal_reduction(ideal, GenericSampler(i))
        e = J1.colength()
        mod = ModuleRep.from_rows(field, 1, ideal.rows, ideal.den)
        N1, pcert = minimal_reduction_module(mod, GenericSampler(i))
        assert N1.columns == tuple((g,) for g in J1.gens)
        assert (pcert.degree, pcert.colength) == (cert.exponent, cert.colength)
        for seed in (10 + i, 20 + i):
            J, icert = minimal_reduction(ideal, GenericSampler(seed),
                                         (e, cert))
            N, mcert = minimal_reduction_module(mod, GenericSampler(seed),
                                                (e, cert))
            assert isinstance(icert, MultiplicityCertificate)
            assert icert == mcert
            assert (icert.degree, icert.trivial) == (0, False)
            assert icert.exponent == 0
            assert icert.columns == tuple(N.rows) == tuple(J.rows)
            assert N.columns == tuple((g,) for g in J.gens)
        with pytest.raises(MathError) as ideal_error:
            minimal_reduction(ideal, GenericSampler(i), (e + 1, cert))
        with pytest.raises(MathError) as module_error:
            minimal_reduction_module(mod, GenericSampler(i), (e + 1, cert))
        assert str(ideal_error.value) == str(module_error.value)
        assert "below the reference multiplicity" in str(ideal_error.value)


# rank-1 inputs, closed and not: (x^5, x^4*y, y^5) needs J*I^4 = I^5, past
# the bound n <= 3 of a module search of rank >= 2
RANK_ONE = [["x^2", "x*y", "y^2"], ["x^3", "x*y", "y^2"],
            ["x^2 - y^3", "x*y + y^3"], ["x^5", "x^4*y", "y^5"],
            ["x^2", "y^3"], ["x^4", "x^2*y + x^3", "y^2 + 2*x*y + x^2"],
            ["x^3 + y^4", "x*y^2", "y^3"]]


def _same_search(ideal, mod, sampler, twin):
    """The ideal's and the rank-1 module's searches, on equal samplers, draw
    the same generators with exponent = symmetric degree, or refuse with
    the same text."""
    try:
        J, cert = minimal_reduction(ideal, sampler)
    except GenericityError as refused:
        with pytest.raises(GenericityError) as module_refused:
            minimal_reduction_module(mod, twin)
        assert str(module_refused.value) == str(refused)
        return str(refused)
    N, mcert = minimal_reduction_module(mod, twin)
    assert N.columns == tuple((g,) for g in J.gens)
    assert (mcert.degree, mcert.colength) == (cert.exponent, cert.colength)
    return cert.exponent


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([QQ, F7, F65537]), st.sampled_from(RANK_ONE),
       st.integers(0, 10**6), st.sampled_from([64, 9]))
def test_rank_one_module_is_searched_as_its_ideal(field, gens, seed,
                                                  ceiling):
    # a ceiling of 9 leaves some draws undecided, and then all of them
    config = EngineConfig(truncation_ceiling=ceiling)
    try:
        ideal = TruncatedIdeal.materialize([P(g, field) for g in gens], field,
                                           config)
    except MathError:  # the input itself needs a higher ceiling
        return
    mod = ModuleRep(field, 1, [(P(g, field),) for g in gens], config=config)
    _same_search(ideal, mod, GenericSampler(seed), GenericSampler(seed))


def test_rank_one_module_refuses_as_its_ideal():
    # every draw is (x, y^2), whose powers never reach m's: the same
    # refusal, which names the field, not a power bound
    refused = _same_search(TruncatedIdeal.from_monomial(M(1), QQ),
                           mono_module(M(1)),
                           FixedPairSampler(P("x"), P("y^2")),
                           FixedPairSampler(P("x"), P("y^2")))
    assert "the field may be too small" in refused


def test_buchsbaum_rim_values():
    assert buchsbaum_rim(msum(M(1), M(1))) == 3
    free = ModuleRep(QQ, 2, [(P("1"), P("0")), (P("0"), P("1"))])
    assert buchsbaum_rim(free) == 0


def test_buchsbaum_rim_rank1_equals_hilbert_samuel():
    for ideal in (M(2), WORKED):
        mod = mono_module(ideal)
        tr = TruncatedIdeal.from_monomial(ideal, QQ)
        assert buchsbaum_rim(mod) == hilbert_samuel(tr, GenericSampler(seed=9))


def test_core_of_m2_rank1():
    core = core_module(mono_module(M(2)), GenericSampler(seed=42))
    assert core.equals(mono_module(M(3)))


def test_core_of_worked_example():
    core = core_module(mono_module(WORKED), GenericSampler(seed=42))
    expected = mono_module(MonomialIdeal.from_exponents(
        [(4, 0), (2, 1), (1, 2), (0, 3)]))
    assert core.equals(expected)


def test_core_of_direct_sum():
    core = core_module(msum(M(2), M(3)), GenericSampler(seed=42))
    assert core.equals(msum(M(6), M(7)))


@pytest.mark.parametrize("field", [QQ, F65537])
def test_core_module_checks_the_fitting_ideal_of_its_presentation(field):
    def mat(rows):
        return [[P(t, field) for t in row] for row in rows]
    cols = [(P(t, field),) for t in ("x^3", "x*y", "y^2")]
    good = mat([["y", "0"], ["-x^2", "y"], ["0", "-x"]])
    core = core_module(ModuleRep(field, 1, cols, presentation=good),
                       GenericSampler(seed=42))
    assert core.equals(mono_module(MonomialIdeal.from_exponents(
        [(4, 0), (2, 1), (1, 2), (0, 3)]), field))
    # x times the second column: still syzygies, but they no longer
    # generate them, and I_1 = (y, x^2) is not adj(I) = m
    bad = mat([["y", "0"], ["-x^2", "x*y"], ["0", "-x^2"]])
    with pytest.raises(GenericityError, match="do not generate the syzygies"):
        core_module(ModuleRep(field, 1, cols, presentation=bad),
                    GenericSampler(seed=42))


def test_core_module_refuses_input_that_is_not_closed():
    # (x^2, y^2) is not integrally closed (its closure is m^2), so the
    # formula core = adj(I(M))*M does not hold: refused by core_module itself
    bad = MonomialIdeal.from_exponents([(2, 0), (0, 2)])
    disguised = ModuleRep(QQ, 1, [(P("x^2 + y^2"),), (P("y^2"),)])
    for module, slot in ((mono_module(bad).direct_sum(mono_module(M(1))), 1),
                         (mono_module(M(1)).direct_sum(mono_module(bad)), 2),
                         (mono_module(bad), 1), (disguised, 1)):
        with pytest.raises(MathError, match=f"integrally closed.*slot {slot}"):
            core_module(module, GenericSampler(seed=42))


def test_second_core_closed_form():
    # core^2(m^2 (+) m^3) = m^18 (+) m^19 and rank-1 core^2(m^2) = m^5
    sampler = GenericSampler(seed=42)
    core2 = core_module(core_module(msum(M(2), M(3)), sampler), sampler)
    assert core2.equals(msum(M(18), M(19)))
    sampler = GenericSampler(seed=42)
    rank1 = core_module(core_module(mono_module(M(2)), sampler), sampler)
    assert rank1.equals(mono_module(M(5)))


def test_core_prime_field():
    core = core_module(msum(M(2), M(3), field=F65537), GenericSampler(seed=5))
    assert core.equals(msum(M(6), M(7), field=F65537))
