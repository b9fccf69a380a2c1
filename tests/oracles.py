"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the engine's staircase geometry or echelon bases:
membership is raw divisibility scanning, colength is raw lattice counting,
rank computations use a standalone Fraction Gaussian elimination, and
determinants use the permutation-sum formula.  `laplace_det` expands a
Poly determinant along its first column, `all_minors` lists every minor in
combinations order, zero or not, by it, `row_minors` reads the engine's
packed-row minors back as Polys, and `capped_row` packs a vector with its
terms above a degree dropped first.
The other exceptions are the
references for the engine's faster routines, which reuse its echelon
basis: `ReferenceSpan` builds a span the direct way, `reference_colon`
tests every monomial below the certificate, `sequential_colon` refines
the colon's candidates against N itself, `reference_intersect` meets two
ideals by a kernel against the smaller certificate, `reference_plus`
spans both generator lists at once (`reference_monomial_plus` joins two
monomial ideals' generators), `reference_fitting`
enumerates every minor size again for each k, `reference_kernel`
runs the kernel loop against a basis as it stands, without interreducing
it first, `reference_to_monomial` tests every monomial up to the
certificate for membership, `reference_nakayama_covers` builds both
sides of a Nakayama test in one ReferenceSpan, `reference_sym_product`
multiplies symmetric-power generators out term by term,
`reference_chain_gens` builds every generator list of a Fitting chain
eagerly, one determinant per minor, `reference_combination` draws a
seeded combination of Poly columns as Poly sums, `reference_product`
multiplies two ideals' standard generators as Polys, and `reference_minimalize` drops
dominated monomials by pairwise divisibility.  `reference_integral_closure`
and `reference_adjoint` test every point of the generator box against the
Newton polyhedron's facets.  `reference_add`,
`reference_neg`, `reference_mul` and `reference_scale` are Poly arithmetic
one coefficient operation per term, each result re-validated by the public
Poly constructor.
"""

from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)

from regcore.config import DEFAULT
from regcore.errors import NotMPrimaryError, ZeroIdealError
from regcore.linalg import (EPS_BASE, SparseBasis, combine, degree_limit,
                            key_exponents, times_monomial)
from regcore.modcore import _component_split, matrix_rows
from regcore.poly import Monomial, Poly, matrix_minors
from regcore.staircase import MonomialIdeal, colength, facets
from regcore.trunc import (TruncatedIdeal, TruncatedSpan, monomials_below,
                           row_vector, vector_row)


def capped_row(vector, cap):
    """`vector_row` of the vector with its terms above degree `cap` (if
    any) dropped first."""
    return vector_row(tuple(Poly.from_canonical(f.field, {
        m: c for m, c in f.terms.items() if cap is None or m.degree <= cap})
        for f in vector))


def laplace_det(matrix, field, rows=None, cols=None, memo=None):
    """Determinant of the rows x cols submatrix (default: all of it) of a
    Poly matrix, by Laplace expansion along its first column, with the
    sub-determinants kept in `memo` by (rows, cols)."""
    if rows is None:
        rows = tuple(range(len(matrix)))
        cols = tuple(range(len(matrix[0]) if matrix else 0))
    memo = {} if memo is None else memo
    if not rows:
        return Poly.one(field)
    if (rows, cols) not in memo:
        out = Poly.zero(field)
        for pos, i in enumerate(rows):
            term = matrix[i][cols[0]] * laplace_det(
                matrix, field, rows[:pos] + rows[pos + 1:], cols[1:], memo)
            out = out - term if pos % 2 else out + term
        memo[rows, cols] = out
    return memo[rows, cols]


def all_minors(matrix, k, field, memo=None):
    """Every k x k minor of a Poly matrix in combinations order, zero or
    not, sharing sub-determinants through `memo`."""
    if k <= 0:
        return [Poly.one(field)]
    memo = {} if memo is None else memo
    ncols = len(matrix[0]) if matrix else 0
    return [laplace_det(matrix, field, rows, cols, memo)
            for rows in combinations(range(len(matrix)), k)
            for cols in combinations(range(ncols), k)]


def row_minors(matrix, k, field, memo=None):
    """The engine's `matrix_minors` of a Poly matrix, packed over one
    common denominator D by `matrix_rows`, read back as Polys (/ D^k)."""
    rows, den = matrix_rows(matrix, field)
    return [row_vector(m, 1, field, den ** max(k, 0))[0]
            for m in matrix_minors(rows, k, field, memo)]


def support_split(matrix):
    """`_component_split` of a Poly matrix, read off its zero pattern."""
    nrows = len(matrix)
    return _component_split([[not f.is_zero for f in row] for row in matrix],
                            nrows, len(matrix[0]) if nrows else 0)


def mono_member(point, gens) -> bool:
    a, b = point
    return any(g[0] <= a and g[1] <= b for g in gens)


def brute_colength(gens, box=80) -> int:
    count = 0
    for a in range(box):
        for b in range(box):
            if not mono_member((a, b), gens):
                count += 1
    return count


def brute_colon(j_gens, i_gens, box=40):
    """Minimal generators of (J : I) for monomial ideals, by scanning."""
    member = []
    for a in range(box):
        for b in range(box):
            if all(mono_member((a + ga, b + gb), j_gens) for ga, gb in i_gens):
                member.append((a, b))
    minimal = [p for p in member
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in member)]
    return sorted(minimal)


def brute_product(g1, g2):
    return sorted({(a1 + a2, b1 + b2) for a1, b1 in g1 for a2, b2 in g2})


def sign(perm) -> int:
    s = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def permutation_determinant(matrix, zero, add, mul, neg):
    """Sum over permutations; matrix entries in any commutative ring."""
    n = len(matrix)
    total = zero
    for perm in permutations(range(n)):
        term = None
        for i, j in enumerate(perm):
            term = matrix[i][j] if term is None else mul(term, matrix[i][j])
        if sign(perm) < 0:
            term = neg(term)
        total = add(total, term)
    return total


def fraction_rank(rows) -> int:
    """Row rank over Q by plain Gaussian elimination on Fraction lists."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def quotient_dimension(gens_exponents_coeffs, order) -> int:
    """dim of k[x,y]/(I + m^order) for I given by [(coeff, a, b), ...] lists.

    Builds the multiples of each generator by monomials below the
    truncation and subtracts the resulting rank from dim k[x,y]/m^order.
    """
    monos = [(a, b) for d in range(order) for a in range(d + 1)
             for b in [d - a]]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for gen in gens_exponents_coeffs:
        min_deg = min(a + b for _, a, b in gen)
        for da in range(order):
            for db in range(order - da):
                if da + db + min_deg >= order:
                    continue
                row = [Fraction(0)] * len(monos)
                hit = False
                for coeff, a, b in gen:
                    key = (a + da, b + db)
                    if key in index:
                        row[index[key]] += Fraction(coeff)
                        hit = True
                if hit and any(row):
                    rows.append(row)
    rank = fraction_rank(rows) if rows else 0
    return len(monos) - rank


class ReferenceSpan(TruncatedSpan):
    """TruncatedSpan built the direct way: every monomial multiple of every
    column below a fixed truncation order, then a certificate search that
    probes each degree-t monomial of every slot for membership mod m^(t+1).

    Only construction differs; colength and membership are the
    engine's own, so an ideal or module can run on either builder.
    """

    def __init__(self, field, nslots, columns, order):
        self.field = field
        self.nslots = nslots
        self.order = order
        self.n0 = None
        self.basis = SparseBasis(field)
        cap = order - 1
        for col in columns:
            nonzero = [f for f in col if not f.is_zero]
            if not nonzero:
                continue
            for d in range(order - min(f.order() for f in nonzero)):
                for b in range(d + 1):
                    row = capped_row(tuple(f.shift(d - b, b) for f in col),
                                     cap)
                    if row:
                        self.basis.insert(row, cap=cap)
        for t in range(order):
            probes = [tuple(Poly.term(field, t - b, b) if s == slot
                            else Poly.zero(field) for s in range(nslots))
                      for slot in range(nslots) for b in range(t + 1)]
            if all(self.basis.contains(vector_row(v), cap=t) for v in probes):
                self.n0 = t
                return


def reference_span(columns, nslots, field, ceiling=64):
    """ReferenceSpan at a guessed order, doubled until a certificate shows."""
    maxdeg = max(f.degree() for col in columns for f in col if not f.is_zero)
    order = min(ceiling, max(6, 2 * maxdeg + 4))
    while True:
        span = ReferenceSpan(field, nslots, columns, order)
        if span.n0 is not None:
            return span
        if order >= ceiling:
            raise NotMPrimaryError("no certificate up to the ceiling")
        order = min(2 * order, ceiling)


def reference_kernel(basis, rows, cap=None):
    """Relations sum(lam_i * rows_i) in span(basis), within the capped
    quotient, as ray representatives {i: coeff}: each row goes on top of a
    copy of the rows of `basis` as stored (echelon, not necessarily
    reduced; `insert` never interreduces) with its own kernel tag.  Against
    an empty basis these are `kernel_modulo`'s rays."""
    work = SparseBasis(basis.field)
    work.rows = dict(basis.rows)
    kernels = []
    for i, row in enumerate(rows):
        aug = dict(row)
        aug[EPS_BASE + i] = 1
        lead = work.insert(aug, cap=cap)
        if lead is not None and lead >= EPS_BASE:
            stored = work.rows[lead]
            kernels.append({k - EPS_BASE: c for k, c in stored.items()})
    return kernels


def reference_colon(span, columns, config=DEFAULT):
    """(N : M) for the certified span N and the columns of M, testing every
    monomial below the certificate n0 of N as a candidate, with Poly
    products; m^n0 lies in the colon."""
    field = span.field
    t = span.n0
    cap = t - 1
    candidates = [Poly.monomial(field, m) for m in monomials_below(cap)]
    for col in columns:
        if not candidates:
            break
        rows = [capped_row(tuple(c * f for f in col), cap)
                for c in candidates]
        lams = reference_kernel(span.basis, rows, cap=cap)
        new_candidates = []
        for lam in lams:
            combo = Poly.zero(field)
            for i, coeff in sorted(lam.items()):
                combo = combo + candidates[i].scale(coeff)
            if not combo.is_zero:
                new_candidates.append(combo)
        candidates = new_candidates
    gens = candidates + [Poly.term(field, t - b, b) for b in range(t + 1)]
    return TruncatedIdeal.materialize(gens, field, config=config)


def sequential_colon(span, columns, config=DEFAULT):
    """(N : M) as the engine computed it before it worked in F/N: every
    monomial of degree < d = n0 - o is a candidate, refined one column at
    a time by `reference_kernel` against N itself, then m^d is appended."""
    field = span.field
    orders = [f.order() for col in columns for f in col if not f.is_zero]
    d = max(span.n0 - min(orders, default=span.n0), 0)
    cap = span.n0 - 1
    limit = degree_limit(cap)
    monos = monomials_below(d - 1)
    candidates = [{i: 1} for i in range(len(monos))]
    for col in columns:
        if not candidates:
            break
        base = capped_row(col, cap)
        if not base:
            continue
        shifted = [{k: c for k, c in times_monomial(base, *m).items()
                    if k < limit} for m in monos]
        rows = [combine(v, shifted, field.p) for v in candidates]
        lams = reference_kernel(span.basis, rows, cap=cap)
        candidates = [v for v in (combine(lam, candidates, field.p)
                                  for lam in lams) if v]
    gens = [Poly.from_canonical(field, {monos[i]: field.coerce(c)
                                        for i, c in v.items()})
            for v in candidates]
    gens += [Poly.term(field, d - b, b) for b in range(d + 1)]
    return TruncatedIdeal.materialize(gens, field, config=config)


def reference_intersect(a, b):
    """I meet J, for n0(I) >= n0(J) = s (else the other way round): the
    rows of I below t = n0(I) are a basis of I/m^t, the combinations of
    them that lie in J, decided modulo m^s <= J, span (I meet J)/m^t, and
    m^t <= I meet J.  Neither span changes."""
    if a.n0 < b.n0:
        return reference_intersect(b, a)
    field, t = a.field, a.n0
    limit = degree_limit(t - 1)
    rows = [{k: c for k, c in a.span.basis.rows[lead].items() if k < limit}
            for lead in sorted(a.span.basis.rows) if lead < limit]
    lams = reference_kernel(b.span.basis, rows, cap=b.n0 - 1)
    gens = []
    for combo in (combine(lam, rows, field.p) for lam in lams):
        if combo:
            gens.append(Poly.from_canonical(field, {
                Monomial(*key_exponents(k)): field.coerce(c)
                for k, c in combo.items()}))
    gens += [Poly.term(field, t - e, e) for e in range(t + 1)]
    return TruncatedIdeal.materialize(gens, field, config=a.config)


def reference_plus(a, b):
    """I + J, from both generator lists at once."""
    return TruncatedIdeal.materialize(a.gens + b.gens, a.field,
                                      config=a.config)


def reference_monomial_plus(a, b):
    """I + J for monomial ideals: the minimal ones among both generator
    lists."""
    return MonomialIdeal.from_exponents(a.gens + b.gens)


def reference_fitting(matrix, k, field, config=DEFAULT):
    """I_k(A) on its own: the block convolution of the blocks' minor ideals
    of every size, cut at k, for this k alone."""
    if k <= 0:
        return TruncatedIdeal.materialize([Poly.one(field)], field,
                                          config=config)
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if k > min(nrows, ncols):
        raise ZeroIdealError(f"I_{k} of a {nrows}x{ncols} matrix is zero")
    # value per partial size: None (zero ideal), "unit", or list of gens
    acc = {0: "unit"}
    for rows, cols in support_split(matrix):
        sizes = {0: "unit"}
        for size in range(1, min(len(rows), len(cols)) + 1):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            minors = [m for m in all_minors(sub, size, field)
                      if not m.is_zero]
            sizes[size] = minors or None
        new_acc = {}
        for have, value in acc.items():
            if value is None:
                continue
            for size, gens in sizes.items():
                if gens is None or have + size > k:
                    continue
                if value == "unit":
                    contrib = gens
                elif gens == "unit":
                    contrib = value
                else:
                    contrib = [u * v for u in value for v in gens]
                prev = new_acc.get(have + size)
                if contrib == "unit" or prev == "unit":
                    new_acc[have + size] = "unit"
                elif prev is None:
                    new_acc[have + size] = list(contrib)
                else:
                    new_acc[have + size] = prev + list(contrib)
        acc = new_acc
    value = acc.get(k)
    if value is None:
        raise ZeroIdealError(f"I_{k} vanishes: all {k}-minors are zero")
    if value == "unit":
        return TruncatedIdeal.materialize([Poly.one(field)], field,
                                          config=config)
    return TruncatedIdeal.materialize(list(dict.fromkeys(value)), field,
                                      config=config)


def row_poly(row, field):
    """The Poly a slot-0 row packs; over Q rows are rays, so a unit
    multiple of the Poly that was packed."""
    return Poly.from_canonical(field, {
        Monomial(*key_exponents(k)): field.coerce(c) for k, c in row.items()})


def reference_product(a, b):
    """I*J by the Poly route: every product of the standard generators of
    I and of J as Polys, each once, materialized."""
    gens = list(dict.fromkeys(
        row_poly(g, a.field) * row_poly(h, a.field)
        for g in a.standard_rows for h in b.standard_rows))
    return TruncatedIdeal.materialize(gens, a.field, config=a.config)


def reference_to_monomial(ideal):
    """The monomial ideal equal to a TruncatedIdeal, or None: the monomials
    of degree <= n0 that the ideal contains generate a monomial ideal
    inside it, and the two are equal exactly when their colengths agree."""
    found = [m for m in monomials_below(ideal.n0)
             if ideal.contains_poly(Poly.monomial(ideal.field, m))]
    candidate = MonomialIdeal.from_exponents(found)
    return candidate if colength(candidate) == ideal.colength() else None


def reference_nakayama_covers(big, small, nslots, field, cap):
    """`trunc.nakayama_covers` by one joint build and a membership pass:
    the x- and y-shifted `big` columns and the `small` columns go into a
    single ReferenceSpan modulo m^(cap+1)F, which must hold every column of
    `big`."""
    columns = [tuple(f.shift(*xy) for f in col) for col in big
               for xy in ((1, 0), (0, 1))]
    span = ReferenceSpan(field, nslots, columns + list(small), cap + 1)
    return all(span.basis.contains(capped_row(col, cap), cap=cap)
               for col in big)


def reference_combination(sampler, columns):
    """A seeded generic combination of Poly columns, summed as Polys: one
    `coefficient` per column, in order, times the column."""
    fld = columns[0][0].field
    out = [Poly.zero(fld)] * len(columns[0])
    for col in columns:
        c = sampler.coefficient(fld)
        out = [acc + f.scale(c) for acc, f in zip(out, col)]
    return tuple(out)


def reference_sym_product(N, M, t):
    """(slots, columns) of S_1(N) * S_t(M) inside Sym_(t+1)(F): each column
    of N times each product of t columns of M, expanded term by term in the
    slot variables e_1, ..., e_r as {exponent vector: Poly}."""
    zero = Poly.zero(M.field)

    def times(element, column):
        out = {}
        for exp, f in element.items():
            for i, g in enumerate(column):
                if not g.is_zero:
                    key = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                    out[key] = out.get(key, zero) + f * g
        return out

    slots = sorted(e for e in product(range(t + 2), repeat=M.rank)
                   if sum(e) == t + 1)
    columns = []
    for ncol in N.columns:
        for combo in combinations_with_replacement(M.columns, t):
            element = times({(0,) * M.rank: Poly.one(M.field)}, ncol)
            for col in combo:
                element = times(element, col)
            columns.append(tuple(element.get(e, zero) for e in slots))
    return slots, columns


def reference_chain_gens(matrix, field):
    """{k: nonzero generators of I_k(A)}, repeats and order included: the
    whole chain built eagerly, block by block and size by size, with each
    minor a determinant of its own submatrix."""
    gens = {0: [Poly.one(field)]}
    for rows, cols in support_split(matrix):
        block = {0: [Poly.one(field)]}
        for size in range(1, min(len(rows), len(cols)) + 1):
            minors = (laplace_det([[matrix[i][j] for j in c] for i in r],
                                  field)
                      for r in combinations(rows, size)
                      for c in combinations(cols, size))
            block[size] = [m for m in minors if not m.is_zero]
        new = {}
        for have, value in gens.items():
            for size, minors in block.items():
                if not minors:
                    continue
                if have == 0:
                    contrib = minors
                elif size == 0:
                    contrib = value
                else:
                    contrib = [u * v for u in value for v in minors]
                new.setdefault(have + size, []).extend(contrib)
        gens = new
    return gens


def reference_minimalize(points):
    """Minimal antichain of a monomial point set, by pairwise divisibility,
    in decreasing x-exponent."""
    pts = sorted({Monomial(*p) for p in points})
    keep = []
    for p in pts:
        if not any(q.divides(p) for q in keep):
            keep = [q for q in keep if not p.divides(q)]
            keep.append(p)
    return tuple(sorted(keep, key=lambda m: (-m.a, m.b)))


def reference_integral_closure(ideal):
    """Every point of the [0, max_a] x [0, max_b] box lying in NP(ideal)."""
    if ideal.is_unit:
        return ideal
    fac = facets(ideal)
    return MonomialIdeal.from_exponents(
        (a, b) for a in range(ideal.max_a() + 1)
        for b in range(ideal.max_b() + 1)
        if all(al * a + be * b >= ga for al, be, ga in fac))


def reference_adjoint(ideal):
    """Every point of the generator box of I/content(I) whose (1,1)-shift lies
    strictly inside the Newton polyhedron, times the content."""
    if ideal.is_unit:
        return ideal
    c = ideal.content()
    core = MonomialIdeal.from_exponents(
        (g.a - c.a, g.b - c.b) for g in ideal.gens)
    if core.is_unit:
        return MonomialIdeal((c,))
    fac = facets(core)
    adj = MonomialIdeal.from_exponents(
        (a, b) for a in range(core.max_a() + 1)
        for b in range(core.max_b() + 1)
        if all(al * (a + 1) + be * (b + 1) > ga for al, be, ga in fac))
    return adj.shift(c)


def _coefficient_ops(field):
    """(add, mul, neg) on the field's canonical coefficients."""
    p = field.p
    if p is None:
        return (lambda a, b: a + b), (lambda a, b: a * b), (lambda a: -a)
    return ((lambda a, b: (a + b) % p), (lambda a, b: a * b % p),
            (lambda a: -a % p))


def reference_add(f, g):
    add, _, _ = _coefficient_ops(f.field)
    terms = dict(f.terms)
    for m, c in g.terms.items():
        terms[m] = add(terms.get(m, f.field.zero), c)
    return Poly(f.field, terms)


def reference_neg(f):
    _, _, neg = _coefficient_ops(f.field)
    return Poly(f.field, {m: neg(c) for m, c in f.terms.items()})


def reference_mul(f, g):
    """The double loop over the terms, keys in order of first occurrence."""
    add, mul, _ = _coefficient_ops(f.field)
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = m1.times(m2)
            terms[m] = add(terms.get(m, f.field.zero), mul(c1, c2))
    return Poly(f.field, terms)


def reference_scale(f, coeff):
    _, mul, _ = _coefficient_ops(f.field)
    c0 = f.field.coerce(coeff)
    return Poly(f.field, {m: mul(c, c0) for m, c in f.terms.items()})
