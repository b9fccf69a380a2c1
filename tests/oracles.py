"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the engine's staircase geometry or echelon bases:
membership is raw divisibility scanning, colength is raw lattice counting,
rank computations use a standalone Fraction Gaussian elimination, and
determinants use the permutation-sum formula.  The exceptions are the
references for the engine's faster routines, which reuse its echelon
basis: `ReferenceSpan` builds a span the direct way, `reference_colon`
tests every monomial below the certificate, `reference_fitting`
enumerates every minor size again for each k, and `reference_kernel`
runs the kernel loop against a basis as it stands, without interreducing
it first.
"""

from fractions import Fraction
from itertools import permutations

from regcore.config import DEFAULT
from regcore.errors import NotMPrimaryError, ZeroIdealError
from regcore.linalg import EPS_BASE, SparseBasis, kernel_modulo
from regcore.modcore import _component_split
from regcore.poly import Poly, matrix_minors
from regcore.trunc import (TruncatedIdeal, TruncatedSpan, monomials_below,
                           vector_row)


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

    Only construction differs; colength, membership and basis_rows are the
    engine's own, so an ideal or module can run on either builder.
    """

    def __init__(self, field, nslots, columns, order):
        self.field = field
        self.nslots = nslots
        self.columns = [tuple(col) for col in columns]
        self.n0 = None
        self._fill(order)
        for t in range(order):
            probes = [tuple(Poly.term(field, t - b, b) if s == slot
                            else Poly.zero(field) for s in range(nslots))
                      for slot in range(nslots) for b in range(t + 1)]
            if all(self.basis.contains(vector_row(v), cap=t) for v in probes):
                self.n0 = t
                return

    def _fill(self, order):
        self.order = order
        self.basis = SparseBasis(self.field)
        cap = order - 1
        for col in self.columns:
            nonzero = [f for f in col if not f.is_zero]
            if not nonzero:
                continue
            for d in range(order - min(f.order() for f in nonzero)):
                for b in range(d + 1):
                    row = vector_row(tuple(f.shift(d - b, b) for f in col),
                                     cap=cap)
                    if row:
                        self.basis.insert(row, cap=cap)

    def grow(self, order):
        """Rebuild at a larger truncation order; the certificate stands."""
        if order > self.order:
            self._fill(order)


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
    """`kernel_modulo`'s relation rays, by top reduction against the rows
    of `basis` as stored (echelon, not necessarily reduced): `insert`
    never interreduces."""
    work = basis.clone()
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
        rows = [vector_row(tuple(c * f for f in col), cap=cap)
                for c in candidates]
        lams = kernel_modulo(span.basis, rows, cap=cap)
        new_candidates = []
        for lam in lams:
            combo = Poly.zero(field)
            for i, coeff in sorted(lam.items()):
                combo = combo + candidates[i].scale(coeff)
            if not combo.is_zero:
                new_candidates.append(combo)
        candidates = new_candidates
    gens = candidates + [Poly.term(field, t - b, b) for b in range(t + 1)]
    return TruncatedIdeal.materialize(gens, field, order=t + 1, config=config)


def reference_fitting(matrix, k, field, config=DEFAULT):
    """I_k(A) on its own: the block convolution of the blocks' minor ideals
    of every size, cut at k, for this k alone."""
    if k <= 0:
        return TruncatedIdeal.unit(field, config)
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if k > min(nrows, ncols):
        raise ZeroIdealError(f"I_{k} of a {nrows}x{ncols} matrix is zero")
    # value per partial size: None (zero ideal), "unit", or list of gens
    acc = {0: "unit"}
    for rows, cols in _component_split(matrix, nrows, ncols):
        sizes = {0: "unit"}
        for size in range(1, min(len(rows), len(cols)) + 1):
            sub = [[matrix[i][j] for j in cols] for i in rows]
            minors = [m for m in matrix_minors(sub, size, field)
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
        return TruncatedIdeal.unit(field, config)
    return TruncatedIdeal.materialize(list(dict.fromkeys(value)), field,
                                      config=config)
