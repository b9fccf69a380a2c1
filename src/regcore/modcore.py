"""Finite-colength torsion-free submodules M of R^r: representing matrices,
minor ideals, Fitting ideals of presentations, reductions, symmetric-power
colengths, Buchsbaum-Rim multiplicity and cores.

Generators are columns inside the ambient free module F = R^r.  All exact
decisions run through the same truncated spans as the ideal engine, with
one slot per monomial of Sym(F): `ModuleRep.sym` is a TruncatedIdeal whose
powers are the S_t(M), so the ideal engine's power test certifies module
reductions and its difference table gives br(M).  Once br(M) is fixed, a
draw is decided by one colength (`MultiplicityCertificate`).  Minors,
Fitting chains and drawn columns are packed rows over one common
denominator per matrix or column list (`matrix_rows`, `vector_rows`),
read as Polys only when a generator or column is read.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import islice
from math import comb

from .config import DEFAULT, EngineConfig
from .errors import (FieldMismatchError, GenericityError, MathError,
                     ZeroIdealError)
from .field import Field
from .poly import Poly, matrix_minors, minor_supports
from .reduction import (GenericSampler, ReductionCertificate, adjoint_ideal,
                        by_multiplicity, check_closed, is_reduction,
                        power_difference, search_reduction, term_ideal)
from .linalg import distinct_rows, monomial_row, row_product, sym_rows
from .trunc import (TruncatedIdeal, row_vector, span_colon,
                    span_with_certificate, vector_row, vector_rows)
from . import staircase

# Symmetric-power degree bound tried for module reduction certificates.
SYM_POWER_BOUND = 3


class ModuleRep:
    """Submodule of F = R^rank given by generator columns, with an optional
    presentation matrix whose columns are syzygies among the generators."""

    def __init__(self, field: Field, rank: int, columns,
                 presentation=None, config: EngineConfig = DEFAULT):
        self.field = field
        self.rank = rank
        if columns is not None:  # else `from_rows` reads them from rows
            self.columns = tuple(tuple(col) for col in columns)
            for col in self.columns:
                if len(col) != rank:
                    raise MathError("generator column has wrong length")
                if any(f.field != field for f in col):
                    raise FieldMismatchError("column entries over wrong field")
        self.presentation = None
        if presentation is not None:
            self.presentation = tuple(tuple(row) for row in presentation)
            n = len(self.columns)
            if len(self.presentation) != n or any(
                    len(row) != n - rank for row in self.presentation):
                raise MathError("presentation must be n x (n - rank)")
            self._check_syzygies()
        self.config = config
        self._fitting = (presentation is not None  # keeps its chain alive
                         and _chain_of(self.presentation, field, config))
        self._minor_ideal = None

    def _check_syzygies(self):
        for j in range(len(self.columns) - self.rank):
            for i in range(self.rank):
                acc = Poly.zero(self.field)
                for col, row in zip(self.columns, self.presentation):
                    if not (col[i].is_zero or row[j].is_zero):
                        acc = acc + col[i] * row[j]
                if not acc.is_zero:
                    raise MathError("presentation columns are not syzygies")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_ideal(cls, ideal: TruncatedIdeal) -> "ModuleRep":
        return cls(ideal.field, 1, [(g,) for g in ideal.gens],
                   config=ideal.config)

    @classmethod
    def from_rows(cls, field: Field, rank: int, rows, den: int,
                  config: EngineConfig = DEFAULT) -> "ModuleRep":
        """The module of the columns rows / den (`vector_rows`), unpacked
        only when they are read: a drawn module."""
        module = cls(field, rank, None, config=config)
        module._drawn, module.rows = (rows, den), sym_rows(rows, rank)
        return module

    @classmethod
    def from_monomial_ideal(cls, ideal: staircase.MonomialIdeal, field: Field,
                            config: EngineConfig = DEFAULT) -> "ModuleRep":
        """Rank-1 module with the analytic bidiagonal presentation."""
        cols = [(Poly.monomial(field, g),) for g in ideal.gens]
        pres = staircase.presentation_matrix(ideal, field)
        return cls(field, 1, cols, presentation=pres, config=config)

    # -- basic structure -----------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.columns)

    def colength(self) -> int:
        return self.sym.colength()

    @cached_property
    def columns(self) -> tuple:
        """The columns of a module built `from_rows`, read from its rows."""
        rows, den = self._drawn
        return tuple(row_vector(row, self.rank, self.field, den)
                     for row in rows)

    @cached_property
    def rows(self) -> list[dict]:
        """The columns as rows of Sym_1(F) = F (`sym_rows`)."""
        return sym_rows([vector_row(col) for col in self.columns], self.rank)

    @cached_property
    def sym(self) -> TruncatedIdeal:
        """M as S_1(M), a TruncatedIdeal of `rows`, whose span is M's."""
        span = span_with_certificate(self.rows, self.rank, self.field,
                                     config=self.config)
        return TruncatedIdeal(self.field, span, self.config, rows=self.rows)

    def minor_ideal(self) -> TruncatedIdeal:
        """I(M): the ideal of the nonzero rank-sized minors of the matrix
        whose columns are the generators, in `matrix_minors`' order."""
        if self._minor_ideal is None:
            matrix, den = matrix_rows(list(zip(*self.columns)), self.field)
            minors = matrix_minors(matrix, self.rank, self.field)
            if not any(minors):
                raise ZeroIdealError(
                    "representing matrix is rank-deficient: invalid module")
            self._minor_ideal = TruncatedIdeal.from_rows(
                minors, self.field, self.config, den ** self.rank)
        return self._minor_ideal

    def is_free(self) -> bool:
        return self.minor_ideal().is_unit

    # -- membership and comparisons ---------------------------------------

    def contains_vector(self, vector) -> bool:
        vector = tuple(vector)
        if len(vector) != self.rank:
            raise MathError("vector has wrong rank")
        return self.sym.span.contains_row(sym_rows([vector_row(vector)],
                                                   self.rank)[0])

    def contains_module(self, other: "ModuleRep") -> bool:
        if other.rank != self.rank:
            raise MathError("rank mismatch")
        return self.sym.contains_ideal(other)

    def equals(self, other: "ModuleRep") -> bool:
        if self.rank != other.rank or self.field != other.field:
            return False
        return self.sym.equals(other.sym)

    # -- constructions ------------------------------------------------------

    def direct_sum(self, other: "ModuleRep") -> "ModuleRep":
        if self.field != other.field:
            raise FieldMismatchError("direct sum across fields")
        r1, r2 = self.rank, other.rank
        zero = Poly.zero(self.field)
        cols = [tuple(col) + (zero,) * r2 for col in self.columns]
        cols += [(zero,) * r1 + tuple(col) for col in other.columns]
        pres = None
        if self.presentation is not None and other.presentation is not None:
            c1, c2 = self.ngens - r1, other.ngens - r2
            pres = [row + (zero,) * c2 for row in self.presentation]
            pres += [(zero,) * c1 + row for row in other.presentation]
        return ModuleRep(self.field, r1 + r2, cols, presentation=pres,
                         config=self.config)

    def scale_by_gens(self, ideal_gens) -> "ModuleRep":
        """The module a*M for the ideal a generated by ideal_gens."""
        cols = [tuple(f if f.is_zero else g * f for f in col)
                for g in ideal_gens for col in self.columns]
        return ModuleRep(self.field, self.rank, cols, config=self.config)

    def scale_by_monomial_ideal(self, ideal: staircase.MonomialIdeal) -> "ModuleRep":
        parts = _slot_monomial_ideals(self)
        if parts is not None:
            # slotwise product with minimal generators, kept slot-monomial
            cols = []
            for slot, part in enumerate(parts):
                for m in ideal.product(part).gens:
                    col = [Poly.zero(self.field)] * self.rank
                    col[slot] = Poly.monomial(self.field, m)
                    cols.append(tuple(col))
            return ModuleRep(self.field, self.rank, cols, config=self.config)
        gens = [Poly.monomial(self.field, m) for m in ideal.gens]
        return self.scale_by_gens(gens)


# ---------------------------------------------------------------------------
# Fitting ideals


def matrix_rows(matrix, field: Field) -> tuple[list[list[dict]], int]:
    """A Poly matrix as packed rows over one common denominator D: (rows,
    D), so a k-minor of the rows is D^k times the minor (`vector_rows`)."""
    flat, den = vector_rows([(f,) for row in matrix for f in row], field)
    width = len(matrix[0]) if matrix else 0
    return [flat[i * width:(i + 1) * width] for i in range(len(matrix))], den


def _component_split(matrix, nrows, ncols):
    """Connected components of the row/column incidence graph of a matrix
    of packed rows (`matrix_rows`)."""
    parent = list(range(nrows + ncols))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(nrows):
        for j in range(ncols):
            if matrix[i][j]:
                ri, rj = find(i), find(nrows + j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(nrows):
        if any(matrix[i][j] for j in range(ncols)):
            groups.setdefault(find(i), ([], []))[0].append(i)
    for j in range(ncols):
        if any(matrix[i][j] for i in range(nrows)):
            groups.setdefault(find(nrows + j), ([], []))[1].append(j)
    return [groups[key] for key in sorted(groups)]


_MINOR_BUDGET = 500_000


class _FittingChain:
    """I_0(A), ..., I_min(n,m)(A) of one presentation A, each on demand.

    Block-diagonal structure is detected and exploited: minors crossing
    independent blocks factor, so I_k is generated by the products of one
    s_b-minor of each block b with sum s_b = k, which keeps structured
    presentations (bidiagonal blocks) tractable at every k.  A block's
    minors of one size are enumerated when a requested I_k first needs
    them, only where the block's support admits a transversal
    (`minor_supports`), and every size reads and fills the block's one
    memo of sub-determinants, so a k-minor reuses the (k-1)-minors its
    expansion asks for.

    Minor and partial lists keep the first occurrence of each generator,
    which leaves I_k's generators in their order with repeats: a product's
    first occurrence in [u * v for u in U for v in V] is at the least pair
    (i, j) giving it, where U[i] and V[j] are first occurrences (else a
    smaller pair gives it), and a concatenation's are those of its parts.
    Generators are packed rows over A's one common denominator D
    (`matrix_rows`), so those of I_k are D^k times the Polys they stand for.
    """

    def __init__(self, matrix, field: Field, config: EngineConfig):
        self.matrix, self.field, self.config = matrix, field, config
        # (b, s) -> the distinct generators of I_s of the first b blocks
        self.partial = {(0, 0): [monomial_row(0, 0)]}
        self.ideals: dict[int, TruncatedIdeal] = {}

    @cached_property
    def blocks(self) -> list:
        """Per block: its submatrix, its nonzero minors by size, its memo;
        split (and `den` set) on first use, as most modules never ask for a
        Fitting ideal."""
        matrix, self.den = matrix_rows(self.matrix, self.field)
        nrows = len(matrix)
        split = _component_split(matrix, nrows, len(matrix[0]) if nrows else 0)
        return [([[matrix[i][j] for j in cols] for i in rows],
                 {0: [monomial_row(0, 0)]}, {}) for rows, cols in split]

    def _minors(self, b: int, size: int, k: int) -> list[dict]:
        sub, minors, memo = self.blocks[b]
        if size not in minors:
            count = comb(len(sub), size) * comb(len(sub[0]), size)
            if count > _MINOR_BUDGET and _MINOR_BUDGET < sum(
                    1 for _ in islice(minor_supports(sub, size),
                                      _MINOR_BUDGET + 1)):
                raise MathError(
                    f"I_{k} needs the {size}x{size} minors of a {len(sub)}x"
                    f"{len(sub[0])} block of the presentation: {count} "
                    f"minors, more than {_MINOR_BUDGET} of them (the "
                    f"budget) not zero by support")
            minors[size] = distinct_rows(matrix_minors(sub, size,
                                                       self.field, memo))
        return minors[size]

    def _gens(self, nblocks: int, size: int, k: int) -> list[dict]:
        """I_size of the first nblocks blocks: for each size `have` of the
        blocks before the last, their generators times the last's minors."""
        key = (nblocks, size)
        if key not in self.partial:
            gens: list[dict] = []
            if nblocks:
                sub = self.blocks[nblocks - 1][0]
                top = min(len(sub), len(sub[0]))
                for have in range(max(0, size - top), size + 1):
                    value = self._gens(nblocks - 1, have, k)
                    if value:
                        minors = self._minors(nblocks - 1, size - have, k)
                        gens.extend(
                            minors if have == 0 else value if have == size
                            else (row_product(u, v, None, self.field.p)
                                  for u in value for v in minors))
            self.partial[key] = distinct_rows(gens)
        return self.partial[key]

    def generators(self, k: int) -> list[dict]:
        """The distinct nonzero generators of I_k, D^k times them."""
        return self._gens(len(self.blocks), k, k)

    def ideal(self, k: int) -> TruncatedIdeal:
        if k not in self.ideals:
            gens = self.generators(k)
            if not gens:
                raise ZeroIdealError(f"I_{k} vanishes: all {k}-minors are zero")
            self.ideals[k] = TruncatedIdeal.from_rows(
                gens, self.field, self.config, self.den ** k)
        return self.ideals[k]


# Fitting chains by (hash of the entries, field, config), held by each live
# ModuleRep they present and by _latest, the last matrix fitting() was asked
# about.  Keying by the hash hashes the entries once; a chain of other
# entries under the same key is replaced, not shared.
_chains: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_latest: list = [None]


def _chain_of(matrix, field: Field, config: EngineConfig) -> _FittingChain:
    matrix = tuple(map(tuple, matrix))
    key = (hash(matrix), field, config)
    chain = _chains.get(key)
    if chain is None or chain.matrix != matrix:
        chain = _chains[key] = _FittingChain(matrix, field, config)
    return chain


def fitting(matrix, k: int, field: Field,
            config: EngineConfig = DEFAULT) -> TruncatedIdeal:
    """I_k(A): the ideal of k x k minors of A, as a truncated ideal.

    Unit for k <= 0; ZeroIdealError when I_k is zero.  A view of the one
    Fitting chain of A, shared by every live module presented by A.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if k > min(nrows, ncols):
        raise ZeroIdealError(f"I_{k} of a {nrows}x{ncols} matrix is zero")
    _latest[0] = chain = _chain_of(matrix, field, config)
    return chain.ideal(max(k, 0))


# ---------------------------------------------------------------------------
# colon of modules into modules


def colon_into(N: ModuleRep, M: ModuleRep) -> TruncatedIdeal:
    """(N : M) = { r in R : r*M <= N } for N <= M of the same rank, by
    `span_colon`."""
    if N.rank != M.rank:
        raise MathError("colon needs modules of equal rank")
    return span_colon(N.sym.span, M.rows, N.config)


# ---------------------------------------------------------------------------
# symmetric powers


def _slot_monomial_ideals(M: ModuleRep) -> list[staircase.MonomialIdeal] | None:
    """Per-slot monomial ideals when every column is a single term in a
    single slot (direct sums of monomial ideals and their scalings)."""
    buckets: list[list] = [[] for _ in range(M.rank)]
    for col in M.columns:
        slots = [i for i, f in enumerate(col) if not f.is_zero]
        if len(slots) != 1:
            return None
        buckets[slots[0]].append(col[slots[0]])
    parts = [term_ideal(bucket) for bucket in buckets]
    return None if any(part is None for part in parts) else parts


def sym_colength(M: ModuleRep, degree: int) -> int:
    """Exact length of Sym_degree(F) / S_degree(M)."""
    return degree and next(islice(M.sym.powers(), degree - 1, None)).colength()


def sym_reduction_check(N: ModuleRep, M: ModuleRep, t: int):
    """`is_reduction` of N's rows on M.sym: the certificate of the first
    n <= t with S_1(N) * S_n(M) = S_(n+1)(M), for N <= M, or None."""
    return is_reduction(N, M.sym, nmax=t, names=("N", "M"))


def minimal_reduction_module(M: ModuleRep, sampler: GenericSampler,
                             reference=None):
    """r+1 seeded-generic column combinations with a verified certificate:
    symmetric-power, or with a reference (br(M), certificate) from an
    earlier reduction of M, one colength per draw (`by_multiplicity`).
    A free module is its own minimal reduction, with a trivial certificate.
    """
    if M.is_free():
        return M, ReductionCertificate(0, 0, trivial=True)

    rows, den = vector_rows(M.columns, M.field)

    def build(cand):
        N = ModuleRep.from_rows(M.field, M.rank, cand, den, M.config)
        N.sym  # must have finite colength in F
        return N

    certify = (by_multiplicity(*reference) if reference is not None
               else lambda N, _: sym_reduction_check(N, M, SYM_POWER_BOUND))
    return search_reduction(
        rows, M.rank, M.field, sampler, build, certify,
        M.config.truncation_ceiling, None if reference is not None else (
            f"no draw N has S_1(N)*S_n(M) = S_(n+1)(M) for an n <= "
            f"{SYM_POWER_BOUND}, the symmetric power bound of a module "
            f"search (an ideal's search tries n up to colength(J))"))


def buchsbaum_rim(M: ModuleRep) -> int:
    """Buchsbaum-Rim multiplicity of F/M: the stable (rank+1)-th
    difference of t -> len(Sym_t(F)/S_t(M)) (`power_difference`)."""
    if M.is_free():
        return 0
    return power_difference(M.sym, M.rank + 1)


# ---------------------------------------------------------------------------
# cores


def core_module(M: ModuleRep, sampler: GenericSampler) -> ModuleRep:
    """core(M) = adj(I(M)) * M for integrally closed M (core(I) = adj(I)*I
    at rank 1); `check_closed` refuses monomial I(M) of rank 1 and direct
    sums of monomial ideals that are not.  adj(I(M)) is read on the
    staircase when I(M) is monomial, else computed by `adjoint_ideal`.

    With a presentation A, the paper's adj(I(M)) = I_(n-r-1)(A) is checked
    on the ideals; equal ideals give equal products, so the Fitting route
    I_(n-r-1)(A) * M agrees too.  Fitting ideals are invariants of M, so
    for closed M this holds for every presentation.  It fails when A's
    columns are syzygies that do not generate them all (ModuleRep checks
    only that they are syzygies), or when M is not integrally closed.
    """
    I = M.minor_ideal()
    if I.is_unit:
        return M  # free module: its only reduction is itself
    mono = I.to_monomial()
    check_closed([mono] if M.rank == 1 else _slot_monomial_ideals(M) or [])
    adj = (staircase.adjoint(mono) if mono is not None
           else adjoint_ideal(I, sampler))
    if M.presentation is not None:
        fit = fitting(M.presentation, M.ngens - M.rank - 1, M.field,
                      config=M.config)
        if not (fit.to_monomial() == adj if mono is not None
                else fit.equals(adj)):
            raise GenericityError(
                "adj(I(M)) differs from I_(n-r-1) of the presentation: its "
                "columns do not generate the syzygies, or M is not "
                "integrally closed")
    if mono is not None:
        return M.scale_by_monomial_ideal(adj)
    return M.scale_by_gens(list(adj.gens))
