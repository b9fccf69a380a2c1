"""Sparse exact row-echelon bases for truncated polynomial spaces.

Vectors live in (k[x,y]/m^N)^s and are stored as dicts from packed
integer keys to coefficients.  Keys encode (total degree, slot, y-exponent)
and sort degree-major, so restricting to a smaller truncation order is just
ignoring keys above a degree cap; a capped view of an echelon basis is
again echelon because leading keys have minimal degree within their row,
and a capped view of a reduced echelon basis is again reduced.

Over Q rows are integer rays (denominators cleared, content stripped),
which keeps elimination fraction-free; over F_p rows are lead-normalised
residues.  A basis is built in echelon form and put in reduced echelon
form (no row holds another row's pivot key) on its first query, so a
short query row meets pivot rows whose tails cannot send it on to further
pivots.

Invariant: a stored row has no zero coefficient and is primitive with a
positive lead over Q (has lead 1 over F_p).  So a stored row that
`SparseBasis.insert` shifts by a monomial as it copies it in is stored as
it is unless it meets a pivot or loses a term to the cap.
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

from .errors import MathError
from .field import Field

EPS_BASE = 1 << 60  # tag keys for kernel bookkeeping; order after all others

_DEG_SHIFT = 28
_SLOT_SHIFT = 14
_MASK = (1 << 14) - 1


def pack_key(degree: int, slot: int, b: int) -> int:
    return (degree << _DEG_SHIFT) | (slot << _SLOT_SHIFT) | b


def key_degree(key: int) -> int:
    return key >> _DEG_SHIFT


def degree_limit(cap) -> int:
    """Smallest key above degree `cap`; no key limit when cap is None."""
    return EPS_BASE if cap is None else (cap + 1) << _DEG_SHIFT


def _offset(a: int, b: int) -> int:
    """What multiplying by x^a y^b adds to a key."""
    return ((a + b) << _DEG_SHIFT) | b


def key_slot(key: int) -> int:
    return (key >> _SLOT_SHIFT) & _MASK


def monomial_row(a: int, b: int, slot: int = 0) -> dict:
    """The row of x^a y^b in `slot`."""
    return {pack_key(a + b, slot, b): 1}


def sym_rows(rows, rank: int) -> list[dict]:
    """Rows of R^rank as rows of Sym(R^rank), whose products add slots: at
    rank > 2 slot i < rank - 1 goes to B^(i-1) (slot 0 stays) and the last
    to C = _MASK // (B-1), for the largest B with (B-1)*B^(rank-3) < C.  So
    e^a of degree t < B lies in slot P + a_last*C, P < C with base-B digits
    a_i; and e_last^t passes _MASK exactly when t >= B (`slot_sums`)."""
    if rank <= 2:
        return list(rows)
    if 2 ** (rank - 3) >= _MASK:
        raise MathError(f"Sym of rank {rank} has too many slots")
    base = 2
    while base * (base + 1) ** (rank - 3) < _MASK // base:
        base += 1
    weights = ([0] + [base ** (s - 1) for s in range(1, rank - 1)]
               + [_MASK // (base - 1)])
    moves = [(w - s) << _SLOT_SHIFT for s, w in enumerate(weights)]
    return [{k + moves[(k >> _SLOT_SHIFT) & _MASK]: c for k, c in row.items()}
            for row in rows]


def slot_sums(a, b) -> list[int]:
    """The sorted slots of products of rows in slots `a` and `b`, if they
    fit in a key (see `sym_rows`)."""
    sums = sorted({s + t for s in a for t in b})
    if sums[-1] > _MASK:
        raise MathError("a symmetric power has too many slots")
    return sums


def row_product(a: dict, b: dict, cap=None, p=None) -> dict:
    """The product of two rows, whose slots add, below degree `cap`:
    integer rays over Q, residues mod p over F_p."""
    limit = degree_limit(cap)
    out: dict = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            if k < limit:
                out[k] = get(k, 0) + c1 * c2
    if p is not None:
        return {k: r for k, v in out.items() if (r := v % p)}
    return {k: v for k, v in out.items() if v}


def combine(coeffs: dict, rows: list[dict], p=None) -> dict:
    """sum(coeffs[i] * rows[i]), reduced mod p when p is given."""
    out: dict = {}
    for i, coeff in coeffs.items():
        for k, c in rows[i].items():
            v = out.get(k, 0) + coeff * c
            if p is not None:
                v %= p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def key_exponents(key: int) -> tuple[int, int]:
    """(a, b) exponents of the monomial a key stands for."""
    d = key >> _DEG_SHIFT
    b = key & _MASK
    return d - b, b


def distinct_rows(rows) -> list[dict]:
    """The nonzero rows, each once, in order of first occurrence."""
    return list({frozenset(row.items()): row for row in rows if row}.values())


def has_variable_factor(rows) -> bool:
    """Does x, or y, divide every term of every row?  Then the rows span a
    submodule of xF (or yF), whose quotient has infinite length."""
    return (all(key >> _DEG_SHIFT != key & _MASK for row in rows for key in row)
            or all(key & _MASK for row in rows for key in row))


def _strip_content(row: dict) -> dict:
    """The primitive integer ray of a nonzero row, with a positive lead."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        row = {k: c // g for k, c in row.items()}
    return row


class SparseBasis:
    """Incremental echelon basis, keyed by lead.

    A stored row dict is never mutated, so copies of `rows` may share them:
    `interreduce` replaces rows rather than editing them.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p  # None over Q
        self.rows: dict[int, dict] = {}
        self.reduced = False  # True while no row holds another's pivot key

    def dim_up_to(self, cap: int) -> int:
        limit = degree_limit(cap)
        return sum(1 for k in self.rows if k < limit)

    def truncate(self, cap: int):
        """Keep only terms of degree <= cap; rows whose lead is above cap go."""
        limit = degree_limit(cap)
        kept = {}
        for lead, row in self.rows.items():
            if lead < limit:
                if max(row) >= limit:  # a cut row, rebuilt and over Q stripped
                    row = {k: c for k, c in row.items() if k < limit}
                    row = _strip_content(row) if self.p is None else row
                kept[lead] = row
        self.rows = kept

    def interreduce(self):
        """Put the basis in reduced echelon form, with the same leads and span.

        Leads are taken in descending order, so the rows of larger lead
        are already reduced: each holds its own pivot key and no other.
        Subtracting such a row clears its pivot key from the current row
        and brings in no pivot key, so one subtraction per pivot key in
        the tail suffices.  Over Q content is stripped, over F_p rows stay
        lead-normalised.

        Any echelon basis of the same span with the same leads answers
        queries the same way.  Top reduction stops at the least key k such
        that no element of the span agrees with the row on every key below
        k and at k; that k, and whether it exists (membership), depend on
        the span only.
        """
        if self.reduced:
            return
        rows = self.rows
        p = self.p
        for lead in sorted(rows, reverse=True):
            row = rows[lead]
            hits = [k for k in row if k != lead and k in rows]
            if not hits:
                continue
            # one loop per field, as in reduce_to_lead, keeps the field
            # test out of the inner loop
            if p is None:  # scale once so that every factor is an integer
                scale = lcm(*(rows[k][k] for k in hits))
                new = (dict(row) if scale == 1
                       else {k: c * scale for k, c in row.items()})
                for k in hits:
                    prow = rows[k]
                    factor = new.pop(k) // prow[k]
                    for kk, cc in prow.items():
                        if kk != k:
                            nv = new.get(kk, 0) - factor * cc
                            if nv:
                                new[kk] = nv
                            else:
                                new.pop(kk, None)
                rows[lead] = _strip_content(new)
            else:
                new = dict(row)
                for k in hits:
                    c = new.pop(k)
                    for kk, cc in rows[k].items():
                        if kk != k:
                            nv = (new.get(kk, 0) - c * cc) % p
                            if nv:
                                new[kk] = nv
                            else:
                                new.pop(kk, None)
                rows[lead] = new
        self.reduced = True

    # -- reduction ----------------------------------------------------

    def reduce_to_lead(self, row: dict, cap=None, shift=None):
        """Top-reduce a copy of `row`, times x^a y^b for shift = (a, b),
        against the basis in the capped quotient.

        Returns (lead, residual, merges): lead is the smallest pivot-free
        key of the residual, or None when the row lies in the span; merges
        counts the pivot rows subtracted.  Over Q the row is scaled by a
        pivot's lead L only when L does not divide the row's coefficient.
        """
        # keys in [limit, EPS_BASE) lie above the cap; kernel tags stay
        limit = degree_limit(cap)
        delta = _offset(*shift) if shift else 0
        work = {kk: c for k, c in row.items()
                if not limit <= (kk := k + delta) < EPS_BASE}
        if not work:
            return None, {}, 0
        rows = self.rows
        first = min(work)
        if first not in rows:
            return first, work, 0
        heap = list(work)
        heapq.heapify(heap)
        p = self.p
        merges = 0
        while heap:
            k = heapq.heappop(heap)
            c = work.get(k)
            if c is None:  # a key that cancelled: rows hold no zero
                continue
            prow = rows.get(k)
            if prow is None:
                return k, work, merges
            merges += 1
            if p is None:
                scale = prow[k]
                factor, rest = divmod(c, scale)
                if rest:
                    factor = c
                    for kk in work:
                        work[kk] *= scale
                for kk, cc in prow.items():
                    if limit <= kk < EPS_BASE:
                        continue
                    nv = work.get(kk, 0) - factor * cc
                    if nv:
                        if kk not in work:
                            heapq.heappush(heap, kk)
                        work[kk] = nv
                    else:
                        work.pop(kk, None)
                if merges % 8 == 0 and work:
                    work = _strip_content(work)
            else:
                for kk, cc in prow.items():  # pivot rows are lead-normalised
                    if limit <= kk < EPS_BASE:
                        continue
                    nv = (work.get(kk, 0) - c * cc) % p
                    if nv:
                        if kk not in work:
                            heapq.heappush(heap, kk)
                        work[kk] = nv
                    else:
                        work.pop(kk, None)
        return None, {}, merges

    def insert(self, row: dict, cap=None, shift=None):
        """Insert a row, or with shift = (a, b) a stored row of a basis over
        the field times x^a y^b; returns its pivot key, or None if dependent.
        A shifted row that meets no pivot and loses no term is stored as is."""
        lead, work, merges = self.reduce_to_lead(row, cap, shift)
        if lead is None:
            return None
        if shift is None or merges or len(work) < len(row):
            if self.p is None:
                work = _strip_content(work)
            else:
                inv = self.field.inv(work[lead])
                if inv != 1:
                    work = {k: c * inv % self.p for k, c in work.items()}
        self.rows[lead] = work
        self.reduced = False
        return lead

    def contains(self, row: dict, cap=None) -> bool:
        self.interreduce()
        return self.reduce_to_lead(row, cap)[0] is None

    def term_leads(self, cap: int) -> list[tuple[int, int]] | None:
        """(a, b) of each lead of degree <= cap if every such row, capped
        there, is one term, else None (one slot).  A reduced basis is unique,
        and a span of monomials has those monomials as its reduced basis."""
        self.interreduce()
        limit = degree_limit(cap)
        rows = [(lead, row) for lead, row in self.rows.items() if lead < limit]
        if any(k < limit for lead, row in rows for k in row if k != lead):
            return None
        return [key_exponents(lead) for lead, _ in rows]


def normal_forms(basis: SparseBasis, cap: int):
    """D times the normal form modulo span(basis), in the capped quotient,
    as a lookup: nf(row, a, b) is D*NF(x^a y^b * row).

    After the one `interreduce`, a key k without a pivot (a standard key)
    is its own normal form and a pivot key k, of row L_k*k + tail_k, has
    normal form -tail_k/L_k, whose keys are all standard.  D is the lcm
    of the pivot leads over Q and 1 over F_p, so D*NF(k) is -(D/L_k)*tail_k
    and D*NF is linear with integer or residue values: a sum of lookups,
    with no pass against the basis.  It is zero exactly on span(basis).
    """
    basis.interreduce()
    p = basis.p
    limit = degree_limit(cap)
    pivots = [(lead, row) for lead, row in basis.rows.items() if lead < limit]
    scale = 1 if p is not None else lcm(*(row[lead] for lead, row in pivots))
    table = {lead: {k: (-c % p if p is not None else -(scale // row[lead]) * c)
                    for k, c in row.items() if k != lead and k < limit}
             for lead, row in pivots}

    def nf(row: dict, a: int = 0, b: int = 0) -> dict:
        delta = _offset(a, b)
        out: dict = {}
        for k, c in row.items():
            k += delta
            if k >= limit:
                continue
            tail = table.get(k)
            if tail is None:
                out[k] = out.get(k, 0) + c * scale
            else:
                for kk, cc in tail.items():
                    out[kk] = out.get(kk, 0) + c * cc
        if p is not None:
            return {k: r for k, v in out.items() if (r := v % p)}
        return {k: v for k, v in out.items() if v}
    return nf


def kernel_modulo(rows: list[dict], field: Field) -> list[dict]:
    """Relations sum(lam_i * rows_i) = 0 among the rows.

    Returns ray representatives of the relation space as dicts {i: coeff}.
    Each row is inserted with its own kernel tag, and a residual with tags
    only is a relation.  Exact and complete: the relation count equals
    len(rows) minus the rank of the rows.  A zero row gives {i: 1} with no
    insert: inserted, it would be stored as its own tag, which no other
    row holds, so it would reduce nothing.
    """
    work = SparseBasis(field)
    kernels = []
    for i, row in enumerate(rows):
        if not row:
            kernels.append({i: 1})
            continue
        aug = dict(row)
        aug[EPS_BASE + i] = 1
        lead = work.insert(aug)  # never None: the tag is new
        if lead >= EPS_BASE:
            stored = work.rows[lead]
            kernels.append({k - EPS_BASE: c for k, c in stored.items()})
    return kernels
