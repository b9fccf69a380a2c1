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
"""

from __future__ import annotations

import heapq
from math import gcd, lcm

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


def times_monomial(row: dict, a: int, b: int) -> dict:
    """The row multiplied by x^a y^b."""
    delta = ((a + b) << _DEG_SHIFT) | b
    return {k + delta: c for k, c in row.items()}


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


def key_slot(key: int) -> int:
    return (key >> _SLOT_SHIFT) & _MASK


def key_exponents(key: int) -> tuple[int, int]:
    """(a, b) exponents of the monomial a key stands for."""
    d = key >> _DEG_SHIFT
    b = key & _MASK
    return d - b, b


def _strip_content(row: dict) -> dict:
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {k: c // g for k, c in row.items()}
    return row


class SparseBasis:
    """Incremental echelon basis, keyed by lead.

    A stored row dict is never mutated, since clones share them:
    `interreduce` replaces rows rather than editing them.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p = field.p  # None over Q
        self.rows: dict[int, dict] = {}
        self.reduced = False  # True while no row holds another's pivot key

    def clone(self) -> "SparseBasis":
        other = SparseBasis.__new__(SparseBasis)
        other.field = self.field
        other.p = self.p
        other.rows = dict(self.rows)
        other.reduced = self.reduced
        return other

    def dim_up_to(self, cap: int) -> int:
        limit = degree_limit(cap)
        return sum(1 for k in self.rows if k < limit)

    def truncate(self, cap: int):
        """Keep only terms of degree <= cap; rows whose lead is above cap go."""
        limit = degree_limit(cap)
        kept = {}
        for lead, row in self.rows.items():
            if lead < limit:
                row = {k: c for k, c in row.items() if k < limit}
                kept[lead] = _strip_content(row) if self.p is None else row
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
        the span only.  In `kernel_modulo` the rows stored on top of two
        such bases of N therefore differ by elements of N, which carry no
        kernel tags, so the relation rays are the same.
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
                new = {k: c * scale for k, c in row.items()}
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

    def reduce_to_lead(self, row: dict, cap=None):
        """Top-reduce a copy of `row` against the basis in the capped quotient.

        Returns (lead, residual): lead is the smallest pivot-free key of
        the residual, or None when the row lies in the span.
        """
        # keys in [limit, EPS_BASE) lie above the cap; kernel tags stay
        limit = degree_limit(cap)
        work = {k: c for k, c in row.items() if not limit <= k < EPS_BASE}
        if not work:
            return None, {}
        heap = list(work)
        heapq.heapify(heap)
        rows = self.rows
        p = self.p
        merges = 0
        while heap:
            k = heapq.heappop(heap)
            c = work.get(k)
            if not c:
                work.pop(k, None)
                continue
            prow = rows.get(k)
            if prow is None:
                return k, work
            if p is None:
                scale = prow[k]
                factor = c
                if scale != 1:
                    for kk in work:
                        work[kk] *= scale
                for kk, cc in prow.items():
                    if limit <= kk < EPS_BASE:
                        continue
                    nv = work.get(kk, 0) - factor * cc
                    if nv:
                        if kk not in work and kk != k:
                            heapq.heappush(heap, kk)
                        work[kk] = nv
                    else:
                        work.pop(kk, None)
                merges += 1
                if merges % 8 == 0 and work:
                    work = _strip_content(work)
            else:
                for kk, cc in prow.items():  # pivot rows are lead-normalised
                    if limit <= kk < EPS_BASE:
                        continue
                    nv = (work.get(kk, 0) - c * cc) % p
                    if nv:
                        if kk not in work and kk != k:
                            heapq.heappush(heap, kk)
                        work[kk] = nv
                    else:
                        work.pop(kk, None)
        return None, {}

    def insert(self, row: dict, cap=None):
        """Insert a row; returns its pivot key, or None if dependent."""
        lead, work = self.reduce_to_lead(row, cap)
        if lead is None:
            return None
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
        lead, _ = self.reduce_to_lead(row, cap)
        return lead is None


def kernel_modulo(basis: SparseBasis, rows: list[dict], cap=None) -> list[dict]:
    """Relations sum(lam_i * rows_i) in span(basis), within the capped quotient.

    Returns ray representatives of the relation space as dicts {i: coeff}.
    Exact and complete: the relation count equals len(rows) minus the rank
    the rows add on top of the basis.  The basis is interreduced in place
    first, and its clone takes the rows.
    """
    basis.interreduce()
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
