"""A fixed piece of reference work that measures how fast the machine runs
pure Python right now.

On a shared virtual machine the same regcore work can take 1.5x longer in
one minute than in the next (another tenant on the same physical core, for
example).  Each child times this work at the end of its set-up and then
between operations, at least every SAMPLE_EVERY_S, on the same CPU as its
operations.  run.py divides each child's times by the mean of its
samples and multiplies by REFERENCE_S, so the reported times read as on a
machine where the reference work takes REFERENCE_S seconds.  The samples
are never part of an operation's time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.25
REFERENCE_S = 0.002  # about the median on a 2-vCPU VM, Python 3.11.7
ROWS = 60


def reference_seconds() -> float:
    """Time one round of work like regcore's hot loops: sparse rows kept in
    dicts and reduced with modular arithmetic, then Fraction sums."""
    t0 = perf_counter()
    p = 65537
    rows: dict[int, dict[int, int]] = {}
    for i in range(ROWS):
        row = {(i * 7 + j * 13) % 97: (i * j + 1) % p for j in range(8)}
        while row:
            lead = min(row)
            base = rows.get(lead)
            if base is None:  # store it with leading coefficient 1
                inv = pow(row[lead], -1, p)
                rows[lead] = {k: v * inv % p for k, v in row.items()}
                break
            c = row[lead]
            for k, v in base.items():
                value = (row.get(k, 0) - c * v) % p
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7, i)
    return perf_counter() - t0
