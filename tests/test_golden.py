"""Golden digests of the deterministic verify report.

The JSON report of `verify --family all --count 6 --seed 42` must stay
byte-identical across engine changes that keep the mathematics; these
sha256 values freeze it on both fields.
"""

import hashlib

import pytest

from regcore.verify import render_report, run_suite

GOLDEN = {
    "Q": "585ad0d4ffb4e374043c387a4c9f6e58a638d228ffa9e9218799ba0f1e313c2c",
    "F65537":
        "350dbf734c80c827994377c0160b1b0f778201edfb4827927b922a1794c76473",
}


@pytest.mark.parametrize("field", sorted(GOLDEN))
def test_report_digest(field):
    text = render_report(run_suite("all", 6, 42, field))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[field]
