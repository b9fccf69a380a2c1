"""Golden digests of the deterministic verify report.

The JSON report of `verify --family all --count 6 --seed 42` must stay
byte-identical across engine changes that keep the mathematics; these
sha256 values freeze it on both fields.
"""

import hashlib

import pytest

from regcore.verify import render_report, run_suite

GOLDEN = {
    "Q": "8de80ff1c6a0e48f7531eedc60da199424105982a4a032a85e495d16a34d0d20",
    "F65537":
        "c54081fecda53c3f2ce4e5cbb779135400bbc3fce82951f093f94a766325459b",
}


@pytest.mark.parametrize("field", sorted(GOLDEN))
def test_report_digest(field):
    text = render_report(run_suite("all", 6, 42, field))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[field]
