"""Golden digests of the deterministic verify report.

The JSON report of `verify --family all --count 6 --seed 42` must stay
byte-identical across engine changes that keep the mathematics; these
sha256 values freeze it on both fields.  The count-50 campaigns that
perfbench's campaign workloads run and hash are frozen the same way.
"""

import hashlib

import pytest

from regcore.verify import render_report, run_suite

GOLDEN = {
    "Q": "585ad0d4ffb4e374043c387a4c9f6e58a638d228ffa9e9218799ba0f1e313c2c",
    "F65537":
        "350dbf734c80c827994377c0160b1b0f778201edfb4827927b922a1794c76473",
}

# `verify --family F --field K --count 50 --seed 42`, keyed by (F, K)
CAMPAIGNS = {
    ("main-theorem", "Q"):
        "542dbe8ed4af8d5d83d928da8871e98b8353c2509dd0c6c0a6aef08e37e00989",
    ("core-theorems", "F65537"):
        "e8dc5094c517fbfb3738b11342b9a313626387822042f8b8b51667af73795d0e",
}


@pytest.mark.parametrize("field", sorted(GOLDEN))
def test_report_digest(field):
    text = render_report(run_suite("all", 6, 42, field))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[field]


@pytest.mark.parametrize("family, field", sorted(CAMPAIGNS))
def test_campaign_digest(family, field):
    text = render_report(run_suite(family, 50, 42, field))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CAMPAIGNS[(family, field)]
