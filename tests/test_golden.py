"""Golden digests of the deterministic verify report and of the CLI.

The JSON report of `verify --family all --count 6 --seed 42` must stay
byte-identical across engine changes that keep the mathematics; these
sha256 values freeze it on both fields.  The count-50 campaigns that
perfbench's campaign workloads run and hash are frozen the same way, and
so are the exit codes and stdout of the ideal commands on a fixed battery.
"""

import hashlib
import json

import pytest

from regcore.cli import main
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


# Term and non-term ideals: closed, not closed, unit, not m-primary, with a
# monomial factor, above the ceiling, and phi(x^4, x^2*y, y^2) for the
# coordinate change phi: y -> x + y, alone and times x.  Inputs whose colon
# adjoint is known to be wrong, such as (x^2, (x+y)^2), are left out.
CLI_INPUTS = [
    ["x^3", "x*y", "y^2"], ["x^2", "x*y", "y^2"], ["x^2", "y^2"],
    ["x^4", "x*y", "y^4"], ["x^5", "x^2*y", "y^3"], ["1"], ["x^2", "x*y"],
    ["x^4", "x^2*y", "x*y^2"], ["x^40", "y^40"],
    ["x^4", "x^2*y + x^3", "y^2 + 2*x*y + x^2"],
    ["x^5", "x^3*y + x^4", "x*y^2 + 2*x^2*y + x^3"],
    ["x^9 + y^10", "y^9"], ["x^3 + y^4", "x*y", "y^3"],
]
CLI_COMMANDS = [["closure"], ["adjoint", "--method", "howald"],
                ["adjoint", "--method", "colon"],
                ["adjoint", "--method", "both"], ["core"], ["mult"],
                ["reduction"]]
CLI_DIGEST = \
    "a9af2cdcd1fe24b9cb1f484920c0cd7520ad49a8d9f1e3fc0329b003388c2bbc"


def test_cli_digest(tmp_path, capsys):
    # exit code and stdout of every invocation; stderr is not pinned
    digest = hashlib.sha256()
    path = tmp_path / "I.json"
    for gens in CLI_INPUTS:
        for field in ("Q", "F7"):
            path.write_text(json.dumps({"field": field, "gens": gens}))
            for command in CLI_COMMANDS:
                for fmt in ("json", "text"):
                    code = main([command[0], "--ideal", str(path),
                                 *command[1:], "--format", fmt])
                    out = capsys.readouterr().out
                    digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == CLI_DIGEST
