import json
import re

import pytest

from regcore import verify
from regcore.config import DEFAULT
from regcore.field import QQ
from regcore.modcore import ModuleRep
from regcore.poly import parse_poly
from regcore.staircase import MonomialIdeal
from regcore.trunc import TruncatedIdeal
from regcore.verify import (VerificationReport, _Runner, render_report,
                            run_suite)

M = MonomialIdeal.max_power


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


@pytest.mark.parametrize("family", ["ideal-classics", "main-theorem",
                                    "core-theorems", "multiplicity-formulas",
                                    "counterexamples"])
def test_small_campaigns_pass_over_q(family):
    reports = run_suite(family, count=4, seed=7, field="Q")
    assert reports, "family produced no checks"
    failures = [r for r in reports if not r.verdict]
    assert not failures, failures[:3]


def test_small_campaign_passes_over_prime_field():
    reports = run_suite("main-theorem", count=3, seed=5, field="F65537")
    assert all(r.verdict for r in reports)


def test_json_reports_are_deterministic():
    a = render_report(run_suite("all", count=3, seed=42, field="Q"), "json")
    b = render_report(run_suite("all", count=3, seed=42, field="Q"), "json")
    assert a == b
    payload = json.loads(a)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == len(payload["reports"])


def test_different_seeds_differ():
    a = render_report(run_suite("ideal-classics", count=3, seed=1), "json")
    b = render_report(run_suite("ideal-classics", count=3, seed=2), "json")
    assert a != b


def test_text_rendering():
    reports = run_suite("counterexamples", count=2, seed=42)
    text = render_report(reports, "text")
    assert "PASS" in text and "summary:" in text
    # the counterexample staircase art is included
    assert "#" in text


def test_failure_witness_is_recheckable():
    runner = _Runner(QQ, DEFAULT)
    lhs, rhs = M(2), M(3)
    runner.eq_mono("synthetic-failure", "m^2 vs m^3", lhs, rhs)
    report = runner.reports[0]
    assert not report.verdict
    assert report.witness is not None
    # the witness names a monomial in exactly one side
    mono_text = report.witness.split()[0]
    from regcore.poly import parse_poly
    from regcore.field import QQ as QQ2
    poly = parse_poly(mono_text, QQ2)
    mono = next(iter(poly.terms))
    assert lhs.contains_monomial(mono) != rhs.contains_monomial(mono)
    rendered = render_report(runner.reports, "text")
    assert "FAIL" in rendered and "witness" in rendered


def test_report_fields():
    reports = run_suite("counterexamples", count=2, seed=42)
    r = reports[0]
    assert isinstance(r, VerificationReport)
    assert r.seconds >= 0.0
    payload = json.loads(render_report(reports, "json"))
    assert set(payload["reports"][0]) == {
        "theorem", "instance", "lhs", "rhs", "verdict", "witness"}


def _trunc(n):
    return TruncatedIdeal.from_monomial(M(n), QQ)


def _module(*powers):
    parts = [ModuleRep.from_monomial_ideal(M(n), QQ) for n in powers]
    return parts[0] if len(parts) == 1 else parts[0].direct_sum(parts[1])


def _parse_item(text, kind):
    if kind == "mono":
        return next(iter(parse_poly(text, QQ).terms))
    if kind == "poly":
        return parse_poly(text, QQ)
    return tuple(parse_poly(f, QQ) for f in text[1:-1].split(", "))


_MEMBERSHIP = {"mono": MonomialIdeal.contains_monomial,
               "poly": TruncatedIdeal.contains_poly,
               "column": ModuleRep.contains_vector}


# (entry point, lhs, rhs, expected verdict, item kind); the le_ entry
# points test lhs <= rhs
@pytest.mark.parametrize("entry, lhs, rhs, expected, kind", [
    ("eq_mono", M(2), M(3), False, "mono"),
    ("eq_mono", M(3), M(2), False, "mono"),
    ("eq_mono", M(3), M(3), True, "mono"),
    ("eq_trunc", _trunc(2), _trunc(3), False, "poly"),
    ("eq_trunc", _trunc(3), _trunc(2), False, "poly"),
    ("eq_trunc", _trunc(2), _trunc(2), True, "poly"),
    ("le_trunc", _trunc(2), _trunc(3), False, "poly"),
    ("le_trunc", _trunc(3), _trunc(2), True, "poly"),
    ("eq_module", _module(2, 3), _module(3, 3), False, "column"),
    ("eq_module", _module(3, 3), _module(2, 3), False, "column"),
    ("eq_module", _module(3), _module(2), False, "column"),
    ("eq_module", _module(2, 3), _module(2, 3), True, "column"),
    ("le_module", _module(2, 3), _module(3, 3), False, "column"),
    ("le_module", _module(3, 3), _module(2, 3), True, "column"),
])
def test_comparator_witness_is_recheckable(entry, lhs, rhs, expected, kind):
    runner = _Runner(QQ, DEFAULT)
    getattr(runner, entry)("synthetic", f"{entry} case", lhs, rhs)
    report = runner.reports[0]
    assert report.verdict is expected
    if expected:
        assert report.witness is None
        return
    found = re.fullmatch(r"(.+) lies in (lhs|rhs) but not (lhs|rhs)",
                         report.witness)
    assert found, report.witness
    item = _parse_item(found.group(1), kind)
    sides = {"lhs": lhs, "rhs": rhs}
    inside = _MEMBERSHIP[kind]
    assert inside(sides[found.group(2)], item)
    assert not inside(sides[found.group(3)], item)
    if entry.startswith("le_"):  # a containment names an element of lhs
        assert found.group(2) == "lhs"


def test_check_seconds_sum_to_the_campaign_wall_after_set_up(monkeypatch):
    readings = []

    def perf_counter():  # a fake clock with uneven integer steps
        readings.append(len(readings) ** 2)
        return readings[-1]

    instances = verify._instances
    marks = {}

    def timed_instances(*args, **kwargs):
        result = instances(*args, **kwargs)
        marks["setup_end"] = len(readings) ** 2  # the clock's next reading
        return result

    monkeypatch.setattr(verify, "perf_counter", perf_counter)
    monkeypatch.setattr(verify, "_instances", timed_instances)
    reports = run_suite("all", count=2, seed=42, field="Q")
    assert all(r.seconds > 0 for r in reports)
    assert sum(r.seconds for r in reports) == \
        readings[-1] - marks["setup_end"]
