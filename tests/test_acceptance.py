"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All tolerances are exact (integer and ideal equalities); measured wall
times are printed for reference against the documented targets.
"""

import json
import random
import time

import pytest

from regcore.cli import main
from regcore.field import QQ
from regcore.modcore import ModuleRep, core_module, fitting
from regcore.poly import parse_poly
from regcore.reduction import (GenericSampler, adjoint_ideal,
                               hilbert_samuel, term_ideal)
from regcore.staircase import (MonomialIdeal, adjoint, colength,
                               integral_closure, multiplicity)
from regcore.trunc import TruncatedIdeal
from regcore.verify import random_closed_ideal, run_suite

from oracles import (reference_intersect, reference_monomial_plus,
                     reference_plus)

M = MonomialIdeal.max_power
WORKED = MonomialIdeal.from_exponents([(3, 0), (1, 1), (0, 2)])


def P(text):
    return parse_poly(text, QQ)


def report(criterion, ok, seconds, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({seconds:.2f}s): {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_remark_reproduction(capsys):
    t0 = time.time()
    core = core_module(ModuleRep.from_monomial_ideal(M(2), QQ),
                       GenericSampler(seed=42))
    core_is_m3 = core.equals(ModuleRep.from_monomial_ideal(M(3), QQ))
    adj_is_m = adjoint(M(2)) == M(1)
    # rejection of the non-m-primary core computation, documented message
    reports = run_suite("counterexamples", count=2, seed=42, field="Q")
    by_name = {r.theorem: r for r in reports}
    rejected = by_name["core-of-principal-ideal-rejected"].verdict
    non_monotone = by_name["core-need-not-be-monotone-for-ideal-inclusion"].verdict
    recorded_adj = by_name["adjoint-of-m-squared"].verdict
    with capsys.disabled():
        report(1, core_is_m3 and adj_is_m and rejected and non_monotone
               and recorded_adj, time.time() - t0,
               "core(m^2)=m^3; core((x^2)) rejection honored; adj(m^2)=m")


def test_criterion_2_worked_example(capsys):
    t0 = time.time()
    ok = integral_closure(WORKED) == WORKED
    gens = [P("x^3"), P("x*y"), P("y^2")]
    how = adjoint(term_ideal(gens))
    col = adjoint_ideal(TruncatedIdeal.materialize(gens, QQ),
                        GenericSampler(seed=42)).to_monomial()
    ok &= (how == M(1) and col == M(1))
    ok &= colength(WORKED) == 4
    ok &= multiplicity(WORKED) == 5
    tri = TruncatedIdeal.from_monomial(WORKED, QQ)
    ok &= hilbert_samuel(tri, GenericSampler(seed=42)) == 5
    mod = ModuleRep.from_monomial_ideal(WORKED, QQ)
    A = mod.presentation
    ok &= [[str(e) for e in row] for row in A] == \
        [["y", "0"], ["-x^2", "y"], ["0", "-x"]]
    ok &= fitting(A, 2, QQ).to_monomial() == WORKED
    ok &= fitting(A, 1, QQ).to_monomial() == M(1)
    # alternating length identity: 4 = e(I) - e(adj I) + e(adj^2 I) = 5 - 1 + 0
    chain = [multiplicity(WORKED), multiplicity(adjoint(WORKED))]
    adj2 = adjoint(adjoint(WORKED))
    chain.append(0 if adj2.is_unit else multiplicity(adj2))
    ok &= chain == [5, 1, 0] and chain[0] - chain[1] + chain[2] == 4
    core = core_module(mod, GenericSampler(seed=42))
    expected = ModuleRep.from_monomial_ideal(
        MonomialIdeal.from_exponents([(4, 0), (2, 1), (1, 2), (0, 3)]), QQ)
    ok &= core.equals(expected)
    with capsys.disabled():
        report(2, ok, time.time() - t0,
               "worked example (x^3, x*y, y^2): closure, both adjoints, "
               "lengths, presentation, fitting chain, core")


@pytest.mark.parametrize("field", ["Q", "F65537"])
def test_criterion_3_main_theorem_suite(field, capsys):
    t0 = time.time()
    reports = run_suite("main-theorem", count=50, seed=42, field=field)
    failures = [r for r in reports if not r.verdict]
    colon_checks = [r for r in reports
                    if r.theorem == "adjoint-equals-colon-of-minimal-reduction"]
    module_colons = [r for r in colon_checks if "(+)" in r.instance]
    ideal_colons = [r for r in colon_checks if "(+)" not in r.instance]
    chain_checks = [r for r in reports
                    if r.theorem == "adjoint-chain-equals-fitting-chain"]
    ok = (not failures and len(ideal_colons) >= 50 * 3
          and len(module_colons) >= 20 * 3
          and len(chain_checks) >= 70)
    with capsys.disabled():
        report(3, ok, time.time() - t0,
               f"[{field}] adj(I(M)) = I_(n-r-1)(A) = (N:M), 3 seeds, "
               f"{len(reports)} checks, {len(failures)} failures")


@pytest.mark.parametrize("field", ["Q", "F65537"])
def test_criterion_4_core_theorems(field, capsys):
    t0 = time.time()
    reports = run_suite("core-theorems", count=50, seed=42, field=field)
    failures = [r for r in reports if not r.verdict]
    fixed_core2 = [r for r in reports
                   if r.theorem == "second-core-closed-form"
                   and r.instance == "M=m^2(+)m^3"]
    fixed_monotone = [r for r in reports
                      if r.theorem == "core-is-monotone-on-closed-submodules"
                      and "m^3(+)m^3" in r.instance]
    ok = (not failures and fixed_core2 and all(r.verdict for r in fixed_core2)
          and fixed_monotone and all(r.verdict for r in fixed_monotone))
    with capsys.disabled():
        report(4, ok, time.time() - t0,
               f"[{field}] core identities incl. core^2(m^2(+)m^3) = "
               f"m^18(+)m^19; {len(reports)} checks, {len(failures)} failures")


def test_criterion_5_multiplicity_cross_checks(capsys):
    t0 = time.time()
    reports = run_suite("multiplicity-formulas", count=12, seed=42, field="Q")
    failures = [r for r in reports if not r.verdict]
    power_checks = [r for r in reports
                    if r.theorem == "power-multiplicity-three-ways"]
    br_checks = [r for r in reports
                 if r.theorem == "buchsbaum-rim-of-ideal-equals-hilbert-samuel"]
    mm = [r for r in reports
          if r.theorem == "buchsbaum-rim-of-double-maximal-ideal"]
    square_values = all(
        int(r.lhs) == (i + 1) ** 2 for i, r in enumerate(power_checks))
    ok = (not failures and len(power_checks) == 6 and square_values
          and len(br_checks) >= 10 and mm and mm[0].rhs == "3")
    with capsys.disabled():
        report(5, ok, time.time() - t0,
               f"e(m^n)=n^2 three ways (n<=6); BR=HS on {len(br_checks)} "
               f"ideals; BR(m(+)m)=3")


def test_criterion_6_dual_backend_equivalence(capsys):
    t0 = time.time()
    rng = random.Random(20260810)
    failures = []
    for trial in range(200):
        a_mono = random_closed_ideal(rng)
        b_mono = random_closed_ideal(rng)
        a = TruncatedIdeal.from_monomial(a_mono, QQ)
        b = TruncatedIdeal.from_monomial(b_mono, QQ)
        checks = [
            ("sum", reference_plus(a, b).to_monomial()
             == reference_monomial_plus(a_mono, b_mono)),
            ("product", a.product(b).to_monomial() == a_mono.product(b_mono)),
            ("intersect", reference_intersect(a, b).to_monomial()
             == a_mono.intersect(b_mono)),
            ("colon", a.colon(b).to_monomial() == a_mono.colon(b_mono)),
            ("colength", a.colength() == colength(a_mono)),
            ("equality", a.equals(b) == (a_mono == b_mono)),
        ]
        for name, good in checks:
            if not good:
                failures.append((trial, name, str(a_mono), str(b_mono)))
    with capsys.disabled():
        report(6, not failures, time.time() - t0,
               f"staircase vs truncated engines on 200 seeded pairs "
               f"({len(failures)} disagreements)")


def test_criterion_7_byte_identical_verify(tmp_path, capsys):
    t0 = time.time()
    runs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main(["verify", "--family", "all", "--count", "6",
                     "--seed", "42", "--field", "Q", "--out", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
    identical = runs[0] == runs[1]
    payload = json.loads(runs[0])
    ok = identical and payload["summary"]["failed"] == 0
    with capsys.disabled():
        report(7, ok, time.time() - t0,
               f"two runs of `verify --family all --seed 42` byte-identical "
               f"({payload['summary']['total']} reports)")
