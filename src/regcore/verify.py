"""Theorem-by-theorem verification campaigns over generated example families.

Every identity the toolkit implements is re-checked here on concrete
instances: powers of the maximal ideal, seeded random integrally closed
monomial ideals (closures of random antichains, generator degree <= 6),
direct sums and ideal scalings of those, and the fixed worked examples.
All checks are exact; reports are deterministic given (family, count,
seed, field).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from time import perf_counter

from .config import DEFAULT, EngineConfig
from .errors import NotMPrimaryError
from .field import Field, field_from_name
from .modcore import (ModuleRep, buchsbaum_rim, colon_into, core_iterate,
                      core_module, fitting, minimal_reduction_module,
                      sym_colength)
from .poly import Poly
from .reduction import (GenericSampler, ReductionCertificate, adjoint_ideal,
                        hilbert_samuel, is_integral_element, is_reduction,
                        minimal_reduction)
from .serialize import ideal_text, module_text
from .staircase import (MonomialIdeal, adjoint, ascii_staircase, colength,
                        integral_closure, multiplicity)
from .trunc import TruncatedIdeal

FAMILIES = ("ideal-classics", "main-theorem", "core-theorems",
            "multiplicity-formulas", "counterexamples", "all")


@dataclass
class VerificationReport:
    theorem: str
    instance: str
    lhs: str
    rhs: str
    verdict: bool
    witness: str | None
    seconds: float
    art: str | None = None


def _child_seed(seed: int, tag: int, i: int = 0) -> int:
    return (seed * 1_000_003 + tag * 7_919 + i * 104_729) & 0x7FFFFFFF


def random_closed_ideal(rng: random.Random) -> MonomialIdeal:
    """Integral closure of a random antichain with generator degree <= 6."""
    pts = [(rng.randint(1, 6), 0), (0, rng.randint(1, 6))]
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(1, 5)
        pts.append((a, rng.randint(1, 6 - a)))
    return integral_closure(MonomialIdeal.from_exponents(pts))


class _Runner:
    def __init__(self, fld: Field, config: EngineConfig):
        self.field = fld
        self.config = config
        self.reports: list[VerificationReport] = []
        self._t0 = None

    def start(self):
        self._t0 = perf_counter()

    def add(self, theorem: str, instance: str, lhs: str, rhs: str,
            verdict: bool, witness: str | None = None, art: str | None = None):
        dt = 0.0 if self._t0 is None else perf_counter() - self._t0
        self._t0 = None
        self.reports.append(VerificationReport(
            theorem, instance, lhs, rhs, bool(verdict), witness, dt, art))

    # equality/containment helpers producing re-checkable witnesses ------

    def eq_mono(self, theorem, instance, lhs: MonomialIdeal,
                rhs: MonomialIdeal):
        verdict = lhs == rhs
        witness = art = None
        if not verdict:
            for g in lhs.gens:
                if not rhs.contains_monomial(g):
                    witness = f"{g} lies in lhs but not rhs"
                    break
            else:
                for g in rhs.gens:
                    if not lhs.contains_monomial(g):
                        witness = f"{g} lies in rhs but not lhs"
                        break
            art = ascii_staircase(lhs) + "\nvs\n" + ascii_staircase(rhs)
        self.add(theorem, instance, ideal_text(lhs), ideal_text(rhs),
                 verdict, witness, art)

    def eq_trunc(self, theorem, instance, lhs: TruncatedIdeal,
                 rhs: TruncatedIdeal):
        verdict = lhs.equals(rhs)
        witness = None
        if not verdict:
            for g in lhs.gens:
                if not rhs.contains_poly(g):
                    witness = f"{g} lies in lhs but not rhs"
                    break
            else:
                for g in rhs.gens:
                    if not lhs.contains_poly(g):
                        witness = f"{g} lies in rhs but not lhs"
                        break
        self.add(theorem, instance, ideal_text(lhs), ideal_text(rhs),
                 verdict, witness)

    def le_trunc(self, theorem, instance, small: TruncatedIdeal,
                 big: TruncatedIdeal):
        verdict = big.contains_ideal(small)
        witness = None
        if not verdict:
            for g in small.gens:
                if not big.contains_poly(g):
                    witness = f"{g} not in the right-hand ideal"
                    break
        self.add(theorem, instance, ideal_text(small),
                 ideal_text(big), verdict, witness)

    def eq_module(self, theorem, instance, lhs: ModuleRep, rhs: ModuleRep):
        verdict = lhs.equals(rhs)
        witness = None
        if not verdict:
            for col in lhs.columns:
                if not rhs.contains_vector(col):
                    witness = ("(" + ", ".join(str(f) for f in col) +
                               ") lies in lhs but not rhs")
                    break
            else:
                for col in rhs.columns:
                    if not lhs.contains_vector(col):
                        witness = ("(" + ", ".join(str(f) for f in col) +
                                   ") lies in rhs but not lhs")
                        break
        self.add(theorem, instance, module_text(lhs), module_text(rhs),
                 verdict, witness)

    def le_module(self, theorem, instance, small: ModuleRep, big: ModuleRep):
        verdict = big.contains_module(small)
        witness = None
        if not verdict:
            for col in small.columns:
                if not big.contains_vector(col):
                    witness = ("(" + ", ".join(str(f) for f in col) +
                               ") escapes the right-hand module")
                    break
        self.add(theorem, instance, module_text(small), module_text(big),
                 verdict, witness)

    def eq_int(self, theorem, instance, lhs: int, rhs: int):
        self.add(theorem, instance, str(lhs), str(rhs), lhs == rhs)


def _instances(seed: int, count: int):
    rng = random.Random(_child_seed(seed, 1))
    worked = MonomialIdeal.from_exponents([(3, 0), (1, 1), (0, 2)])
    powers = [MonomialIdeal.max_power(n) for n in range(1, 7)]
    randoms = [random_closed_ideal(rng) for _ in range(count)]
    ideals = powers + [worked] + randoms
    pair_rng = random.Random(_child_seed(seed, 2))
    pairs = []
    for _ in range(max(4, count // 2)):
        pairs.append((randoms[pair_rng.randrange(len(randoms))],
                      randoms[pair_rng.randrange(len(randoms))]))
    n_modules = max(2, (2 * count) // 5)
    module_pairs = [(MonomialIdeal.max_power(2), MonomialIdeal.max_power(3))]
    for _ in range(n_modules - 1):
        module_pairs.append((randoms[pair_rng.randrange(len(randoms))],
                             randoms[pair_rng.randrange(len(randoms))]))
    return ideals, pairs, module_pairs


def _tr(runner: _Runner, ideal: MonomialIdeal) -> TruncatedIdeal:
    return TruncatedIdeal.from_monomial(ideal, runner.field,
                                        config=runner.config)


def _mod(runner: _Runner, ideal: MonomialIdeal) -> ModuleRep:
    return ModuleRep.from_monomial_ideal(ideal, runner.field,
                                         config=runner.config)


# ---------------------------------------------------------------------------
# families


def _family_ideal_classics(runner: _Runner, seed: int, ideals, pairs):
    for i, a in enumerate(ideals):
        name = ideal_text(a)
        tr = _tr(runner, a)
        sampler = GenericSampler(_child_seed(seed, 11, i), runner.config)
        runner.start()
        J, cert = minimal_reduction(tr, sampler, config=runner.config)
        recheck = is_reduction(J, tr, nmax=cert.exponent, config=runner.config)
        ok = (isinstance(recheck, ReductionCertificate)
              and recheck.exponent == cert.exponent
              and J.colength() == multiplicity(a))
        runner.add("two-generated-reduction-certificate",
                   f"a={name}; seed={sampler.seed}",
                   f"colength(J)={J.colength()}, n={cert.exponent}",
                   f"e(a)={multiplicity(a)}", ok)
        runner.start()
        closure_ok = True
        witness = None
        probe = [(m.a, m.b) for m in a.gens][:2]
        probe += [(1, 1), (2, 1), (0, 3), (3, 2)]
        closed = integral_closure(a)
        for (pa, pb) in probe:
            mono = Poly.term(runner.field, pa, pb)
            lattice = closed.contains_monomial((pa, pb))
            certified, _detail = is_integral_element(mono, tr, nmax=3,
                                                     config=runner.config)
            if lattice != certified:
                closure_ok = False
                witness = f"x^{pa}*y^{pb}: lattice {lattice} vs criterion {certified}"
                break
        runner.add("closure-lattice-equals-reduction-criterion",
                   f"a={name}", "Newton-polyhedron membership",
                   "integral-dependence certificate", closure_ok, witness)
    for a, b in pairs:
        runner.start()
        ab = a.product(b)
        runner.eq_mono("product-of-closed-ideals-is-closed",
                       f"a={ideal_text(a)}; b={ideal_text(b)}",
                       integral_closure(ab), ab)
        runner.start()
        shifted = a.shift((1, 2))
        runner.eq_mono("adjoint-of-principal-multiple",
                       f"a={ideal_text(a)}; factor=x*y^2",
                       adjoint(shifted), adjoint(a).shift((1, 2)))
    for i, a in enumerate(ideals):
        sampler = GenericSampler(_child_seed(seed, 12, i), runner.config)
        runner.start()
        core_a = core_module(_mod(runner, a), sampler, config=runner.config)
        adj_a = adjoint(a)
        runner.eq_module("core-equals-adjoint-times-ideal",
                         f"a={ideal_text(a)}", core_a,
                         _mod(runner, adj_a.product(a)))
        runner.start()
        runner.eq_mono("core-equals-adjoint-of-square",
                       f"a={ideal_text(a)}", adj_a.product(a),
                       adjoint(a.product(a)))


def _presented_modules(runner: _Runner, ideals, module_pairs):
    mods = [(f"a={ideal_text(a)}", _mod(runner, a)) for a in ideals]
    for a, b in module_pairs:
        label = f"M={ideal_text(a)}(+){ideal_text(b)}"
        mods.append((label, _mod(runner, a).direct_sum(_mod(runner, b))))
    return mods


def _family_main_theorem(runner: _Runner, seed: int, ideals, module_pairs):
    mods = _presented_modules(runner, ideals, module_pairs)
    for i, (label, mod) in enumerate(mods):
        n, r = mod.ngens, mod.rank
        runner.start()
        ideal_of_minors = mod.minor_ideal().to_monomial()
        fit = fitting(mod.presentation, n - r, runner.field,
                      config=runner.config)
        runner.eq_mono("maximal-minors-of-presentation-regenerate",
                       label, fit.to_monomial(), ideal_of_minors)
        runner.start()
        adj_oracle = adjoint(ideal_of_minors)
        first_fit = fitting(mod.presentation, n - r - 1, runner.field,
                            config=runner.config)
        runner.eq_mono("adjoint-equals-first-fitting-ideal", label,
                       first_fit.to_monomial(), adj_oracle)
        for s in range(3):
            sampler = GenericSampler(_child_seed(seed, 21 + s, i),
                                     runner.config)
            runner.start()
            red, cert = minimal_reduction_module(mod, sampler,
                                                 config=runner.config)
            col = colon_into(red, mod, config=runner.config)
            runner.eq_mono("adjoint-equals-colon-of-minimal-reduction",
                           f"{label}; seed={sampler.seed}; "
                           f"sym-degree={cert.degree}",
                           col.to_monomial(), adj_oracle)
        runner.start()
        chain_ok = True
        witness = None
        current = ideal_of_minors
        for t in range(1, n - r + 1):
            current = adjoint(current)
            fit_t = fitting(mod.presentation, n - r - t, runner.field,
                            config=runner.config).to_monomial()
            if fit_t != current or integral_closure(fit_t) != fit_t:
                chain_ok = False
                witness = f"t={t}: adj^t={ideal_text(current)} vs " \
                          f"I_{n - r - t}={ideal_text(fit_t)}"
                break
        if chain_ok and not current.is_unit:
            chain_ok = adjoint(current).is_unit or current.is_unit
        runner.add("adjoint-chain-equals-fitting-chain", label,
                   "iterated adjoints", "descending fitting ideals",
                   chain_ok, witness)
        runner.start()
        total = 0
        sign = 1
        for t in range(0, n - r):
            fit_t = fitting(mod.presentation, n - r - t, runner.field,
                            config=runner.config).to_monomial()
            total += sign * multiplicity(fit_t)
            sign = -sign
        runner.eq_int("first-fitting-colength-alternating-sum", label,
                      colength(ideal_of_minors), total)
    # colon-method adjoint agrees with the lattice oracle on the minor ideals
    for i, (label, mod) in enumerate(mods):
        sampler = GenericSampler(_child_seed(seed, 29, i), runner.config)
        runner.start()
        tri = mod.minor_ideal()
        adj_colon = adjoint_ideal(tri, sampler, config=runner.config)
        runner.eq_mono("colon-method-adjoint-matches-lattice-oracle", label,
                       adj_colon.to_monomial(),
                       adjoint(tri.to_monomial()))


def _family_core_theorems(runner: _Runner, seed: int, ideals, pairs,
                          module_pairs):
    fld = runner.field
    mods = _presented_modules(runner, ideals[:4], module_pairs)
    for i, (label, mod) in enumerate(mods):
        sampler = GenericSampler(_child_seed(seed, 31, i), runner.config)
        runner.start()
        minors = mod.minor_ideal().to_monomial()
        adj_oracle = adjoint(minors)
        core = core_module(mod, sampler, config=runner.config)
        runner.eq_module("core-equals-adjoint-of-minors-times-module", label,
                         core, mod.scale_by_monomial_ideal(adj_oracle))
        n, r = mod.ngens, mod.rank
        runner.start()
        fit = fitting(mod.presentation, n - r - 1, fld, config=runner.config)
        runner.eq_module("core-equals-first-fitting-times-module", label,
                         core, mod.scale_by_gens(list(fit.gens)))
    for a, b in module_pairs:
        label = f"M={ideal_text(a)}(+){ideal_text(b)}"
        big = _mod(runner, a).direct_sum(_mod(runner, b))
        sampler = GenericSampler(_child_seed(seed, 32), runner.config)
        runner.start()
        core = core_module(big, sampler, config=runner.config)
        adj_ab = adjoint(a.product(b))
        runner.eq_module("core-of-direct-sum-formula", label, core,
                         big.scale_by_monomial_ideal(adj_ab))
        runner.start()
        ideal_form = _mod(runner, adj_ab.product(a)).direct_sum(
            _mod(runner, adj_ab.product(b)))
        runner.eq_module("core-of-direct-sum-ideal-form", label, core,
                         ideal_form)
        # monotonicity: a*m (+) b <= a (+) b, both integrally closed
        small = _mod(runner, a.product(MonomialIdeal.max_power(1))).direct_sum(
            _mod(runner, b))
        runner.start()
        core_small = core_module(small, sampler, config=runner.config)
        runner.le_module("core-is-monotone-on-closed-submodules",
                         f"{label}; shrink first summand by m",
                         core_small, core)
    fixed_small = _mod(runner, MonomialIdeal.max_power(3)).direct_sum(
        _mod(runner, MonomialIdeal.max_power(3)))
    fixed_big = _mod(runner, MonomialIdeal.max_power(2)).direct_sum(
        _mod(runner, MonomialIdeal.max_power(3)))
    sampler = GenericSampler(_child_seed(seed, 33), runner.config)
    runner.start()
    runner.le_module("core-is-monotone-on-closed-submodules",
                     "M=m^3(+)m^3 inside N=m^2(+)m^3",
                     core_module(fixed_small, sampler, config=runner.config),
                     core_module(fixed_big, sampler, config=runner.config))
    for i, (a, b) in enumerate(pairs):
        pair_label = f"a={ideal_text(a)}; b={ideal_text(b)}"
        runner.start()
        runner.le_trunc("adjoint-subadditivity", pair_label,
                        _tr(runner, adjoint(a.product(b))),
                        _tr(runner, adjoint(a).product(adjoint(b))))
        runner.start()
        skoda_ok = True
        witness = None
        # equality needs m >= 1; at m = 0 only the containment holds
        if not adjoint(a.product(b)).contains(b.product(adjoint(a))):
            skoda_ok = False
            witness = "m=0: b*adj(a) escapes adj(a*b)"
        for m_exp in (1, 2, 3):
            lhs = adjoint(a.product(b.power(m_exp + 1)))
            rhs = b.product(adjoint(a.product(b.power(m_exp))))
            if lhs != rhs:
                skoda_ok = False
                witness = f"m={m_exp}: {ideal_text(lhs)} vs {ideal_text(rhs)}"
                break
        runner.add("adjoint-absorbs-one-factor", pair_label,
                   "adj(a*b^(m+1))", "b*adj(a*b^m), m=1,2,3 "
                   "(containment only at m=0)", skoda_ok, witness)
    # ideal-scaled modules
    scale_rng = random.Random(_child_seed(seed, 34))
    for a, b in module_pairs[:max(2, len(module_pairs) // 2)]:
        scaler = ideals[scale_rng.randrange(len(ideals))]
        base = _mod(runner, a).direct_sum(_mod(runner, b))
        label = (f"a={ideal_text(scaler)}; "
                 f"M={ideal_text(a)}(+){ideal_text(b)}")
        scaled = base.scale_by_monomial_ideal(scaler)
        runner.start()
        runner.eq_mono("minors-of-scaled-module", label,
                       scaled.minor_ideal().to_monomial(),
                       scaler.power(base.rank).product(
                           base.minor_ideal().to_monomial()))
        sampler = GenericSampler(_child_seed(seed, 35), runner.config)
        runner.start()
        core_scaled = core_module(scaled, sampler, config=runner.config)
        bound = _mod(runner, scaler.power(base.rank - 1)
                     .product(adjoint(scaler).product(scaler))) \
            .scale_by_monomial_ideal(adjoint(base.minor_ideal().to_monomial()))
        rhs = base.scale_by_monomial_ideal(
            scaler.power(base.rank - 1)
            .product(adjoint(scaler).product(scaler))
            .product(adjoint(base.minor_ideal().to_monomial())))
        runner.le_module("core-of-scaled-module-bound", label,
                         core_scaled, rhs)
    for i, (label, mod) in enumerate(mods[:6]):
        sampler = GenericSampler(_child_seed(seed, 36, i), runner.config)
        runner.start()
        minors = mod.minor_ideal().to_monomial()
        core = core_module(mod, sampler, config=runner.config)
        runner.eq_mono("adjoint-of-core-minors", label,
                       adjoint(core.minor_ideal().to_monomial()),
                       adjoint(minors).power(mod.rank + 1))
        runner.start()
        core2 = core_iterate(mod, 2, sampler, config=runner.config)
        runner.eq_module("second-core-closed-form", label, core2,
                         mod.scale_by_monomial_ideal(
                             adjoint(minors).power(mod.rank + 2)))
    sampler = GenericSampler(_child_seed(seed, 37), runner.config)
    fixed = _mod(runner, MonomialIdeal.max_power(2)).direct_sum(
        _mod(runner, MonomialIdeal.max_power(3)))
    runner.start()
    runner.eq_module("second-core-closed-form", "M=m^2(+)m^3",
                     core_iterate(fixed, 2, sampler, config=runner.config),
                     _mod(runner, MonomialIdeal.max_power(18)).direct_sum(
                         _mod(runner, MonomialIdeal.max_power(19))))


def _family_multiplicity(runner: _Runner, seed: int, ideals):
    for n in range(1, 7):
        power = MonomialIdeal.max_power(n)
        sampler = GenericSampler(_child_seed(seed, 41, n), runner.config)
        runner.start()
        engine = hilbert_samuel(_tr(runner, power), sampler,
                                config=runner.config)
        runner.eq_int("power-multiplicity-three-ways",
                      f"a=m^{n} (reduction, differences, covolume)",
                      engine, multiplicity(power))
        if engine != n * n:
            runner.add("power-multiplicity-three-ways", f"a=m^{n}",
                       str(engine), str(n * n), False)
    for i, a in enumerate(ideals):
        sampler = GenericSampler(_child_seed(seed, 42, i), runner.config)
        runner.start()
        engine = hilbert_samuel(_tr(runner, a), sampler, config=runner.config)
        runner.eq_int("multiplicity-methods-agree-with-covolume",
                      f"a={ideal_text(a)}", engine, multiplicity(a))
        runner.start()
        total = 0
        sign = 1
        current = a
        while not current.is_unit:
            total += sign * multiplicity(current)
            sign = -sign
            current = adjoint(current)
        runner.eq_int("colength-is-alternating-multiplicity-sum",
                      f"a={ideal_text(a)}", colength(a), total)
    for i, a in enumerate(ideals[:10]):
        sampler = GenericSampler(_child_seed(seed, 43, i), runner.config)
        runner.start()
        br = buchsbaum_rim(ModuleRep.from_monomial_ideal(a, runner.field,
                                                         runner.config),
                           config=runner.config)
        runner.eq_int("buchsbaum-rim-of-ideal-equals-hilbert-samuel",
                      f"a={ideal_text(a)}", br,
                      hilbert_samuel(_tr(runner, a), sampler,
                                     config=runner.config))
    runner.start()
    mm = _mod(runner, MonomialIdeal.max_power(1)).direct_sum(
        _mod(runner, MonomialIdeal.max_power(1)))
    runner.eq_int("buchsbaum-rim-of-double-maximal-ideal", "M=m(+)m",
                  buchsbaum_rim(mm, config=runner.config), 3)
    runner.start()
    runner.eq_int("symmetric-square-colength", "M=m(+)m",
                  sym_colength(mm, 2, config=runner.config), 9)


def _family_counterexamples(runner: _Runner, seed: int):
    m2 = MonomialIdeal.max_power(2)
    sampler = GenericSampler(_child_seed(seed, 51), runner.config)
    runner.start()
    runner.eq_mono("adjoint-of-m-squared", "a=m^2", adjoint(m2),
                   MonomialIdeal.max_power(1))
    runner.start()
    core = core_module(_mod(runner, m2), sampler, config=runner.config)
    expected = _mod(runner, MonomialIdeal.max_power(3))
    runner.eq_module("core-of-m-squared", "a=m^2", core, expected)
    runner.start()
    try:
        TruncatedIdeal.materialize([Poly.term(runner.field, 2, 0)],
                                   runner.field, config=runner.config)
        rejected = False
        message = "accepted"
    except NotMPrimaryError as exc:
        rejected = True
        message = str(exc)
    runner.add("core-of-principal-ideal-rejected",
               "a=(x^2): principal ideals are their own core; the engine "
               "rejects non-m-primary core computations",
               "NotMPrimaryError", message, rejected,
               None if rejected else "materialization accepted (x^2)")
    runner.start()
    x2_in_core = _tr(runner, MonomialIdeal.max_power(3)).contains_poly(
        Poly.term(runner.field, 2, 0))
    runner.add("core-need-not-be-monotone-for-ideal-inclusion",
               "core((x^2)) = (x^2) vs core(m^2) = m^3",
               "x^2 in core((x^2))", "x^2 not in m^3", not x2_in_core,
               None if not x2_in_core else "x^2 unexpectedly in m^3",
               art=ascii_staircase(MonomialIdeal.max_power(3)))


def run_suite(family: str, count: int = 50, seed: int = 42,
              field: str | Field = "Q",
              config: EngineConfig = DEFAULT) -> list[VerificationReport]:
    """Run one family (or "all"); deterministic given all arguments."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {FAMILIES}")
    fld = field_from_name(field) if isinstance(field, str) else field
    runner = _Runner(fld, config)
    ideals, pairs, module_pairs = _instances(seed, count)
    if family in ("ideal-classics", "all"):
        _family_ideal_classics(runner, seed, ideals, pairs)
    if family in ("main-theorem", "all"):
        _family_main_theorem(runner, seed, ideals, module_pairs)
    if family in ("core-theorems", "all"):
        _family_core_theorems(runner, seed, ideals, pairs, module_pairs)
    if family in ("multiplicity-formulas", "all"):
        _family_multiplicity(runner, seed, ideals)
    if family in ("counterexamples", "all"):
        _family_counterexamples(runner, seed)
    return runner.reports


def render_report(reports: list[VerificationReport], fmt: str = "json") -> str:
    """Lossless JSON (deterministic: timings excluded) or advisory text."""
    passed = sum(1 for r in reports if r.verdict)
    if fmt == "json":
        payload = {
            "summary": {"total": len(reports), "passed": passed,
                        "failed": len(reports) - passed},
            "reports": [{
                "theorem": r.theorem,
                "instance": r.instance,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "verdict": "pass" if r.verdict else "fail",
                "witness": r.witness,
            } for r in reports],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"verification: {passed}/{len(reports)} checks passed", ""]
    for r in reports:
        status = "PASS" if r.verdict else "FAIL"
        lines.append(f"[{status}] {r.theorem} :: {r.instance} "
                     f"({r.seconds:.3f}s)")
        if not r.verdict:
            lines.append(f"    lhs: {r.lhs}")
            lines.append(f"    rhs: {r.rhs}")
            if r.witness:
                lines.append(f"    witness: {r.witness}")
        if r.art and (not r.verdict or "counterexample" in r.theorem
                      or "rejected" in r.theorem
                      or "monotone-for-ideal" in r.theorem):
            lines.extend("    " + row for row in r.art.splitlines())
    lines.append("")
    lines.append(f"summary: total={len(reports)} passed={passed} "
                 f"failed={len(reports) - passed}")
    return "\n".join(lines) + "\n"
