"""The benchmark's workloads: what one child process runs.

Each child runs one unit, its operations in a closed loop: one caller, the
next operation starts when the previous one returns.  `Probe` stamps the
end of set-up and the start and end of every operation; the child turns
the stamps into latencies.

* main-theorem-Q and core-theorems-F65537: a unit is a campaign seed, run
  as ``regcore.cli.main(["verify", ..., "--count", "50", "--seed", s])``,
  the campaign size users run.  An operation is one check: the interval
  between consecutive ``verify._Runner.add`` calls, so work done before
  ``runner.start()`` is counted.  Set-up ends when
  ``verify._instances`` returns.
* coordinate-change-F65537: a unit is a seed that draws, COORD_ROUNDS
  times for every ideal of `closed_ideals`, a case: the ideal I, a linear
  automorphism phi of k[x,y] and the samplers.  Every child therefore runs
  the same mix of ideals; the seed draws the generic coefficients.  Set-up
  draws every case and its staircase answers.  An operation is one public
  call on phi(I) plus its exact oracle check against the staircase answers
  for I, which phi preserves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from time import monotonic

import speed
from regcore import cli, field, modcore, reduction, staircase, trunc, verify
from regcore.errors import MathError
from regcore.poly import Poly
from regcore.serialize import ideal_text

VERIFY = {
    "main-theorem-Q": ("main-theorem", "Q"),
    "core-theorems-F65537": ("core-theorems", "F65537"),
}
COUNT = 50            # the verify CLI's default campaign size
COORD_FIELD = "F65537"
COORD_MAX_DEGREE = 3
COORD_ROUNDS = 3      # cases per ideal in a coordinate-change child


def closed_ideals(max_degree: int) -> list:
    """Every ideal verify.random_closed_ideal can draw, with the degree bound
    as a parameter: the distinct integral closures of x^a, y^b and a set of
    points below the diagonal, in a fixed order."""
    inner = [(a, b) for a in range(1, max_degree)
             for b in range(1, max_degree - a + 1)]
    found = {}
    for a in range(1, max_degree + 1):
        for b in range(1, max_degree + 1):
            for k in range(len(inner) + 1):
                for pts in itertools.combinations(inner, k):
                    ideal = staircase.integral_closure(
                        staircase.MonomialIdeal.from_exponents(
                            [(a, 0), (0, b), *pts]))
                    found.setdefault(ideal_text(ideal), ideal)
    return [found[text] for text in sorted(found)]


class SetupDone(BaseException):
    """Raised at the end of set-up by a child that only measures set-up.
    A BaseException, so no handler in regcore catches it."""


class Probe:
    """Stamps set-up end and the start and end of every operation, times
    the reference work of `speed` between operations, and collects
    failures."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.setup_end = None
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.reference: list[float] = []
        self.failures: list[str] = []
        self._next_sample = 0.0

    def _sample(self):
        self.reference.append(speed.reference_seconds())
        self._next_sample = monotonic() + speed.SAMPLE_EVERY_S

    def end_setup(self):
        self.setup_end = monotonic()
        for _ in range(3):
            self._sample()
        if self.setup_only:
            raise SetupDone
        self.starts.append(monotonic())

    def end_op(self, ok: bool, what: str):
        now = monotonic()
        self.ends.append(now)
        if not ok:
            self.failures.append(what)
        if now >= self._next_sample:
            self._sample()
        self.starts.append(monotonic())


def run(workload: str, seed: int, probe: Probe, install) -> dict:
    """Run the unit with this seed; `install` is called once set-up is done
    or, for the campaigns, before the CLI starts."""
    if workload in VERIFY:
        return _run_verify(*VERIFY[workload], seed, probe, install)
    if workload == "coordinate-change-F65537":
        return _run_coordinate_change(seed, probe, install)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# verification campaigns


def _run_verify(family, field_name, seed, probe: Probe, install):
    add = verify._Runner.add
    instances = verify._instances

    def timed_add(self, theorem, instance, lhs, rhs, verdict, *rest, **kw):
        add(self, theorem, instance, lhs, rhs, verdict, *rest, **kw)
        probe.end_op(bool(verdict), f"{theorem} :: {instance}")

    def timed_instances(*args, **kwargs):
        result = instances(*args, **kwargs)
        probe.end_setup()
        return result

    verify._Runner.add = timed_add
    verify._instances = timed_instances
    install()
    argv = ["verify", "--family", family, "--field", field_name,
            "--count", str(COUNT), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    if code != 0 and not probe.failures:
        probe.end_op(False, f"regcore {' '.join(argv)} exited {code}")
    summary = json.loads(text)["summary"] if text else {}
    consistent = (summary.get("total") == len(probe.ends)
                  and summary.get("failed") == len(probe.failures))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "report_consistent": consistent}


# ---------------------------------------------------------------------------
# coordinate change


def draw_automorphism(rng: random.Random) -> tuple[int, int, int, int]:
    """x -> a*x + b*y, y -> c*x + d*y with small nonzero integer entries
    and a*d - b*c != 0; nonzero b and c keep it off the monomial maps."""
    values = [v for v in range(-3, 4) if v]
    while True:
        a, b, c, d = (rng.choice(values) for _ in range(4))
        if a * d - b * c:
            return a, b, c, d


class Substitution:
    """The ring map phi on polynomials; caches powers of phi(x), phi(y)."""

    def __init__(self, fld, a, b, c, d):
        self.field = fld
        self._x = [Poly.one(fld)]
        self._y = [Poly.one(fld)]
        self._lin = (Poly.term(fld, 1, 0, a) + Poly.term(fld, 0, 1, b),
                     Poly.term(fld, 1, 0, c) + Poly.term(fld, 0, 1, d))

    def _power(self, table, lin, n):
        while len(table) <= n:
            table.append(table[-1] * lin)
        return table[n]

    def __call__(self, f: Poly) -> Poly:
        out = Poly.zero(self.field)
        for mono, coeff in f.terms.items():
            image = (self._power(self._x, self._lin[0], mono.a)
                     * self._power(self._y, self._lin[1], mono.b))
            out = out + image.scale(coeff)
        return out


def _coordinate_case(ideal, seed: int, fld) -> dict:
    """The ideal I, its image under a seeded phi, and the staircase answers
    every operation must reproduce."""
    rng = random.Random(seed)
    phi = Substitution(fld, *draw_automorphism(rng))
    adj = staircase.adjoint(ideal)
    core = adj.product(ideal)
    return {
        "label": f"I={ideal_text(ideal)}; phi={phi._lin[0]},{phi._lin[1]}",
        "gens": [phi(Poly.monomial(fld, g)) for g in ideal.gens],
        "presentation": [[phi(entry) for entry in row] for row
                         in staircase.presentation_matrix(ideal, fld)],
        # phi fixes m^n, so only these inputs stay monomial
        "monomial": ideal == staircase.MonomialIdeal.max_power(
            min(g.degree for g in ideal.gens)),
        "colength": staircase.colength(ideal),
        "multiplicity": staircase.multiplicity(ideal),
        "adj_colength": staircase.colength(adj),
        "adj_images": [phi(Poly.monomial(fld, g)) for g in adj.gens],
        "core_colength": staircase.colength(core),
        "core_images": [phi(Poly.monomial(fld, g)) for g in core.gens],
        "sampler_seed": rng.randrange(1, 2 ** 31),
    }


def _contains_all(ideal, polys) -> bool:
    return all(ideal.contains_poly(f) for f in polys)


def _run_coordinate_change(seed: int, probe: Probe, install):
    fld = field.field_from_name(COORD_FIELD)
    rng = random.Random(seed)
    ideals = closed_ideals(COORD_MAX_DEGREE)
    cases = [_coordinate_case(ideal, rng.randrange(1, 2 ** 31), fld)
             for _ in range(COORD_ROUNDS) for ideal in ideals]
    probe.end_setup()
    install()
    outputs = []
    for case in cases:
        outputs.append(_coordinate_ops(case, fld, probe))
    text = json.dumps(outputs, sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "report_consistent": True,
            "cases": len(cases),
            "monomial_cases": sum(case["monomial"] for case in cases)}


def _coordinate_ops(case: dict, fld, probe: Probe) -> list:
    """The five operations on one case; returns their rendered outputs."""
    outputs = []

    def op(name, compute, check):
        try:
            result = compute()
            ok = check(result)
        except MathError as exc:
            result, ok = f"{type(exc).__name__}: {exc}", False
        probe.end_op(ok, f"{name} :: {case['label']}")
        outputs.append(_render(result))
        return result if ok else None

    def sampler(k):
        return reduction.GenericSampler(seed=case["sampler_seed"] + k)

    gens, n = case["gens"], len(case["gens"])
    ideal = op("materialize",
               lambda: trunc.TruncatedIdeal.materialize(gens, fld),
               lambda J: J.colength() == case["colength"])
    if ideal is None:  # the remaining operations need phi(I)
        for name in ("hilbert_samuel", "adjoint_ideal", "fitting",
                     "core_module"):
            probe.end_op(False, f"{name} :: {case['label']} (skipped)")
        return outputs
    op("hilbert_samuel",
       lambda: reduction.hilbert_samuel(ideal, sampler(1)),
       lambda e: e == case["multiplicity"])
    op("adjoint_ideal",
       lambda: reduction.adjoint_ideal(ideal, sampler(2)),
       lambda adj: (adj.colength() == case["adj_colength"]
                    and _contains_all(adj, case["adj_images"])))
    op("fitting",
       lambda: modcore.fitting(case["presentation"], n - 2, fld),
       lambda fit: (fit.colength() == case["adj_colength"]
                    and _contains_all(fit, case["adj_images"])))
    op("core_module",
       lambda: modcore.core_module(
           modcore.ModuleRep(fld, 1, [(g,) for g in gens],
                             presentation=case["presentation"]),
           sampler(3)),
       lambda core: (core.colength() == case["core_colength"]
                     and all(core.contains_vector((f,))
                             for f in case["core_images"])))
    return outputs


def _render(result):
    """Deterministic text of an operation's output, for the sha256."""
    if isinstance(result, (int, str)):
        return result
    if isinstance(result, modcore.ModuleRep):
        return [[str(f) for f in col] for col in result.columns]
    return [str(g) for g in result.gens]
