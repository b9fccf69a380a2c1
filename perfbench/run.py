"""regcore benchmark: seeded workloads, exact checks, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload main-theorem-Q --seed 42 \
        --seconds 40 --trace 0

Run from the root of a regcore checkout.  Each child process is a fresh
interpreter (module-level lru_caches in staircase and the span cached on
ModuleRep would otherwise make repeats warm) running one unit: the fixed
campaign `verify --count 50 --seed 42`, or a batch of ideals under
coordinate changes.  --seed draws each child's PYTHONHASHSEED and the
coordinate-change units.

--trace 0 first starts SETUP_PROBES children that stop at the end of
set-up, then runs units one after another while --seconds allows, and
prints the end-to-end metrics.  --trace 1 runs the first unit in one
untraced and two traced children (PYTHONHASHSEED 1 and 2); it checks that
outputs and counts agree exactly and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  See perfbench/README.md for every
metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import monotonic

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("main-theorem-Q", "core-theorems-F65537",
             "coordinate-change-F65537")
DEFAULT_SEED = 42  # the held-out seed for confirming claims is 20261017
# The campaign workloads run the fixed campaigns the ROADMAP times,
# `verify --family F --field K --count 50 --seed 42`.  The campaign seed
# does not follow --seed: a count-50 campaign's cost depends on its seed
# by up to 5x (see README.md), more than any bound could absorb.
CAMPAIGNS = ("main-theorem-Q", "core-theorems-F65537")
CAMPAIGN_SEED = 42

DEADLINE_S = 165      # a run must end within 180 s
MIN_SAMPLES = 100     # operations per run, so ten lie beyond p90
SETUP_PROBES = 5      # set-up-only children per timed run

# The layers a traced run must reach on each workload.  A boundary with no
# calls means a wrapper missed a binding, which would otherwise read as 0 s.
EXPECTED = {
    "main-theorem-Q": [
        "linalg.insert", "linalg.contains", "linalg.kernel_modulo",
        "trunc.span", "trunc.spans", "trunc.colon", "trunc.to_monomial",
        "trunc.product", "poly.poly_det", "poly.matrix_minors", "poly.mul",
        "modcore.fitting", "modcore.colon_into",
        "modcore.sym_reduction_check", "reduction.minimal_reduction",
        "reduction.smaller_ideal_equals", "reduction.is_reduction",
        "reduction.adjoint_ideal", "reduction.draws", "staircase.adjoint",
        "verify.run_suite", "cli.main", "cli.render_report"],
    "core-theorems-F65537": [
        "linalg.insert", "linalg.contains", "trunc.span", "trunc.spans",
        "trunc.to_monomial", "poly.poly_det", "poly.matrix_minors",
        "poly.mul", "modcore.fitting", "modcore.core_module",
        "staircase.adjoint", "verify.run_suite", "cli.main",
        "cli.render_report"],
    "coordinate-change-F65537": [
        "linalg.insert", "linalg.contains", "linalg.kernel_modulo",
        "trunc.span", "trunc.spans", "trunc.colon", "trunc.to_monomial",
        "trunc.to_monomial.misses", "trunc.product", "poly.poly_det",
        "poly.matrix_minors", "poly.mul", "modcore.fitting",
        "modcore.core_module", "reduction.minimal_reduction",
        "reduction.smaller_ideal_equals", "reduction.is_reduction",
        "reduction.adjoint_ideal", "reduction.hilbert_samuel",
        "reduction.draws"],
}


def log(*parts):
    print(*parts, flush=True)


def units(workload: str, seed: int):
    """The run's (unit seed, PYTHONHASHSEED) pairs, in the order they run."""
    rng = random.Random(seed)
    while True:
        unit = rng.randrange(1, 2 ** 31)
        if workload in CAMPAIGNS:
            unit = CAMPAIGN_SEED
        yield unit, rng.randrange(1, 2 ** 32)


def spawn(workload: str, unit: int, hashseed: int, trace: int,
          started: float, setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hashseed)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(unit), "--trace", str(trace), "--src", str(SRC)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, DEADLINE_S - (monotonic() - started))
    stamp = monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(stamp)], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    wall = monotonic() - stamp
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {workload} seed={unit} "
                           f"trace={trace} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["hashseed"] = hashseed
    return result


def describe(child: dict, tag: str = "") -> str:
    ops = len(child["latencies_s"])
    return (f"child{tag} seed={child['seed']} "
            f"PYTHONHASHSEED={child['hashseed']} ops={ops} "
            f"failed={len(child['failures'])} setup_s={child['setup_s']:.4f} "
            f"op_wall_s={child['op_wall_s']:.3f} "
            f"peak_rss_mb={child['peak_rss_mb']:.1f} "
            f"sha256={child['sha256']}")


def child_ok(child: dict) -> bool:
    return not child["failures"] and child["report_consistent"]


# ---------------------------------------------------------------------------
# timed runs


def scale(child: dict) -> float:
    """Factor that turns the child's times into times at the reference
    speed: REFERENCE_S over the mean of its reference-work samples.  The
    mean, because the machine switches between fast and slow states and
    an operation's time grows with the share of time spent in each."""
    return speed.REFERENCE_S / statistics.mean(child["reference_s"])


def timed(workload: str, seed: int, seconds: int, started: float):
    plan = units(workload, seed)
    first = next(plan)
    probes = [spawn(workload, *first, 0, started, setup_only=True)
              for _ in range(SETUP_PROBES)]
    log(f"set-up probes seed={first[0]}: "
        + " ".join(f"{p['setup_s']:.4f}" for p in probes))
    children = []
    unit = first
    while True:
        child = spawn(workload, *unit, 0, started)
        children.append(child)
        log(describe(child))
        for failure in child["failures"]:
            log("  FAILED:", failure)
        # stop where the run ends nearest to --seconds
        elapsed = monotonic() - started
        next_wall = statistics.mean(c["wall_s"] for c in children)
        samples = sum(len(c["latencies_s"]) for c in children)
        if samples >= MIN_SAMPLES and elapsed + next_wall / 2 > seconds:
            break
        unit = next(plan)

    # times scaled to the reference speed of each child's own CPU
    latencies = sorted(x * scale(c) for c in children
                       for x in c["latencies_s"])
    raw = sorted(x for c in children for x in c["latencies_s"])
    deciles = statistics.quantiles(latencies, n=10)
    ops = len(latencies)
    failed = sum(len(c["failures"]) for c in children)
    beyond_p90 = sum(1 for x in latencies if x > deciles[8])
    metrics = {
        "ops_per_s": (ops / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(c["setup_s"] * scale(c)
                                      for c in probes + children), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"]
                                          for c in children), "MB"),
    }
    log(f"{workload} seed={seed}: {len(children)} children, "
        f"{ops} operations, {beyond_p90} beyond p90")
    for name, (value, unit_name) in metrics.items():
        log(f"  {name} = {value:.6g} {unit_name}")
    log(f"  failed_frac = {failed / ops:.6g} (failed {failed} of {ops})")
    log(f"  op_seconds = {sum(latencies):.6g} s, p99 = "
        f"{statistics.quantiles(latencies, n=100)[98] * 1e3:.6g} ms, "
        f"max = {latencies[-1] * 1e3:.6g} ms")
    log(f"  unscaled: ops_per_s = {ops / sum(raw):.6g} 1/s, op_p50_ms = "
        f"{statistics.median(raw) * 1e3:.6g} ms, speed = "
        + " ".join(f"{1 / scale(c):.3f}" for c in children))
    if "cases" in children[0]:
        share = (sum(c["monomial_cases"] for c in children)
                 / sum(c["cases"] for c in children))
        log(f"  monomial_share = {share:.4g} (inputs phi leaves monomial)")
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "setup_probes": probes,
         "children": children}))
    correct = (failed == 0 and all(child_ok(c) for c in children)
               and beyond_p90 >= 10)
    # every child of a campaign workload ran the same campaign
    if workload in CAMPAIGNS and len({c["sha256"] for c in children}) != 1:
        log("  MISMATCH: reports differ across PYTHONHASHSEED values")
        correct = False
    return correct, ops, failed, metrics


# ---------------------------------------------------------------------------
# traced runs


def tally(trace: dict) -> dict:
    """Calls per span name, plus the counted boundaries and hook counts."""
    calls = dict(trace["counts"])
    for name, _parent, n, _total, _own in trace["edges"]:
        calls[name] = calls.get(name, 0) + n
    return calls


def self_times(trace: dict) -> dict:
    own: dict[str, float] = {}
    for name, _parent, _n, _total, seconds in trace["edges"]:
        own[name] = own.get(name, 0.0) + seconds
    return own


def layer_metrics(calls: dict, own: dict) -> dict:
    def c(name):
        return calls.get(name, 0)

    def s(prefix):
        return sum(v for k, v in own.items()
                   if k == prefix or k.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "linalg.insert.calls": (c("linalg.insert"), "count"),
        "linalg.insert.self_s": (s("linalg.insert"), "s"),
        "linalg.insert.terms": (c("linalg.insert.terms"), "count"),
        "linalg.dependent_share": (ratio(c("linalg.insert.dependent"),
                                         c("linalg.insert")), "ratio"),
        "linalg.contains.calls": (c("linalg.contains"), "count"),
        "linalg.contains.self_s": (s("linalg.contains"), "s"),
        "linalg.kernel_modulo.calls": (c("linalg.kernel_modulo"), "count"),
        "linalg.kernel_modulo.self_s": (s("linalg.kernel_modulo"), "s"),
        "trunc.spans": (c("trunc.spans"), "count"),
        "trunc.span.self_s": (s("trunc.span"), "s"),
        "trunc.rebuilds": (c("trunc.span") - c("trunc.spans"), "count"),
        "trunc.order_over_n0": (ratio(c("trunc.order_sum"),
                                      c("trunc.n0_sum")), "ratio"),
        "trunc.colon.calls": (c("trunc.colon"), "count"),
        "trunc.colon.self_s": (s("trunc.colon"), "s"),
        "trunc.to_monomial.calls": (c("trunc.to_monomial"), "count"),
        "trunc.to_monomial.self_s": (s("trunc.to_monomial"), "s"),
        "trunc.to_monomial.misses": (c("trunc.to_monomial.misses"), "count"),
        "trunc.product.calls": (c("trunc.product"), "count"),
        "trunc.product.self_s": (s("trunc.product"), "s"),
        "poly.poly_det.calls": (c("poly.poly_det"), "count"),
        "poly.poly_det.self_s": (s("poly.poly_det"), "s"),
        "poly.minors": (c("poly.minors"), "count"),
        "poly.matrix_minors.self_s": (s("poly.matrix_minors"), "s"),
        "poly.mul.calls": (c("poly.mul"), "count"),
        "modcore.fitting.calls": (c("modcore.fitting"), "count"),
        "modcore.fitting.self_s": (s("modcore.fitting"), "s"),
        "modcore.fitting.repeat_share": (ratio(c("modcore.fitting.repeats"),
                                               c("modcore.fitting")), "ratio"),
        "modcore.colon_into.calls": (c("modcore.colon_into"), "count"),
        "modcore.colon_into.self_s": (s("modcore.colon_into"), "s"),
        "modcore.sym_reduction_check.calls":
            (c("modcore.sym_reduction_check"), "count"),
        "modcore.sym_reduction_check.self_s":
            (s("modcore.sym_reduction_check"), "s"),
        "modcore.sym_degree_mean": (ratio(c("modcore.sym_degree_sum"),
                                          c("modcore.sym_certificates")),
                                    "degree"),
        "modcore.core_module.calls": (c("modcore.core_module"), "count"),
        "modcore.core_module.self_s": (s("modcore.core_module"), "s"),
        "reduction.minimal_reduction.calls":
            (c("reduction.minimal_reduction"), "count"),
        "reduction.minimal_reduction.self_s":
            (s("reduction.minimal_reduction"), "s"),
        "reduction.draws": (c("reduction.draws"), "count"),
        "reduction.resamples": (c("reduction.combinations") / 2
                                - c("reduction.minimal_reduction"), "count"),
        "reduction.cert_exponent_mean":
            (ratio(c("reduction.cert_exponent_sum"),
                   c("reduction.minimal_reduction")), "exponent"),
        "reduction.smaller_ideal_equals.calls":
            (c("reduction.smaller_ideal_equals"), "count"),
        "reduction.smaller_ideal_equals.self_s":
            (s("reduction.smaller_ideal_equals"), "s"),
        "reduction.is_reduction.self_s": (s("reduction.is_reduction"), "s"),
        "reduction.adjoint_ideal.self_s": (s("reduction.adjoint_ideal"), "s"),
        "reduction.hilbert_samuel.self_s":
            (s("reduction.hilbert_samuel"), "s"),
        "staircase.calls": (sum(v for k, v in calls.items()
                                if k.startswith("staircase.")), "count"),
        "staircase.self_s": (s("staircase"), "s"),
        "verify.self_s": (s("verify"), "s"),
        "cli.self_s": (s("cli"), "s"),
    }


def traced(workload: str, seed: int, started: float):
    unit = next(units(workload, seed))[0]  # the timed run's first unit
    plain = spawn(workload, unit, 1, 0, started)
    log(describe(plain, " untraced"))
    pair = [spawn(workload, unit, h, 1, started) for h in (1, 2)]
    for child in pair:
        log(describe(child, " traced"))
    children = (plain, *pair)
    correct = all(child_ok(c) for c in children)
    ops = sum(len(c["latencies_s"]) for c in children)
    failed = sum(len(c["failures"]) for c in children)
    if len({c["sha256"] for c in children}) != 1:
        log("  MISMATCH: outputs differ across runs of the same inputs")
        correct = False
    calls, second = (tally(c["trace"]) for c in pair)
    if calls != second:
        names = sorted(k for k in calls.keys() | second.keys()
                       if calls.get(k) != second.get(k))
        log("  MISMATCH across PYTHONHASHSEED 1 and 2:", ", ".join(names))
        correct = False
    own: Counter = Counter()
    for child in pair:
        own.update({k: v / 2 for k, v in self_times(child["trace"]).items()})

    metrics = layer_metrics(calls, own)
    metrics["trace.overhead_s"] = (
        sum(c["op_wall_s"] for c in pair) / 2 - plain["op_wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["op_wall_s"], "s")
    for name in EXPECTED[workload]:
        if not calls.get(name):
            log(f"  INCOMPLETE: no calls recorded at {name}")
            correct = False

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "unit": unit,
                                "traced": [c["trace"] for c in pair]},
                               indent=1))
    log(f"{workload} seed={seed}: spans in {path.relative_to(ROOT)}")
    for name, (value, unit_name) in metrics.items():
        log(f"  {name} = {value:.6g} {unit_name}")
    return correct and failed == 0, ops, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "regcore" / "__init__.py").is_file():
        print(f"error: no regcore sources under {SRC}", file=sys.stderr)
        return 2
    started = monotonic()
    # the build step: byte-compile once so no child pays for it in setup_s
    if not compileall.compile_dir(str(SRC / "regcore"), quiet=1):
        print("error: regcore sources do not compile", file=sys.stderr)
        return 2
    if args.trace:
        correct, ops, failed, metrics = traced(args.workload, args.seed,
                                               started)
    else:
        correct, ops, failed, metrics = timed(args.workload, args.seed,
                                              args.seconds, started)
    print(json.dumps({
        "correct": bool(correct), "attempted": ops, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
