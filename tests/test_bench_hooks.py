"""The benchmark's tracer wraps regcore functions and methods by name.

perfbench/tracer.py and perfbench/run.py are loaded by path and only read:
a refactor that renames or removes a traced boundary, or stops calling one
on a workload, fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
import weakref
from collections import Counter
from pathlib import Path
from time import monotonic

import pytest

from regcore import modcore, poly, verify
from regcore.field import QQ
from regcore.modcore import (ModuleRep, core_module, fitting,
                             minimal_reduction_module)
from regcore.reduction import GenericSampler, minimal_reduction
from regcore.staircase import MonomialIdeal
from regcore.trunc import TruncatedIdeal, span_with_certificate, vector_row

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    # run.py imports its sibling speed.py, so perfbench/ is on the path
    # while a file loads
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _tracer():
    return _load("tracer")


def _hooks():
    tracer = _tracer()
    return [(module, attr)
            for module, attr, _ in tracer.SPANS + tracer.COUNTED]


@pytest.mark.parametrize("module, attr", _hooks())
def test_traced_boundary_resolves(module, attr):
    mod = importlib.import_module(module)
    if "." in attr:  # the tracer replaces it in the class __dict__
        cls_name, method = attr.split(".")
        assert method in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))


def test_campaign_hooks_keep_their_shape():
    params = list(inspect.signature(verify._Runner.add).parameters)
    assert params[:6] == ["self", "theorem", "instance", "lhs", "rhs",
                          "verdict"]
    assert callable(verify._instances)


def test_hooks_read_what_the_boundaries_return():
    # the after-hooks read fields of the return values: a refactor that
    # changes these shapes breaks a traced run (--trace 1)
    tracer = _tracer().Tracer()
    hooks = tracer.hooks()
    M = MonomialIdeal.max_power
    ideal = TruncatedIdeal.from_monomial(M(2), QQ)

    result = minimal_reduction(ideal, GenericSampler(seed=42))
    hooks["reduction.minimal_reduction"][1]((), {}, result)
    assert tracer.counts["reduction.cert_exponent_sum"] == \
        result[1].exponent == 1

    module = ModuleRep.from_monomial_ideal(M(2), QQ).direct_sum(
        ModuleRep.from_monomial_ideal(M(3), QQ))
    red, cert = minimal_reduction_module(module, GenericSampler(seed=42))
    hooks["modcore.minimal_reduction_module"][1]((), {}, (red, cert))
    assert isinstance(cert.trivial, bool) and isinstance(cert.degree, int)
    assert tracer.counts["modcore.sym_degree_sum"] == \
        (0 if cert.trivial else cert.degree)
    # a later seed, decided by colength against the first: no symmetric
    # power was checked, so it adds a certificate of degree 0
    red, br_cert = minimal_reduction_module(module, GenericSampler(seed=43),
                                            (red.colength(), cert))
    hooks["modcore.minimal_reduction_module"][1]((), {}, (red, br_cert))
    assert (br_cert.trivial, br_cert.degree) == (False, 0)
    assert (tracer.counts["modcore.sym_degree_sum"],
            tracer.counts["modcore.sym_certificates"]) == (cert.degree, 2)

    span = span_with_certificate([vector_row((g,)) for g in ideal.gens], 1,
                                 QQ)
    hooks["trunc.spans"][1]((), {}, span)
    assert (tracer.counts["trunc.order_sum"],
            tracer.counts["trunc.n0_sum"]) == (span.order, span.n0)
    assert span.n0 == 2


def count_boundary_calls(monkeypatch, names):
    """Count calls of regcore.poly functions the way the tracer wraps
    them: in every regcore module that binds them."""
    calls = Counter()
    for name in names:
        original = getattr(poly, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name == "regcore" or mod_name.startswith("regcore."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
    return calls


def test_fitting_goes_through_the_traced_minor_boundaries(monkeypatch):
    # a traced run (--trace 1) fails when no call reaches one of these
    M = MonomialIdeal.max_power
    calls = count_boundary_calls(monkeypatch, ("poly_det", "matrix_minors"))

    def fresh_chains():  # the next fitting() call builds its chain anew
        monkeypatch.setattr(modcore, "_chains", weakref.WeakValueDictionary())
        monkeypatch.setattr(modcore, "_latest", [None])
    one_block = ModuleRep.from_monomial_ideal(M(3), QQ)
    two_blocks = one_block.direct_sum(ModuleRep.from_monomial_ideal(M(2), QQ))
    for module in (one_block, two_blocks):
        calls.clear()
        fresh_chains()
        fitting(module.presentation, module.ngens - module.rank - 1, QQ)
        assert calls["poly_det"] >= calls["matrix_minors"] > 0

    two_blocks.minor_ideal()  # core_module's other minors, computed first
    calls.clear()
    fresh_chains()
    core_module(two_blocks, GenericSampler(seed=42))
    assert calls["poly_det"] >= calls["matrix_minors"] > 0


BENCH = _load("run")


@pytest.mark.parametrize("workload", BENCH.WORKLOADS)
def test_traced_child_reaches_every_expected_layer(workload):
    # the first unit of `run.py --trace 1`, in a child process of its own
    unit = next(BENCH.units(workload, BENCH.DEFAULT_SEED))[0]
    child = BENCH.spawn(workload, unit, 1, 1, monotonic())
    assert BENCH.child_ok(child)
    calls = BENCH.tally(child["trace"])
    assert [name for name in BENCH.EXPECTED[workload]
            if not calls.get(name)] == []
