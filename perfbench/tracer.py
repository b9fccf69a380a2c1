"""Spans and counts at regcore's layer boundaries, installed from outside.

`install` replaces public functions and methods of regcore with wrappers at
run time; nothing under src/ changes.  A function that other modules bound
with ``from .x import y`` is replaced in every regcore module that holds
it, so no caller keeps the unwrapped original (the completeness check in
child.py fails loudly if a boundary still records no calls).

Spans are aggregated in memory per (name, parent name) edge as call count,
inclusive seconds and self seconds (inclusive minus the time its child
spans cover), and written out when the child exits.  A per-call log would
hold one record per row insert, over a million on the campaign workloads.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute or Class.method, span name).  Self time of a span
# excludes every span below it, so e.g. `trunc.span` (TruncatedSpan
# construction) is row building plus the certificate search, less the
# insert and contains calls it makes.
SPANS = [
    ("regcore.linalg", "SparseBasis.insert", "linalg.insert"),
    ("regcore.linalg", "SparseBasis.contains", "linalg.contains"),
    ("regcore.linalg", "kernel_modulo", "linalg.kernel_modulo"),
    ("regcore.trunc", "TruncatedSpan.__init__", "trunc.span"),
    ("regcore.trunc", "TruncatedIdeal.colon", "trunc.colon"),
    ("regcore.trunc", "TruncatedIdeal.to_monomial", "trunc.to_monomial"),
    ("regcore.trunc", "TruncatedIdeal.product", "trunc.product"),
    ("regcore.poly", "poly_det", "poly.poly_det"),
    ("regcore.poly", "matrix_minors", "poly.matrix_minors"),
    ("regcore.modcore", "fitting", "modcore.fitting"),
    ("regcore.modcore", "colon_into", "modcore.colon_into"),
    ("regcore.modcore", "sym_reduction_check", "modcore.sym_reduction_check"),
    ("regcore.modcore", "core_module", "modcore.core_module"),
    ("regcore.reduction", "minimal_reduction", "reduction.minimal_reduction"),
    ("regcore.reduction", "smaller_ideal_equals",
     "reduction.smaller_ideal_equals"),
    ("regcore.reduction", "is_reduction", "reduction.is_reduction"),
    ("regcore.reduction", "adjoint_ideal", "reduction.adjoint_ideal"),
    ("regcore.reduction", "hilbert_samuel", "reduction.hilbert_samuel"),
    ("regcore.staircase", "adjoint", "staircase.adjoint"),
    ("regcore.staircase", "integral_closure", "staircase.integral_closure"),
    ("regcore.staircase", "colength", "staircase.colength"),
    ("regcore.staircase", "multiplicity", "staircase.multiplicity"),
    ("regcore.staircase", "power_certificate", "staircase.power_certificate"),
    ("regcore.verify", "run_suite", "verify.run_suite"),
    ("regcore.verify", "_Runner.eq_mono", "verify.eq_mono"),
    ("regcore.verify", "_Runner.eq_trunc", "verify.eq_trunc"),
    ("regcore.verify", "_Runner.le_trunc", "verify.le_trunc"),
    ("regcore.verify", "_Runner.eq_module", "verify.eq_module"),
    ("regcore.verify", "_Runner.le_module", "verify.le_module"),
    ("regcore.verify", "_Runner.eq_int", "verify.eq_int"),
    ("regcore.cli", "main", "cli.main"),
    ("regcore.verify", "render_report", "cli.render_report"),
]

# Counted, not spanned: a span around every Poly product would dominate
# the traced run.
COUNTED = [
    ("regcore.poly", "Poly.__mul__", "poly.mul"),
    ("regcore.trunc", "span_with_certificate", "trunc.spans"),
    ("regcore.reduction", "GenericSampler.coefficient", "reduction.draws"),
    ("regcore.reduction", "GenericSampler.combination",
     "reduction.combinations"),
    ("regcore.modcore", "minimal_reduction_module",
     "modcore.minimal_reduction_module"),
]


class Tracer:
    """Aggregated spans and integer counts for one child process."""

    def __init__(self):
        self.edges: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._fitting_seen: set = set()

    def span(self, name, fn, before=None, after=None):
        stack, edges = self._stack, self.edges

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((name, parent))
                if edge is None:
                    edge = edges[(name, parent)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that record what a boundary returned ----------------------

    def _after_insert(self, args, kwargs, lead):
        self.counts["linalg.insert.terms"] += len(args[1])
        if lead is None:
            self.counts["linalg.insert.dependent"] += 1

    def _after_span(self, args, kwargs, span):
        self.counts["trunc.order_sum"] += span.order
        self.counts["trunc.n0_sum"] += span.n0

    def _after_to_monomial(self, args, kwargs, mono):
        if mono is None:
            self.counts["trunc.to_monomial.misses"] += 1

    def _after_minors(self, args, kwargs, minors):
        if isinstance(minors, list):
            self.counts["poly.minors"] += len(minors)

    def _before_fitting(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        key = (tuple(tuple(row) for row in matrix), k)
        if key in self._fitting_seen:
            self.counts["modcore.fitting.repeats"] += 1
        else:
            self._fitting_seen.add(key)

    def _after_module_reduction(self, args, kwargs, result):
        cert = result[1]
        if not cert.trivial:
            self.counts["modcore.sym_degree_sum"] += cert.degree
            self.counts["modcore.sym_certificates"] += 1

    def _after_reduction(self, args, kwargs, result):
        self.counts["reduction.cert_exponent_sum"] += result[1].exponent

    def hooks(self):
        return {
            "linalg.insert": (None, self._after_insert),
            "trunc.to_monomial": (None, self._after_to_monomial),
            "poly.matrix_minors": (None, self._after_minors),
            "modcore.fitting": (self._before_fitting, None),
            "reduction.minimal_reduction": (None, self._after_reduction),
            "trunc.spans": (None, self._after_span),
            "modcore.minimal_reduction_module":
                (None, self._after_module_reduction),
        }

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every boundary in SPANS and COUNTED."""
        hooks = self.hooks()
        for module, attr, name in SPANS:
            before, after = hooks.get(name, (None, None))
            _replace(module, attr,
                     lambda fn, n=name, b=before, a=after:
                     self.span(n, fn, b, a))
        for module, attr, name in COUNTED:
            _, after = hooks.get(name, (None, None))
            _replace(module, attr,
                     lambda fn, n=name, a=after: self.count(n, fn, a))

    def export(self) -> dict:
        return {"edges": [[name, parent, calls, total, own]
                          for (name, parent), (calls, total, own)
                          in sorted(self.edges.items(), key=str)],
                "counts": dict(sorted(self.counts.items()))}


def _regcore_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "regcore" or name.startswith("regcore.")]


def _replace(module_name: str, attr: str, make):
    """Replace a method on its class, or a function in every regcore module
    that binds it, by make(original)."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    wrapper = make(original)
    for mod in _regcore_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
