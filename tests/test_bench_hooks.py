"""The benchmark's tracer wraps regcore functions and methods by name.

perfbench/tracer.py is loaded by path and only read: a refactor that
renames or removes a traced boundary fails here, not only in a traced
benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from regcore import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
