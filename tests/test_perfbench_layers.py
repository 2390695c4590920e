"""The benchmark's tracer wraps eigerr bindings by name; each must exist.

perfbench/spans.py replaces module attributes such as
``eigerr.experiments.sqrt_psd`` with timing wrappers. Some of those names
are imported but not called by the module that holds them, so a cleanup that
drops an "unused" import would make the traced benchmark run fail.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    return [(span, module_name, attr) for span, bindings in layers.items()
            for module_name, attr in bindings]


@pytest.mark.parametrize("span,module_name,attr", _layers())
def test_traced_binding_resolves(span, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is missing"
