"""The benchmark's use of the API: traced bindings and workload warm-ups.

perfbench/spans.py replaces module attributes such as
``eigerr.experiments.sqrt_psd`` with timing wrappers. Some of those names
are imported but not called by the module that holds them, so a cleanup that
drops an "unused" import would make the traced benchmark run fail.
perfbench/workloads.py calls the public API with its own configs; each
workload's warm-up operation runs here.
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


WORKLOADS = runpy.run_path(str(SPANS.with_name("workloads.py")))["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warm_up_runs(name, tmp_path):
    # The benchmark's warm-up operation: it builds every config the workload
    # uses (with threads=1), so a renamed keyword or a config that no longer
    # validates fails here and not only in the benchmark.
    WORKLOADS[name].run(5, tmp_path, warm=True)
