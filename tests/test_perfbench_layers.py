"""Every layer the benchmark's tracer wraps must name a photonloc function.

``perfbench/tracing.py`` lists its layers as (module, function) pairs in
``LAYERS`` and looks each one up only when a traced run installs it, so a
renamed or deleted function would otherwise surface only at trace time.
"""

import importlib.util
from pathlib import Path

import photonloc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module_name, func_name, _, _ in tracing.LAYERS:
        module = getattr(photonloc, module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
