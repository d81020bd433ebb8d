"""The benchmark harness's tracer names layers that still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layers_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function in tracing.LAYERS:
        target = importlib.import_module(f"dressedbath.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"
