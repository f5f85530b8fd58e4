"""The benchmark tracer's layer names must name functions of the library."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_is_a_library_function():
    # The tracer looks each name up with getattr, so a rename breaks --trace 1.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"qengines.{module}"),
                                       name, None))]
    assert missing == []
