"""The benchmark tracer (`perfbench/tracing.py`) wraps package functions
by module and attribute path, and `perfbench/run.py --trace 1` stops
with a KeyError on a name that is gone.  Deleting or moving a name it
lists, or one the package exports, must fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import aspherical

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_and_exports_resolve():
    tracing = _load_tracing()
    for span, module, path, _ in tracing.WRAPPED:
        owner, attr = tracing._resolve(importlib.import_module(f"aspherical.{module}"), path)
        assert attr in owner.__dict__, span
    for name in aspherical.__all__:
        assert hasattr(aspherical, name), name
