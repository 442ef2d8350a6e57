"""The benchmark's layer tracer names functions that exist.

`perfbench/tracing.py` wraps package functions by their dotted names;
a renamed or deleted function would only surface when the benchmark
runs.  The tracer module is loaded by path and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
NAMES = sorted({name for names in tracing.LAYERS.values() for name in names}
               | set(tracing.COUNTED))


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_is_a_package_function(name):
    module_name, attr = name.split(".")
    assert module_name in ("protocols", "sim", "recon")
    module = importlib.import_module(f"qudittomo.{module_name}")
    assert callable(getattr(module, attr, None))
