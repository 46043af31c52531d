"""The benchmark's tracer wraps tvblock functions by name (``TRACED`` in
bench/tracer.py) and fails on a name that no longer exists, but only in a
traced run. This checks every name on each test run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "bench", "tracer.py")


def test_every_traced_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tvblock.{module}"), name, None))
    ]
    assert missing == []
