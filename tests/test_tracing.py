"""The traced benchmark run rebinds functions by name.

``bench/spans.py`` lists, per ``subquad`` module, the functions that
``bench/run.py --trace 1`` wraps. A refactor that renames or removes one
of them breaks the traced run; this test catches it first. The bench file
is imported read-only, outside ``sys.modules``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _load_spans().TRACED
    assert traced
    missing = []
    for module_name, functions in traced.items():
        module = importlib.import_module(f"subquad.{module_name}")
        missing += [
            f"subquad.{module_name}.{name}" for name in functions
            if not callable(getattr(module, name, None))
        ]
    assert not missing
