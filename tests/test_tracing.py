"""The traced benchmark run rebinds functions by name.

``bench/spans.py`` lists, per ``subquad`` module, the functions that
``bench/run.py --trace 1`` wraps. A refactor that renames or removes one
of them breaks the traced run; this test catches it first. The bench file
is imported read-only, outside ``sys.modules``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from subquad import cli, harness

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


def test_suite_spans_follow_the_verify_calls(monkeypatch, capsys):
    """The traced run names a ``run_suite`` span from its first argument
    (or ``theorem=``) and a ``negative_controls`` span as the negative
    suite, so ``verify --theorem all`` must make one call per suite, in
    order, and one negative-control call, none nested in another."""
    first = next(iter(inspect.signature(harness.run_suite).parameters))
    assert first == "theorem"
    calls = []
    run_suite, negative_controls = harness.run_suite, harness.negative_controls

    def suite(*args, **kwargs):
        calls.append(args[0] if args else kwargs["theorem"])
        return run_suite(*args, **kwargs)

    def negative(*args, **kwargs):
        calls.append("negative")
        return negative_controls(*args, **kwargs)

    monkeypatch.setattr(harness, "run_suite", suite)
    monkeypatch.setattr(harness, "negative_controls", negative)
    assert cli.main(["verify", "--theorem", "all", "--trials", "1"]) == 0
    capsys.readouterr()
    assert calls == list(harness.SUITES) + ["negative"]
