"""Tests of the benchmark itself: run with ``python -m pytest bench``.

They check that a planted wrong result is counted as a failed op, that the
inputs follow the seed, that the tracer's self times add up, and that the
metric names match ``BENCHMARK.json``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from subquad import bridge, harness, models  # noqa: E402
from subquad.models import ModelResult, QuadraticModel  # noqa: E402


def _perturbed(fn, amount=1e-6):
    """``fn`` with ``amount * I`` added to the Hessian it returns."""

    def planted(*args, **kwargs):
        result = fn(*args, **kwargs)
        model = result.model
        hess = model.H + amount * np.eye(model.n)
        return ModelResult(
            QuadraticModel(model.x0, model.c, model.g, hess),
            result.gradients, result.kind,
            reference_hessian=result.reference_hessian,
            correction_applied=result.correction_applied,
        )

    return planted


def _first_requests(cls, tmp_path, count, seed=3):
    workload = cls(seed, str(tmp_path))
    workload.setup()
    return run.measure(workload, count=count)


@pytest.mark.parametrize("cls", [workloads.FitFull, workloads.CliSubspace,
                                 workloads.VerifyAll])
def test_correct_outputs_pass(cls, tmp_path):
    result = _first_requests(cls, tmp_path, count=1)
    assert result["failed"] == 0, result["errors"]
    assert result["ops"] == cls.ops_per_request


def test_planted_hessian_fails_fit_full(tmp_path, monkeypatch):
    monkeypatch.setattr(models, "fit_mn", _perturbed(models.fit_mn))
    result = _first_requests(workloads.FitFull, tmp_path, count=1)
    assert result["failed"] == 1
    assert "residual" in result["errors"][0]


@pytest.mark.parametrize("cls, module", [
    (workloads.CliSubspace, bridge), (workloads.VerifyAll, harness),
])
def test_planted_lift_fails(cls, module, tmp_path, monkeypatch):
    monkeypatch.setattr(module, "lift_mn", _perturbed(module.lift_mn))
    result = _first_requests(cls, tmp_path, count=1)
    assert result["failed"] == cls.ops_per_request, result["errors"]


def test_inputs_follow_the_seed():
    def draw(seed):
        return inputs.draw_instance(
            inputs.rng_for(seed, "x"), 20, 3, 7, "lfu", "trig", True
        )

    first, again, other = draw(5), draw(5), draw(6)
    for field in ("x0", "Q", "dhat", "values", "href"):
        np.testing.assert_array_equal(getattr(first, field),
                                      getattr(again, field))
    assert not np.array_equal(first.values, other.values)
    q_err = np.linalg.norm(first.Q.T @ first.Q - np.eye(3))
    assert q_err < 1e-12


def test_stratified_m_covers_the_range():
    cap = 27
    ms = [inputs.stratified_m(cap, inputs.m_quantile(r, s, 3))
          for r in range(9) for s in range(3)]
    assert min(ms) >= 1 and max(ms) <= cap
    assert abs(np.mean(ms) - (cap + 1) / 2) < 1.5


def test_self_times_add_up():
    recorder = spans.Recorder()

    def inner():
        return sum(range(20000))

    def outer():
        return inner() + inner()

    inner = recorder.wrap("geometry.inner", inner)
    outer = recorder.wrap("geometry.outer", outer)
    recorder.open("op", op=0)
    outer()
    recorder.close()
    by_name = {}
    for name, start, end, parent, op, child, _ in recorder.spans:
        by_name.setdefault(name, []).append((end - start, child, parent, op))
    (outer_dur, outer_child, outer_parent, _), = by_name["geometry.outer"]
    assert outer_parent == 0
    assert len(by_name["geometry.inner"]) == 2
    assert all(p == 1 and o == 0 for _, _, p, o in by_name["geometry.inner"])
    assert outer_child == pytest.approx(
        sum(d for d, *_ in by_name["geometry.inner"])
    )
    assert 0.0 < outer_child < outer_dur


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == spans.metric_units()
    fake = {"ops": 40, "failed": 0, "seconds": 2.0,
            "latencies": list(np.linspace(0.01, 0.05, 40))}
    metrics, _ = run.end_to_end(np, fake, 1.0, 75.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_tail_keeps_ten_requests_beyond(cls):
    workload = cls(0, "")
    beyond = workload.min_requests * (1 - workload.tail_percentile / 100)
    assert beyond == pytest.approx(10)
