"""Benchmark of subquad's public API and CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {verify-all,fit-full,cli-subspace} \\
        --seed N --seconds S --trace {0,1}

Inputs come from ``--seed``. With ``--trace 0`` the requests run in whole
rounds until their summed time reaches ``S`` seconds, and the end-to-end
metrics are reported. With ``--trace 1`` the requests run untraced for
``S / 2`` seconds, then the same requests run again with every traced
function rebound (see ``spans.py``); the per-layer metrics come from that
second pass and ``trace.overhead_frac`` compares the two.

Every outcome is checked outside the request timer. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is an environment stamp, and both are also written to
``.bench_run/`` with the spans of a traced run. BLAS runs on
``BLAS_THREADS`` threads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: BLAS threads for every run, set before NumPy loads so that both sides
#: of any comparison use the same count; one client runs one request at a
#: time, and one thread keeps runs on a shared machine steadier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 5


def _more(workload, requests, total, seconds, count, min_requests):
    if count is not None:
        return requests < count
    return (total < seconds or requests < min_requests
            or requests % workload.round_size != 0)


def measure(workload, seconds=None, count=None, min_requests=0):
    """Closed loop of requests from index 0, until ``count`` requests have
    run or, without a count, until the summed request time reaches
    ``seconds`` at the end of a round and ``min_requests`` have run.

    Requests in a round differ in cost by up to 100x; whole rounds keep
    the mix, and so the throughput and percentiles, the same in every run.
    """
    recorder = workload.recorder
    latencies, errors = [], []
    ops = failed = requests = 0
    total = 0.0
    while _more(workload, requests, total, seconds, count, min_requests):
        if recorder is not None:
            recorder.open("op", op=requests)
        start = perf_counter()
        try:
            outcome = workload.request(requests)
            reason = None
        except Exception as exc:  # an op that raises is a failed op
            outcome, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if recorder is not None:
            recorder.close()
        total += elapsed
        if reason is None:
            try:
                reason = workload.check(requests, outcome, elapsed)
            except Exception as exc:  # a check that cannot run fails too
                reason = f"check {type(exc).__name__}: {exc}"
        ops += workload.ops_per_request
        if reason is None:
            latencies.append(elapsed / workload.ops_per_request)
        else:
            failed += workload.ops_per_request
            errors.append(f"request {requests}: {reason}")
        requests += 1
    return {"requests": requests, "ops": ops, "failed": failed,
            "seconds": total, "latencies": latencies, "errors": errors}


def git_sha():
    """Commit of the checkout from ``.git``, or None outside a repository."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_effect(numpy):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(numpy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(numpy, run, setup_s, tail_q):
    lat_ms = 1e3 * numpy.asarray(run["latencies"])
    samples = lat_ms.size
    good = run["ops"] - run["failed"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (good / run["seconds"], "1/s"),
        "op_p50_ms": (float(numpy.percentile(lat_ms, 50)), "ms"),
        "op_tail_ms": (float(numpy.percentile(lat_ms, tail_q)), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    percentiles = {
        "op_p50_ms": {"percentile": 50.0, "samples": samples},
        "op_tail_ms": {"percentile": tail_q, "samples": samples},
    }
    return metrics, percentiles


def per_layer(numpy, spans, workload, untraced, traced, recorder):
    metrics, calls = recorder.layer_metrics(traced["ops"])
    routes = getattr(workload, "routes", {"full": {}, "sub": {}})
    for route, cells in routes.items():
        for n, d in spans.ROUTE_CELLS:
            times = cells.get((n, d))
            metrics[f"route.{route}.n{n}d{d}.p50_ms"] = (
                1e3 * float(numpy.median(times)) if times else 0.0
            )
    metrics["trace.overhead_frac"] = (
        1.0 - untraced["seconds"] / traced["seconds"]
    )
    units = spans.metric_units()
    percentiles = {
        "traced_ops": traced["ops"],
        "span_calls": calls,
        "route_samples": {
            route: {f"n{n}d{d}": len(times) for (n, d), times in cells.items()}
            for route, cells in routes.items()
        },
    }
    return {k: (metrics[k], units[k]) for k in units}, percentiles


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "fit-full", "cli-subspace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subquad" / "__init__.py").is_file():
        print(f"error: no subquad sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import_start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import subquad
    import spans
    from workloads import WORKLOADS
    import_s = perf_counter() - import_start
    if Path(subquad.__file__).resolve().parent != ROOT / "src" / "subquad":
        print(f"error: imported subquad from {subquad.__file__}",
              file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup()
            warmups.append(measure(workload, count=1))
            setups.append(perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if args.trace == 0:
            run = measure(workload, seconds=args.seconds,
                          min_requests=workload.min_requests)
            if not run["latencies"]:
                print(f"error: every request failed: {run['errors'][:3]}",
                      file=sys.stderr)
                return 1
            metrics, percentiles = end_to_end(
                numpy, run, setup_s, workload.tail_percentile
            )
            runs = [*warmups, run]
        else:
            untraced = measure(workload, seconds=args.seconds / 2)
            recorder = spans.Recorder()
            workload.recorder = recorder
            recorder.install()
            try:
                traced = measure(workload, count=untraced["requests"])
            finally:
                recorder.uninstall()
                workload.recorder = None
            recorder.write(RUN_DIR / f"spans-{args.workload}.jsonl")
            metrics, percentiles = per_layer(
                numpy, spans, workload, untraced, traced, recorder
            )
            runs = [*warmups, untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    stamp = {
        **environment(numpy),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_request": workload.ops_per_request,
        "requests": [r["requests"] for r in runs],
        "setup_runs_s": setups,
        "import_s": import_s,
        "failed_frac": failed / attempted,
        "errors": errors[:10],
        "samples": percentiles,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (RUN_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
