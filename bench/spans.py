"""Span recording for the traced run, and the per-layer metrics it yields.

The traced run rebinds the public functions listed in ``TRACED`` in every
``subquad.*`` module namespace that holds them, so calls between modules
(``subquad.models.feasibility_residual``, ``subquad.harness.fit_mn``, ...)
pass through a recorder. Spans are recorded only inside an op's root span,
kept in memory, and written out when the run ends. A span's self time is
its duration minus the time its child spans cover.

Tiny per-element helpers (``svec``, ``smat``, ``as_*``) are not wrapped:
their call counts would make the recorder's own cost the largest layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

#: Suites run by ``subquad verify --theorem all``, in its order.
SUITES = ("mn", "dqi", "mfn", "lfu", "gsg", "gsh", "qgsd-simple",
          "qgsd-refined", "negative")

#: CLI subcommands whose latency the benchmark records around ``cli.main``.
CLI_COMMANDS = ("verify", "fit", "subspace_detect", "subspace_lift",
                "subspace_restrict", "subspace_compare")

#: ``(n, d)`` cells of the paper curve measured on ``fit-full``.
ROUTE_CELLS = tuple((n, d) for n in (40, 60, 80) for d in (2, 6))

_CALLS_SELF = ("calls", "self_ms")

#: module -> {function: stats reported for it}.
TRACED = {
    "linalg": {
        "minnorm_lstsq": ("calls", "self_ms", "v_mb_max"),
        "orthonormal_columns": _CALLS_SELF,
        "orthonormal_complement": _CALLS_SELF,
        "pinv_apply": _CALLS_SELF,
    },
    "geometry": {
        "quadratic_constraint_matrix": _CALLS_SELF,
        "feasibility_residual": _CALLS_SELF,
        "poised_for_quadratic": ("self_ms",),
        "detect_subspace": ("self_ms",),
        "hat_sampleset": ("self_ms",),
    },
    "models": {
        f"fit_{kind}": ("calls", "self_ms", "p50_ms")
        for kind in ("mn", "mfn", "lfu", "dqi")
    },
    "simplex": {name: _CALLS_SELF for name in ("fit_qgsd", "gsg", "gsh")},
    "bridge": {
        name: _CALLS_SELF
        for name in ("lift_mn", "lift_mfn", "lift_lfu", "restrict",
                     "coincidence_check")
    },
    "harness": {
        "run_suite": (),
        "negative_controls": (),
        "random_instance": _CALLS_SELF,
    },
    "io": {
        "save_model": ("self_ms", "mb"),
        "load_model": ("self_ms", "mb"),
        "save_frame": ("self_ms",),
        "load_frame": ("self_ms",),
        "save_sampleset": ("self_ms",),
        "load_sampleset": ("self_ms",),
        "save_suite_csv": ("self_ms",),
        "save_suite_summary": ("self_ms",),
    },
}

_UNITS = {
    "calls": "calls/op",
    "self_ms": "ms/op",
    "p50_ms": "ms",
    "v_mb_max": "MB",
    "mb": "MB/op",
}


def _matrix_v_mb(args, kwargs):
    """Bytes of the ``cols x cols`` factor a full SVD of the matrix makes."""
    cols = np.shape(args[0] if args else kwargs["a"])[-1]
    return cols * cols * 8 / 1e6


def _file_mb(args, kwargs):
    try:
        return os.path.getsize(args[0] if args else kwargs["path"]) / 1e6
    except OSError:
        return 0.0


_EXTRAS = {
    "linalg.minnorm_lstsq": _matrix_v_mb,
    "io.save_model": _file_mb,
    "io.load_model": _file_mb,
}


def _suite_name(args, kwargs):
    theorem = args[0] if args else kwargs["theorem"]
    return f"harness.suite.{theorem}"


_NAMERS = {
    "harness.run_suite": _suite_name,
    "harness.negative_controls": lambda args, kwargs: "harness.suite.negative",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, functions in TRACED.items():
        for function, stats in functions.items():
            for stat in stats:
                units[f"{module}.{function}.{stat}"] = _UNITS[stat]
    for suite in SUITES:
        units[f"harness.suite.{suite}.s"] = "s/op"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    for route in ("full", "sub"):
        for n, d in ROUTE_CELLS:
            units[f"route.{route}.n{n}d{d}.p50_ms"] = "ms"
    units["trace.overhead_frac"] = "fraction"
    return units


class Recorder:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op, child_seconds, extra]``;
    ``parent`` indexes ``spans`` (-1 for an op's root span).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def open(self, name, op=None):
        """Start a span; with ``op`` set it is the root span of that op."""
        if op is None:
            parent = self._stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
        self.spans.append([name, perf_counter(), 0.0, parent, op, 0.0, None])
        self._stack.append(len(self.spans) - 1)

    def close(self, extra=None):
        end = perf_counter()
        index = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        span[6] = extra
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def wrap(self, name, fn):
        namer = _NAMERS.get(name)
        extra = _EXTRAS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            self.open(namer(args, kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(extra(args, kwargs) if extra else None)

        return traced

    def install(self):
        """Rebind every traced function wherever a subquad module holds it."""
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None
            and (key == "subquad" or key.startswith("subquad."))
        ]
        for short, functions in TRACED.items():
            home = sys.modules[f"subquad.{short}"]
            for function in functions:
                original = getattr(home, function)
                wrapped = self.wrap(f"{short}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, _, extra in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "extra": extra,
                }))
                handle.write("\n")

    def layer_metrics(self, ops: int):
        """Per-layer metrics over the recorded spans, counts and self
        times per op, latencies as medians over calls; also returns the
        number of calls behind each span name."""
        calls, self_s, durations, extra_sum, extra_max = {}, {}, {}, {}, {}
        for name, start, end, parent, _, child, extra in self.spans:
            if parent < 0:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
            durations.setdefault(name, []).append(end - start)
            if extra is not None:
                extra_sum[name] = extra_sum.get(name, 0.0) + extra
                extra_max[name] = max(extra_max.get(name, 0.0), extra)

        def p50_ms(name):
            return 1e3 * float(np.median(durations[name])) \
                if name in durations else 0.0

        out = {}
        for key in metric_units():
            layer, _, stat = key.rpartition(".")
            if stat == "calls":
                out[key] = calls.get(layer, 0) / ops
            elif stat == "self_ms":
                out[key] = 1e3 * self_s.get(layer, 0.0) / ops
            elif stat == "p50_ms" and not layer.startswith("route."):
                out[key] = p50_ms(layer)
            elif stat == "v_mb_max":
                out[key] = extra_max.get(layer, 0.0)
            elif stat == "mb":
                out[key] = extra_sum.get(layer, 0.0) / ops
            elif stat == "s":
                out[key] = sum(durations.get(layer, ())) / ops
        return out, calls
