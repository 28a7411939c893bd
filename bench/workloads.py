"""The benchmark's workloads: their inputs, the timed request, the check.

Each workload is a closed loop with one client: the next request is sent
only when the previous one has returned, as a derivative-free solver waits
for each model before choosing its next point. A request covers
``ops_per_request`` ops. ``setup`` builds every input; ``request(i)`` is
the only timed code; ``check(i, outcome, seconds)`` verifies the outcome
with plain NumPy and returns ``None`` or the reason it failed.

Requests call ``subquad`` through module attributes (``models.fit_mn``,
``cli.main``), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import io as _stdio
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from subquad import bridge, cli, geometry, models
from subquad import io as sqio

from inputs import (
    FUNCTION_CLASSES,
    draw_instance,
    m_quantile,
    rng_for,
    stratified_m,
)
from spans import SUITES

#: Relative tolerance on conversion identities, as in ``subquad verify``.
CONVERSION_RTOL = 1e-8

#: Interpolation residual allowed, relative to ``max(1, max |values|)``.
INTERPOLATION_RTOL = 1e-9

KINDS = ("mn", "mfn", "lfu")


def _cap(d: int) -> int:
    return d * (d + 3) // 2


def _rel(raw, scale) -> float:
    return float(raw) / max(1.0, float(scale))


class _Workload:
    ops_per_request = 1
    #: Requests in one round; a run measures whole rounds.
    round_size = 1
    #: Percentile reported as ``op_tail_ms``. It is fixed per workload, at
    #: the highest percentile that keeps ten requests beyond it at the
    #: benchmark's run length, so that runs faster or slower than that
    #: report the same percentile; a run measures at least
    #: ``min_requests``.
    tail_percentile = 75.0

    @property
    def min_requests(self) -> int:
        return round(1000 / (100 - self.tail_percentile))

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.recorder = None

    def run_cli(self, command: str, argv: list) -> tuple:
        """Run ``subquad`` in process, output captured; returns
        ``(exit code, stderr)``. Traced as ``cli.<command>``."""
        recorder = self.recorder
        traced = recorder is not None and recorder.active
        if traced:
            recorder.open(f"cli.{command}")
        err = _stdio.StringIO()
        try:
            with redirect_stdout(_stdio.StringIO()), redirect_stderr(err):
                code = cli.main(argv)
        finally:
            if traced:
                recorder.close()
        return code, err.getvalue().strip()


class VerifyAll(_Workload):
    """``subquad verify --theorem all``: thousands of small fits
    (``n <= 30``, ``d <= 6``), simplex derivatives, probes and the
    harness, so per-call overhead dominates rather than large SVDs.

    One op is one trial across the 8 positive suites and the negative
    controls; a request is one ``verify`` call of ``TRIALS`` trials with
    its own seed, writing its tables and summary.
    """

    name = "verify-all"
    TRIALS = 8
    ops_per_request = TRIALS

    def setup(self):
        self.out_dir = os.path.join(self.workdir, "verify")
        os.makedirs(self.out_dir, exist_ok=True)

    def call_seed(self, i: int) -> int:
        return int(rng_for(self.seed, "verify", i).integers(1 << 31))

    def request(self, i):
        return self.run_cli("verify", [
            "verify", "--theorem", "all", "--trials", str(self.TRIALS),
            "--seed", str(self.call_seed(i)), "--out-dir", self.out_dir,
        ])

    def expected_trials(self) -> dict:
        trials = self.TRIALS
        expected = {name: trials for name in SUITES}
        # fixed instance + random references + every fifth supported
        # reference + mfn mismatches + mn absences
        expected["negative"] = (
            1 + trials + len(range(0, trials, 5)) + 2 * max(1, trials // 5)
        )
        return expected

    def check(self, i, outcome, seconds):
        code, err = outcome
        if code != 0:
            return (f"exit code {code} from verify --trials {self.TRIALS} "
                    f"--seed {self.call_seed(i)}: {err}")
        with open(os.path.join(self.out_dir, "summary.json"),
                  encoding="utf-8") as handle:
            summary = json.load(handle)
        if summary["config"]["seed"] != self.call_seed(i):
            return "summary.json was not written by this call"
        got = {s["theorem"]: s for s in summary["suites"]}
        expected = self.expected_trials()
        if set(got) != set(expected):
            return f"suites {sorted(got)} != {sorted(expected)}"
        for name, trials in expected.items():
            if not got[name]["passed"] or got[name]["trials"] != trials:
                return f"suite {name}: {got[name]}"
        return None


class FitFull(_Workload):
    """Full-space ``fit_mn`` / ``fit_mfn`` / ``fit_lfu`` requests on sets
    lying in a random ``x0 + col(Q)``, ``n`` in {40, 60, 80}, ``d`` in
    {2, 6}. The full constraint matrix and its full SVD take almost all
    the time and memory; there is no I/O and no harness work.

    A round holds one request per ``(kind, d, n)``; ``ROUNDS`` rounds are
    drawn and then repeated.
    """

    name = "fit-full"
    NS = (40, 60, 80)
    DS = (2, 6)
    ROUNDS = 6
    round_size = len(KINDS) * len(DS) * len(NS)
    tail_percentile = 90.0

    def setup(self):
        self.requests = []
        for r in range(self.ROUNDS):
            for slot, kind in enumerate(KINDS):
                for d in self.DS:
                    for n in self.NS:
                        m = stratified_m(
                            _cap(d), m_quantile(r, slot, len(KINDS))
                        )
                        inst = draw_instance(
                            rng_for(self.seed, "fit-full", r, kind, n, d),
                            n, d, m, kind,
                            FUNCTION_CLASSES[(r + slot) % 2],
                            random_href=(kind == "lfu"),
                        )
                        sample_set = geometry.SampleSet(
                            inst.x0, inst.displacements, inst.values
                        )
                        self.requests.append((inst, sample_set))
        self.routes = {"full": {}, "sub": {}}

    def request(self, i):
        inst, sample_set = self.requests[i % len(self.requests)]
        if inst.kind == "mn":
            return models.fit_mn(sample_set)
        if inst.kind == "mfn":
            return models.fit_mfn(sample_set)
        return models.fit_lfu(sample_set, inst.href)

    def subspace_route(self, inst, sample_set):
        """Detect, hat, fit in the subspace and lift: the paper's route."""
        frame = geometry.detect_subspace(sample_set)
        hatted = geometry.hat_sampleset(sample_set, frame)
        if inst.kind == "mn":
            sub = models.fit_mn(hatted)
            return sub, bridge.lift_mn(sub, frame)
        if inst.kind == "mfn":
            sub = models.fit_mfn(hatted)
            return sub, bridge.lift_mfn(sub, frame)
        href_hat = frame.Q.T @ inst.href @ frame.Q
        sub = models.fit_lfu(hatted, 0.5 * (href_hat + href_hat.T))
        return sub, bridge.lift_lfu(sub, frame, inst.href)

    def check(self, i, outcome, seconds):
        inst, sample_set = self.requests[i % len(self.requests)]
        grad, hess = outcome.model.g, outcome.model.H
        if not np.array_equal(hess, hess.T):
            return "H is not symmetric"
        disp = inst.displacements
        delta = inst.values[1:] - inst.values[0]
        residual = np.max(np.abs(
            disp @ grad + 0.5 * np.einsum("ij,jk,ik->i", disp, hess, disp)
            - delta
        ))
        scale = max(1.0, float(np.max(np.abs(inst.values))))
        if residual > INTERPOLATION_RTOL * scale:
            return f"interpolation residual {residual:.3e} (scale {scale:.3e})"
        start = perf_counter()
        sub, lifted = self.subspace_route(inst, sample_set)
        sub_seconds = perf_counter() - start
        h_scale = np.linalg.norm(sub.model.H)
        if inst.href is not None:
            h_scale = max(h_scale, np.linalg.norm(inst.href))
        h_gap = _rel(np.linalg.norm(hess - lifted.model.H), h_scale)
        g_gap = _rel(
            np.linalg.norm(grad - lifted.model.g),
            np.linalg.norm(sub.model.g),
        )
        if max(h_gap, g_gap) > CONVERSION_RTOL:
            return f"lifted subspace fit differs: H {h_gap:.2e} g {g_gap:.2e}"
        if self.recorder is None:  # the paper curve is timed untraced
            self.routes["full"].setdefault(inst.cell, []).append(seconds)
            self.routes["sub"].setdefault(inst.cell, []).append(sub_seconds)
        return None


class CliSubspace(_Workload):
    """The file-based subspace round trip through the CLI:
    ``subspace detect``, ``fit`` on the hatted set, ``subspace lift``,
    ``subspace restrict`` and ``subspace compare``.

    The fits are tiny (``d`` in {2, 6}), so the time goes to JSON files of
    ``n x n`` matrices, the ``n^3`` products of the lifts, the complement
    basis and its probes: the workload on which faster full-space fits
    should change nothing. Set-up writes each cell's full sample set and
    the hatted set from the ``detect_subspace`` the op itself calls.
    """

    name = "cli-subspace"
    #: n = 100 twice per round, so the median falls inside one size
    #: class rather than on the gap between the two.
    NS = (100, 300, 100)
    DS = (2, 6)
    round_size = len(KINDS) * len(DS) * len(NS)

    def setup(self):
        self.cells = []
        for slot, kind in enumerate(KINDS):
            for d in self.DS:
                m = stratified_m(_cap(d), m_quantile(0, slot, len(KINDS)))
                for copy, n in enumerate(self.NS):
                    inst = draw_instance(
                        rng_for(self.seed, "cli-subspace", kind, d, n, copy),
                        n, d, m, kind, FUNCTION_CLASSES[(slot + copy) % 2],
                        random_href=False,
                    )
                    self.cells.append(self._write_cell(inst))

    def _write_cell(self, inst):
        base = os.path.join(
            self.workdir, f"{inst.kind}-n{inst.n}-d{inst.d}-{len(self.cells)}"
        )
        paths = {key: f"{base}-{key}.json" for key in (
            "full", "hat", "frame", "sub", "lift", "restrict", "report",
        )}
        sqio.save_sampleset(paths["full"], geometry.SampleSet(
            inst.x0, inst.displacements, inst.values
        ))
        full = sqio.load_sampleset(paths["full"])
        frame = geometry.detect_subspace(full)
        sqio.save_sampleset(paths["hat"], geometry.hat_sampleset(full, frame))
        # with m < d the displacements span only m dimensions
        paths["d"] = frame.d
        return inst, paths

    def request(self, i):
        inst, p = self.cells[i % len(self.cells)]
        fit = ["fit", "--kind", inst.kind, "--in", p["hat"],
               "--out", p["sub"]]
        lift = ["subspace", "lift", "--model", p["sub"], "--frame",
                p["frame"], "--out", p["lift"]]
        if inst.kind == "lfu":
            fit += ["--href", f"I{p['d']}"]
            lift += ["--href", f"I{inst.n}"]
        steps = (
            ("subspace_detect", ["subspace", "detect", "--in", p["full"],
                                 "--out", p["frame"]]),
            ("fit", fit),
            ("subspace_lift", lift),
            ("subspace_restrict", ["subspace", "restrict", "--model",
                                   p["lift"], "--frame", p["frame"],
                                   "--out", p["restrict"]]),
            ("subspace_compare", ["subspace", "compare", "--full", p["lift"],
                                  "--sub", p["sub"], "--frame", p["frame"],
                                  "--out", p["report"]]),
        )
        codes = []
        for command, argv in steps:
            code, err = self.run_cli(command, argv)
            codes.append((command, code, err))
            if code != 0:
                break
        return codes

    def check(self, i, outcome, seconds):
        inst, p = self.cells[i % len(self.cells)]
        for command, code, err in outcome:
            if code != 0:
                return f"{command} exit code {code}: {err}"
        if len(outcome) != 5:
            return f"only {len(outcome)} of 5 steps ran"
        docs = {}
        for key in ("sub", "restrict", "report"):
            with open(p[key], encoding="utf-8") as handle:
                docs[key] = json.load(handle)
        sub_h = np.asarray(docs["sub"]["H"])
        gap = _rel(
            np.linalg.norm(np.asarray(docs["restrict"]["H"]) - sub_h),
            np.linalg.norm(sub_h),
        )
        if gap > CONVERSION_RTOL:
            return f"restrict(lift(sub)) moved H by {gap:.2e}"
        report = docs["report"]
        on = _rel(report["subspace_value_gap"], report["value_scale"])
        if on > CONVERSION_RTOL:
            return f"value gap on the subspace {on:.2e}"
        if inst.kind == "lfu":
            probes = np.asarray(report["complement_probe_gaps"])
            if probes.shape != (inst.n - p["d"],) or \
                    np.max(np.abs(probes - 0.5)) > CONVERSION_RTOL:
                return "complement probe gaps are not all 1/2"
        else:
            off = _rel(report["orthogonal_value_gap"], report["value_scale"])
            if off > CONVERSION_RTOL:
                return f"value gap off the subspace {off:.2e}"
        return None


WORKLOADS = {w.name: w for w in (VerifyAll, FitFull, CliSubspace)}
