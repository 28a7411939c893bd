"""Randomized verification of the full-space/subspace conversion formulas.

Each suite draws seeded random instances whose displacements live in a
``d``-dimensional subspace of R^n, fits the relevant objects both in full
space and in the subspace, converts one to the other, and records the worst
normalized mismatch. ``negative_controls`` builds instances that *must*
disagree off the subspace (least-change fits with a reference Hessian that
is not subspace-supported, and gradient pairings that break the coincidence
hypothesis) and asserts a clean separation from the passing gaps.

Trials are independent: every trial derives its own generator seed from
``(seed, suite, trial)``, so results are reproducible and order-independent.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import linalg
from .bridge import coincidence_check, lift_lfu, lift_mfn, lift_mn
from .errors import SpecInfeasibleError, UnknownTheoremError
from .functions import FUNCTION_CLASSES, random_function
from .geometry import (
    FunctionOracle,
    SampleSet,
    SubspaceFrame,
    hat_function,
    hat_sampleset,
    quadratic_constraint_matrix,
)
from .models import QuadraticModel, fit_dqi, fit_lfu, fit_mfn, fit_mn
from .simplex import DirectionBundle, fit_qgsd, gsg, gsh

SUITES = (
    "mn", "dqi", "mfn", "lfu", "gsg", "gsh", "qgsd-simple", "qgsd-refined",
)

#: Relative singular-value floor enforced when drawing displacement sets.
#: Rejects roughly the worst percentile of Gaussian draws, keeping random
#: instances far from rank decisions and the solves well conditioned.
GENERATION_RANK_FLOOR = 1e-4

#: Stricter floor for negative-control instances, where raw (unnormalized)
#: gaps are asserted and the fit noise must sit far below the planted
#: signal.  Draws are rejected more often; the retry loop absorbs it.
CONTROL_RANK_FLOOR = 1e-2

_SEED_MASK = (1 << 31) - 1


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of one random trial: dimensions, sample count, function, seed.

    ``m`` may not exceed ``d (d + 3) / 2``: beyond that the subspace
    interpolation constraints could not be satisfied for generic values.
    ``rank_floor`` is the relative singular-value floor enforced on the
    drawn displacement set; the negative controls raise it so the noise
    floor of the fits stays orders of magnitude below the planted gaps.
    """

    n: int
    d: int
    m: int
    function_class: str
    seed: int
    rank_floor: float = GENERATION_RANK_FLOOR

    def __post_init__(self):
        if not 1 <= self.d <= self.n:
            raise SpecInfeasibleError(
                f"need 1 <= d <= n, got d={self.d}, n={self.n}"
            )
        cap = self.d * (self.d + 3) // 2
        if not 1 <= self.m <= cap:
            raise SpecInfeasibleError(
                f"need 1 <= m <= d(d+3)/2 = {cap}, got m={self.m}"
            )
        if self.function_class not in FUNCTION_CLASSES:
            raise SpecInfeasibleError(
                f"unknown function class {self.function_class!r}"
            )
        if not 0.0 < self.rank_floor < 1.0:
            raise SpecInfeasibleError(
                f"rank floor must be in (0, 1), got {self.rank_floor}"
            )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of a single verification trial."""

    suite: str
    trial: int
    n: int
    d: int
    m: int
    function_class: str
    gap: float
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    """Pass/fail statistics for one verification suite."""

    theorem: str
    trials: int
    failures: int
    max_gap: float
    tol: float
    seed: int
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def gap_histogram(self) -> dict:
        """Counts of trial gaps per decade (keys like '1e-12..1e-11')."""
        counts: dict[str, int] = {}
        for rec in self.records:
            if rec.gap <= 0.0:
                key = "0"
            elif not np.isfinite(rec.gap):
                key = "inf"
            else:
                exp = int(np.floor(np.log10(rec.gap)))
                key = f"1e{exp}..1e{exp + 1}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def child_seed(seed: int, *path) -> int:
    """Stable per-trial seed derived from a master seed and a label path."""
    entropy = [int(seed) & _SEED_MASK]
    for part in path:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode()))
        else:
            entropy.append(int(part) & _SEED_MASK)
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, np.uint64)[0])


def _draw_basis(rng, n: int, d: int) -> np.ndarray:
    """Orthonormal basis of a seeded Gaussian ``n x d`` block of rank ``d``."""
    for _ in range(64):
        basis, rank = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        if rank == d:
            return basis
    raise SpecInfeasibleError("could not draw a rank-d basis")


def random_instance(spec: InstanceSpec):
    """Draw an oracle, sample set and frame realizing the requested shape.

    The displacements are ``d_i = Q dhat_i`` with ``Q`` an orthonormal
    basis of a seeded Gaussian block and ``dhat_i`` Gaussian, regenerated
    until the subspace interpolation matrix has full row rank with a
    comfortable margin, so the constraints are feasible for *any* values.
    """
    rng = np.random.default_rng(spec.seed)
    basis = _draw_basis(rng, spec.n, spec.d)
    dhat = None
    for _ in range(256):
        candidate = rng.standard_normal((spec.m, spec.d))
        sigma = np.linalg.svd(
            quadratic_constraint_matrix(candidate), compute_uv=False
        )
        if linalg.numerical_rank(sigma, spec.rank_floor) < sigma.size:
            continue
        # Near-collinear displacement sets are feasible but force huge
        # gradients (the quadratic columns keep the constraint matrix
        # nonsingular while the directions almost coincide), drowning
        # raw value comparisons in magnitude; floor them out too.
        dirs = np.linalg.svd(candidate, compute_uv=False)
        if linalg.numerical_rank(dirs, spec.rank_floor) == dirs.size:
            dhat = candidate
            break
    if dhat is None:
        raise SpecInfeasibleError(
            "could not draw a full-row-rank displacement set"
        )
    displacements = dhat @ basis.T
    fn = random_function(spec.function_class, spec.n, rng)
    oracle = FunctionOracle(fn, name=spec.function_class, dim=spec.n)
    x0 = rng.standard_normal(spec.n)
    sample_set = SampleSet.from_oracle(x0, displacements, oracle)
    frame = SubspaceFrame(x0, basis, dhat)
    return oracle, sample_set, frame


def _rel(raw: float, scale: float) -> float:
    return float(raw) / max(1.0, float(scale))


def _draw_dims(rng, n_range, d_range, determined: bool):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d_hi = max(1, min(n - 1, d_range[1]))
    d_lo = min(max(1, d_range[0]), d_hi)
    d = int(rng.integers(d_lo, d_hi + 1))
    cap = d * (d + 3) // 2
    m = cap if determined else int(rng.integers(1, cap + 1))
    return n, d, m


def _function_class(trial: int) -> str:
    return "quadratic" if trial % 2 == 0 else "trig"


def _value_gaps(report):
    on = _rel(report.subspace_value_gap, report.value_scale)
    off = _rel(report.orthogonal_value_gap, report.value_scale)
    return on, off


def _family_membership_gap(full, sub, frame, rng, samples=20):
    """Worst two-way membership residual between the gradient families."""
    basis, complement = frame.Q, frame.complement
    amb_full = full.gradients.ambiguity_basis
    amb_sub = sub.gradients.ambiguity_basis
    scale = max(1.0, float(np.linalg.norm(sub.gradients.canonical)))
    worst = 0.0
    for _ in range(samples):
        # full-space member -> its subspace part must be a subspace member
        coeffs = scale * rng.standard_normal(amb_full.shape[1])
        member_full = full.gradients.canonical + amb_full @ coeffs
        hatted = basis.T @ member_full
        resid = hatted - sub.gradients.canonical
        if amb_sub.shape[1]:
            resid = resid - amb_sub @ (amb_sub.T @ resid)
        worst = max(worst, float(np.linalg.norm(resid)) / scale)
        # subspace member plus any orthogonal shift -> full-space member
        chat = scale * rng.standard_normal(amb_sub.shape[1])
        shift = complement @ (scale * rng.standard_normal(complement.shape[1]))
        member_sub = sub.gradients.canonical
        if amb_sub.shape[1]:
            member_sub = member_sub + amb_sub @ chat
        lifted = basis @ member_sub + shift
        resid = lifted - full.gradients.canonical
        if amb_full.shape[1]:
            resid = resid - amb_full @ (amb_full.T @ resid)
        worst = max(worst, float(np.linalg.norm(resid)) / scale)
    return worst


# Every trial function takes ``(spec, trial, probes, seed_of)``, where
# ``seed_of(label)`` is the trial's child seed for that label, and returns
# ``(gap, detail)``.


def _trial_mn(spec, trial, probes, seed_of, determined=False):
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    full = fit_mn(sample_set)
    sub = fit_dqi(hatted) if determined else fit_mn(hatted)
    lifted = lift_mn(sub, frame)
    g_gap = _rel(
        np.linalg.norm(full.model.g - lifted.model.g),
        np.linalg.norm(sub.model.g),
    )
    h_gap = _rel(
        np.linalg.norm(full.model.H - lifted.model.H),
        np.linalg.norm(sub.model.H),
    )
    report = coincidence_check(
        full.model, sub.model, frame, probes=probes, seed=seed_of("probes")
    )
    on_gap, off_gap = _value_gaps(report)
    gap = max(g_gap, h_gap, on_gap, off_gap)
    detail = f"g={g_gap:.2e} H={h_gap:.2e} on={on_gap:.2e} off={off_gap:.2e}"
    return gap, detail


def _trial_mfn(spec, trial, probes, seed_of):
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    full = fit_mfn(sample_set)
    sub = fit_mfn(hatted)
    lifted = lift_mfn(sub, frame)
    if full.gradients.dim != lifted.gradients.dim:
        return float("inf"), (
            f"ambiguity dimension mismatch: fit {full.gradients.dim}, "
            f"lift {lifted.gradients.dim}"
        )
    h_gap = _rel(
        np.linalg.norm(full.model.H - lifted.model.H),
        np.linalg.norm(sub.model.H),
    )
    g_gap = _rel(
        np.linalg.norm(full.gradients.canonical - lifted.gradients.canonical),
        np.linalg.norm(sub.gradients.canonical),
    )
    member_rng = np.random.default_rng(seed_of("members"))
    member_gap = _family_membership_gap(full, sub, frame, member_rng)
    report = coincidence_check(
        full.model, sub.model, frame, probes=probes, seed=seed_of("probes")
    )
    on_gap, off_gap = _value_gaps(report)
    gap = max(h_gap, g_gap, member_gap, on_gap, off_gap)
    detail = (
        f"H={h_gap:.2e} g={g_gap:.2e} fam={member_gap:.2e} "
        f"on={on_gap:.2e} off={off_gap:.2e}"
    )
    return gap, detail


def _fixed_lfu_gap(probes, probe_seed):
    """Worked instance: unit-square corners of the squared norm in R^3."""
    sample_set = SampleSet(
        np.zeros(3),
        np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]),
        np.array([0.0, 1.0, 1.0, 2.0]),
    )
    frame = SubspaceFrame(
        np.zeros(3),
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )
    full = fit_lfu(sample_set, np.eye(3))
    sub = fit_lfu(hat_sampleset(sample_set, frame), np.eye(2))
    gaps = [
        float(np.linalg.norm(full.gradients.canonical - [0.5, 0.5, 0.0])),
        float(np.linalg.norm(full.model.H - np.eye(3))),
        float(np.linalg.norm(sub.gradients.canonical - [0.5, 0.5])),
        float(np.linalg.norm(sub.model.H - np.eye(2))),
    ]
    ambiguity = full.gradients.ambiguity_basis
    if ambiguity.shape[1] != 1:
        return float("inf"), "expected a one-dimensional gradient ambiguity"
    gaps.append(abs(abs(ambiguity[2, 0]) - 1.0))
    report = coincidence_check(
        full.model, sub.model, frame, probes=probes, seed=probe_seed
    )
    gaps.append(report.subspace_value_gap)
    # one unit step off the plane must expose exactly the 1/2 mismatch
    gaps.append(abs(report.complement_probe_gaps[0] - 0.5))
    return max(gaps), "fixed worked instance"


def _trial_lfu(spec, trial, probes, seed_of):
    probe_seed = seed_of("probes")
    if trial == 0:
        return _fixed_lfu_gap(probes, probe_seed)
    href_rng = np.random.default_rng(seed_of("href"))
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    n = spec.n
    href = linalg.sym_part(href_rng.standard_normal((n, n)))
    href_hat = linalg.sym_part(frame.Q.T @ href @ frame.Q)
    full = fit_lfu(sample_set, href)
    sub = fit_lfu(hatted, href_hat)
    lifted = lift_lfu(sub, frame, href)
    scale_h = max(np.linalg.norm(sub.model.H), np.linalg.norm(href))
    h_gap = _rel(np.linalg.norm(full.model.H - lifted.model.H), scale_h)
    restrict_gap = _rel(
        np.linalg.norm(frame.Q.T @ full.model.H @ frame.Q - sub.model.H),
        np.linalg.norm(sub.model.H),
    )
    g_gap = _rel(
        np.linalg.norm(full.gradients.canonical - lifted.gradients.canonical),
        np.linalg.norm(sub.gradients.canonical),
    )
    member_rng = np.random.default_rng(seed_of("members"))
    member_gap = _family_membership_gap(full, sub, frame, member_rng)
    report = coincidence_check(
        full.model, sub.model, frame, probes=probes, seed=probe_seed
    )
    on_gap, _ = _value_gaps(report)

    # With a subspace-supported reference the models must also agree off
    # the subspace.
    supported = linalg.sym_part(
        frame.Q @ linalg.sym_part(
            href_rng.standard_normal((spec.d, spec.d))
        ) @ frame.Q.T
    )
    supported_hat = linalg.sym_part(frame.Q.T @ supported @ frame.Q)
    full2 = fit_lfu(sample_set, supported)
    sub2 = fit_lfu(hatted, supported_hat)
    report2 = coincidence_check(
        full2.model, sub2.model, frame, probes=probes, seed=probe_seed + 1
    )
    on2, off2 = _value_gaps(report2)
    gap = max(h_gap, restrict_gap, g_gap, member_gap, on_gap, on2, off2)
    detail = (
        f"H={h_gap:.2e} QtHQ={restrict_gap:.2e} g={g_gap:.2e} "
        f"fam={member_gap:.2e} on={on_gap:.2e} supported-off={off2:.2e}"
    )
    return gap, detail


def _draw_direction_block(rng, d, allow_duplicate, rank_floor):
    """Gaussian ``d x p`` direction block, ``1 <= p <= d + 1``.

    With ``allow_duplicate`` the last column may repeat the first. Blocks
    are redrawn until every singular value the solves keep (above the
    default rank cutoff) clears ``rank_floor`` relative to the largest, so
    a planted exact duplicate passes and a near-degenerate block does not.
    """
    for _ in range(256):
        p = int(rng.integers(1, d + 2))
        block = rng.standard_normal((d, p))
        if allow_duplicate and p >= 2 and rng.random() < 0.5:
            block[:, -1] = block[:, 0]
        sigma = np.linalg.svd(block, compute_uv=False)
        kept = linalg.numerical_rank(sigma, linalg.default_rank_tol(d, p))
        if linalg.numerical_rank(sigma, rank_floor) == kept:
            return block
    raise SpecInfeasibleError("could not draw a well-conditioned block")


def _simplex_setup(spec, shared_inner, duplicate_ok, refined=False):
    rng = np.random.default_rng(spec.seed)
    basis = _draw_basis(rng, spec.n, spec.d)
    x0 = rng.standard_normal(spec.n)
    draw_block = partial(
        _draw_direction_block, rng, spec.d, duplicate_ok, spec.rank_floor
    )
    s_hat = draw_block()
    if refined:
        sub_bundle = DirectionBundle(s_hat, s_hat)
        s_full = basis @ s_hat
        full_bundle = DirectionBundle(s_full, s_full)
    elif shared_inner:
        t_hat = draw_block()
        sub_bundle = DirectionBundle(s_hat, t_hat)
        full_bundle = DirectionBundle(basis @ s_hat, basis @ t_hat)
    else:
        blocks = [draw_block() for _ in range(s_hat.shape[1])]
        sub_bundle = DirectionBundle(s_hat, blocks)
        full_bundle = DirectionBundle(
            basis @ s_hat, [basis @ block for block in blocks]
        )
    fn = random_function(spec.function_class, spec.n, rng)
    oracle = FunctionOracle(fn, name=spec.function_class, dim=spec.n)
    frame = SubspaceFrame(x0, basis, s_hat.T)
    return oracle, x0, frame, sub_bundle, full_bundle


def _trial_gsg(spec, trial, probes, seed_of):
    oracle, x0, frame, sub_bundle, full_bundle = _simplex_setup(
        spec, shared_inner=True, duplicate_ok=(trial % 3 == 0)
    )
    hatted = hat_function(oracle, frame)
    g_full = gsg(x0, full_bundle.S, oracle)
    g_sub = gsg(np.zeros(spec.d), sub_bundle.S, hatted)
    gap = _rel(
        np.linalg.norm(g_full - frame.Q @ g_sub), np.linalg.norm(g_sub)
    )
    return gap, f"p={sub_bundle.p}"


def _trial_gsh(spec, trial, probes, seed_of):
    oracle, x0, frame, sub_bundle, full_bundle = _simplex_setup(
        spec, shared_inner=(trial % 2 == 0), duplicate_ok=(trial % 5 == 0)
    )
    hatted = hat_function(oracle, frame)
    h_full = gsh(x0, full_bundle, oracle)
    h_sub = gsh(np.zeros(spec.d), sub_bundle, hatted)
    gap = _rel(
        np.linalg.norm(h_full - frame.Q @ h_sub @ frame.Q.T),
        np.linalg.norm(h_sub),
    )
    shape = "shared" if sub_bundle.shared else "blocks"
    return gap, f"p={sub_bundle.p} {shape}"


def _trial_qgsd(spec, trial, probes, seed_of, variant):
    refined = variant == "refined"
    oracle, x0, frame, sub_bundle, full_bundle = _simplex_setup(
        spec,
        shared_inner=(trial % 2 == 0),
        duplicate_ok=False,
        refined=refined,
    )
    hatted = hat_function(oracle, frame)
    full = fit_qgsd(x0, full_bundle, oracle, variant=variant)
    sub = fit_qgsd(np.zeros(spec.d), sub_bundle, hatted, variant=variant)
    g_gap = _rel(
        np.linalg.norm(full.model.g - frame.Q @ sub.model.g),
        np.linalg.norm(sub.model.g),
    )
    h_gap = _rel(
        np.linalg.norm(
            full.model.H - frame.Q @ sub.model.H @ frame.Q.T
        ),
        np.linalg.norm(sub.model.H),
    )
    report = coincidence_check(
        full.model, sub.model, frame, probes=probes, seed=seed_of("probes")
    )
    on_gap, off_gap = _value_gaps(report)
    gap = max(g_gap, h_gap, on_gap, off_gap)
    detail = (
        f"g={g_gap:.2e} H={h_gap:.2e} on={on_gap:.2e} off={off_gap:.2e}"
    )
    return gap, detail


def _trial_qgsd_both(spec, trial, probes, seed_of):
    """Both variants on the same dimensions."""
    gap_s, detail_s = _trial_qgsd(spec, trial, probes, seed_of, "simple")
    gap_r, detail_r = _trial_qgsd(spec, trial, probes, seed_of, "refined")
    return max(gap_s, gap_r), f"simple[{detail_s}] refined[{detail_r}]"


#: Suite name -> trial function; ``qgsd`` runs both variants per trial.
_TRIALS = {
    "mn": _trial_mn,
    "dqi": partial(_trial_mn, determined=True),
    "mfn": _trial_mfn,
    "lfu": _trial_lfu,
    "gsg": _trial_gsg,
    "gsh": _trial_gsh,
    "qgsd-simple": partial(_trial_qgsd, variant="simple"),
    "qgsd-refined": partial(_trial_qgsd, variant="refined"),
    "qgsd": _trial_qgsd_both,
}


def run_suite(theorem: str, trials: int,
              n_range=(3, 30), d_range=(1, 6),
              tol: float = 1e-8, seed: int = 0,
              probes: int = 8) -> SuiteResult:
    """Run one verification suite and collect per-trial records.

    ``theorem`` identifies the conversion being verified: one of
    ``mn``, ``dqi``, ``mfn``, ``lfu``, ``gsg``, ``gsh``, ``qgsd``
    (both variants per trial), ``qgsd-simple``, ``qgsd-refined``.
    A trial fails when its worst normalized gap exceeds ``tol``.
    """
    theorem = str(theorem).lower()
    if theorem not in _TRIALS:
        raise UnknownTheoremError(
            f"unknown suite {theorem!r}; expected one of "
            f"{sorted(_TRIALS)}"
        )
    run_trial = _TRIALS[theorem]
    records = []
    for trial in range(int(trials)):
        seed_of = partial(child_seed, seed, theorem, trial)
        dim_rng = np.random.default_rng(seed_of("dims"))
        n, d, m = _draw_dims(dim_rng, n_range, d_range, theorem == "dqi")
        spec = InstanceSpec(
            n=n, d=d, m=m, function_class=_function_class(trial),
            seed=seed_of("instance"),
        )
        gap, detail = run_trial(spec, trial, probes, seed_of)
        records.append(TrialRecord(
            suite=theorem, trial=trial, n=spec.n, d=spec.d, m=spec.m,
            function_class=spec.function_class,
            gap=float(gap), passed=bool(gap <= tol), detail=detail,
        ))
    failures = sum(1 for rec in records if not rec.passed)
    max_gap = max((rec.gap for rec in records), default=0.0)
    return SuiteResult(
        theorem=theorem, trials=int(trials), failures=failures,
        max_gap=float(max_gap), tol=float(tol), seed=int(seed),
        records=records,
    )


def run_all(trials: int, n_range=(3, 30), d_range=(1, 6),
            tol: float = 1e-8, seed: int = 0,
            probes: int = 8) -> list[SuiteResult]:
    """Run every positive suite with shared settings."""
    return [
        run_suite(name, trials, n_range, d_range, tol, seed, probes)
        for name in SUITES
    ]


def negative_controls(seed: int = 0, trials: int = 100,
                      tol: float = 1e-8, probes: int = 8,
                      n_range=(3, 12), d_range=(1, 6)) -> SuiteResult:
    """Instances that must violate off-subspace coincidence, plus controls.

    Records, in order: the fixed worked instance (its one off-plane probe
    gap must be exactly 1/2); ``trials`` least-change fits with a random
    full-space reference Hessian (subspace agreement must survive, the
    off-subspace gap must exceed ``10 * tol``); subspace-supported
    references (no off-subspace gap); gradient pairings that break the
    coincidence hypothesis (gap must appear); and minimum-norm instances
    (no construction can break coincidence, so none may appear).
    """
    records = []

    def add(kind, trial, spec, gap, passed, detail):
        records.append(TrialRecord(
            suite=kind, trial=trial,
            n=spec.n if spec else 3, d=spec.d if spec else 2,
            m=spec.m if spec else 3,
            function_class=spec.function_class if spec else "quadratic",
            gap=float(gap), passed=bool(passed), detail=detail,
        ))

    probe_seed0 = child_seed(seed, "negative", 0, "probes")
    gap0, detail0 = _fixed_lfu_gap(probes, probe_seed0)
    add("fixed-lfu", 0, None, gap0, gap0 <= 1e-10, detail0)

    for trial in range(int(trials)):
        dim_rng = np.random.default_rng(
            child_seed(seed, "negative-lfu", trial, "dims")
        )
        n, d, m = _draw_dims(dim_rng, n_range, d_range, determined=False)
        spec = InstanceSpec(
            n=n, d=d, m=m, function_class=_function_class(trial),
            seed=child_seed(seed, "negative-lfu", trial, "instance"),
            rank_floor=CONTROL_RANK_FLOOR,
        )
        _, sample_set, frame = random_instance(spec)
        hatted = hat_sampleset(sample_set, frame)
        href_rng = np.random.default_rng(
            child_seed(seed, "negative-lfu", trial, "href")
        )
        href = linalg.sym_part(href_rng.standard_normal((n, n)))
        full = fit_lfu(sample_set, href)
        sub = fit_lfu(
            hatted, linalg.sym_part(frame.Q.T @ href @ frame.Q)
        )
        report = coincidence_check(
            full.model, sub.model, frame, probes=probes,
            seed=child_seed(seed, "negative-lfu", trial, "probes"),
        )
        separated = report.orthogonal_value_gap > 10.0 * tol
        agrees_on = report.subspace_value_gap <= tol
        add(
            "lfu-random", trial, spec, report.orthogonal_value_gap,
            separated and agrees_on,
            f"on={report.subspace_value_gap:.2e} "
            f"off={report.orthogonal_value_gap:.2e}",
        )

        if trial % 5 == 0:
            supported = linalg.sym_part(
                frame.Q @ linalg.sym_part(
                    href_rng.standard_normal((d, d))
                ) @ frame.Q.T
            )
            full2 = fit_lfu(sample_set, supported)
            sub2 = fit_lfu(
                hatted, linalg.sym_part(frame.Q.T @ supported @ frame.Q)
            )
            report2 = coincidence_check(
                full2.model, sub2.model, frame, probes=probes,
                seed=child_seed(seed, "negative-lfu", trial, "ctrl"),
            )
            off2 = _rel(report2.orthogonal_value_gap, report2.value_scale)
            add(
                "lfu-supported", trial, spec, off2, off2 <= tol,
                "supported reference keeps coincidence",
            )

    for trial in range(max(1, int(trials) // 5)):
        dim_rng = np.random.default_rng(
            child_seed(seed, "negative-mfn", trial, "dims")
        )
        n, d, _ = _draw_dims(dim_rng, n_range, (2, d_range[1]),
                             determined=False)
        d = max(2, d)
        m = max(1, d - 1)  # under-determined: the subspace gradient
        # itself is ambiguous, so a mismatched pairing exists
        spec = InstanceSpec(
            n=n, d=d, m=m, function_class=_function_class(trial),
            seed=child_seed(seed, "negative-mfn", trial, "instance"),
            rank_floor=CONTROL_RANK_FLOOR,
        )
        _, sample_set, frame = random_instance(spec)
        hatted = hat_sampleset(sample_set, frame)
        full = fit_mfn(sample_set)
        sub = fit_mfn(hatted)
        amb_sub = sub.gradients.ambiguity_basis
        if amb_sub.shape[1] == 0:
            add("mfn-mismatch", trial, spec, float("inf"), False,
                "expected an ambiguous subspace gradient")
            continue
        scale = max(1.0, float(np.linalg.norm(sub.gradients.canonical)))
        # a *different* subspace member than the one the sub model uses,
        # shifted off the subspace: the pairing hypothesis fails
        bad_gradient = (
            frame.Q @ (sub.gradients.canonical + scale * amb_sub[:, 0])
            + scale * frame.complement[:, 0]
        )
        bad_model = QuadraticModel(
            sample_set.x0, full.model.c, bad_gradient, full.model.H
        )
        report = coincidence_check(
            bad_model, sub.model, frame, probes=probes,
            seed=child_seed(seed, "negative-mfn", trial, "probes"),
        )
        add(
            "mfn-mismatch", trial, spec, report.orthogonal_value_gap,
            report.orthogonal_value_gap > 10.0 * tol,
            f"off={report.orthogonal_value_gap:.2e}",
        )

    for trial in range(max(1, int(trials) // 5)):
        seed_of = partial(child_seed, seed, "negative-mn", trial)
        dim_rng = np.random.default_rng(seed_of("dims"))
        n, d, m = _draw_dims(dim_rng, n_range, d_range, determined=False)
        spec = InstanceSpec(
            n=n, d=d, m=m, function_class=_function_class(trial),
            seed=seed_of("instance"),
        )
        gap, detail = _trial_mn(spec, trial, probes, seed_of)
        add("mn-absence", trial, spec, gap, gap <= tol, detail)

    failures = sum(1 for rec in records if not rec.passed)
    max_gap = max((rec.gap for rec in records), default=0.0)
    return SuiteResult(
        theorem="negative", trials=len(records), failures=failures,
        max_gap=float(max_gap), tol=float(tol), seed=int(seed),
        records=records,
    )
