"""Randomized verification of the full-space/subspace conversion formulas.

Each suite draws seeded random instances whose displacements live in a
``d``-dimensional subspace of R^n, fits the relevant objects both in full
space and in the subspace, converts one to the other, and records the worst
normalized mismatch. ``negative_controls`` builds instances that *must*
disagree off the subspace (least-change fits with a reference Hessian that
is not subspace-supported, and gradient pairings that break the coincidence
hypothesis) and asserts a clean separation from the passing gaps.

The full-space side of the ``mn``, ``mfn`` and ``lfu`` suites is the dense
reference solve, not the span route that ``fit_mn``, ``fit_mfn`` and
``fit_lfu`` take in production: that route is itself a subspace fit and
lift, so it would be checked against itself. Each trial's gap also covers
the production full-space fit against the reference.

Trials are independent: trial ``t`` of a family labelled ``label`` draws
everything from child seeds ``(seed, label, t, part)``, so results are
reproducible and order-independent. One loop, ``_trials``, serves every
suite and negative-control family. A new per-trial draw (a sample radius,
say) is a new ``InstanceSpec`` field seeded there from a new part, and a
new tier (a few large-``n`` trials) is one more ``_run_rows`` row with its
own label and ranges, so every existing draw is kept.

Within a trial the value probes (``bridge.coincidence_check``) and the
gradient-family membership samples each come from one draw and are checked
one product per probe set. A trial's gap is the worst of its parts, and a
NaN part is the worst wherever it sits, so it fails the trial.
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
from .models import (
    QuadraticModel,
    _reference_fit,
    fit_dqi,
    fit_lfu,
    fit_mfn,
    fit_mn,
)
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

#: Default tolerance on a trial's worst normalized gap.
VERIFY_TOL = 1e-8

#: Largest stencil conditioning ``kappa(S) kappa(T)`` a gsh or qgsd trial
#: keeps, with ``kappa`` over the singular values the solves keep and
#: ``kappa(T)`` the largest over inner blocks. The two pseudo-inverse
#: solves of a simplex Hessian amplify the rounding of the function values
#: by about that product: each route's Hessian misses the exact one by
#: ``c eps kappa(S) kappa(T)``, with ``c`` below 7.3 on the suites' draws
#: where the product exceeds 1e3. The bound (about 7e5) holds
#: ``eps kappa(S) kappa(T)`` 64 times below ``VERIFY_TOL``, so that miss
#: stays 8 times below it. Only a stencil above it is redrawn, so every
#: other trial keeps its draw.
STENCIL_CONDITION_MAX = VERIFY_TOL / (64 * linalg.EPS)


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
        """Counts of trial gaps per decade (keys like '1e-12..1e-11'), with
        keys ``"0"``, ``"inf"`` and ``"nan"`` for the gaps outside them."""
        counts: dict[str, int] = {}
        for rec in self.records:
            if rec.gap <= 0.0:
                key = "0"
            elif not np.isfinite(rec.gap):
                key = "nan" if np.isnan(rec.gap) else "inf"
            else:
                exp = int(np.floor(np.log10(rec.gap)))
                key = f"1e{exp}..1e{exp + 1}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def child_seed(seed: int, *path) -> int:
    """Stable per-trial seed derived from a master seed and a label path.

    Strings enter as their CRC-32, a non-negative integer as it is and a
    negative one as its residue modulo ``2**64``, so distinct non-negative
    master seeds run distinct trials."""
    entropy = [int(seed)] + [
        zlib.crc32(part.encode()) if isinstance(part, str) else int(part)
        for part in path
    ]
    sequence = np.random.SeedSequence(
        [word if word >= 0 else word % 2**64 for word in entropy]
    )
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


def _draw_dims(rng, n_range, d_range, determined: bool = False):
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d_hi = max(1, min(n - 1, d_range[1]))
    d_lo = min(max(1, d_range[0]), d_hi)
    d = int(rng.integers(d_lo, d_hi + 1))
    cap = d * (d + 3) // 2
    m = cap if determined else int(rng.integers(1, cap + 1))
    return n, d, m


def _underdetermined_dims(rng, n_range, d_range):
    """``d >= 2`` and ``m = d - 1``: the subspace gradient itself is then
    ambiguous, so a mismatched pairing exists."""
    n, d, _ = _draw_dims(rng, n_range, (2, d_range[1]))
    d = max(2, d)
    return n, d, d - 1


def _function_class(trial: int) -> str:
    return "quadratic" if trial % 2 == 0 else "trig"


def _trials(seed, label, count, dims, rank_floor):
    """Yield ``(trial, seed_of, spec)`` for ``count`` trials of a family;
    ``seed_of(part)`` is the child seed ``(seed, label, trial, part)``."""
    for trial in range(count):
        seed_of = partial(child_seed, seed, label, trial)
        n, d, m = dims(np.random.default_rng(seed_of("dims")))
        spec = InstanceSpec(
            n=n, d=d, m=m, function_class=_function_class(trial),
            seed=seed_of("instance"), rank_floor=rank_floor,
        )
        yield trial, seed_of, spec


def _run_rows(theorem, rows, seed, trials, n_range, d_range, tol, probes):
    """One ``SuiteResult`` of every trial of every row, in order.

    A row ``(label, count, dims, rank_floor, judge)`` draws ``count(trials)``
    trials from ``_trials`` with ``dims(rng, n_range, d_range)``; ``judge``
    yields each trial's ``(suite, gap, passed, detail)`` records. A run
    of fewer than one trial would pass vacuously, so it is refused.
    """
    if int(trials) < 1:
        raise SpecInfeasibleError(
            f"suite {theorem!r} needs at least 1 trial, got {trials}"
        )
    records = []
    for label, count, dims, rank_floor, judge in rows:
        draw = partial(dims, n_range=n_range, d_range=d_range)
        family = _trials(seed, label, count(int(trials)), draw, rank_floor)
        for trial, seed_of, spec in family:
            for suite, gap, passed, detail in judge(
                spec, trial, probes, seed_of, tol
            ):
                records.append(TrialRecord(
                    suite=suite, trial=trial, n=spec.n, d=spec.d, m=spec.m,
                    function_class=spec.function_class,
                    gap=float(gap), passed=bool(passed), detail=detail,
                ))
    return SuiteResult(
        theorem=theorem, trials=len(records),
        failures=sum(1 for rec in records if not rec.passed),
        max_gap=float(np.max([rec.gap for rec in records], initial=0.0)),
        tol=float(tol), seed=int(seed), records=records,
    )


def _judged(suite, run_trial):
    """A row's judge for a ``(gap, detail)`` trial function: a trial
    passes at ``gap <= tol``."""
    def judge(spec, trial, probes, seed_of, tol):
        gap, detail = run_trial(spec, trial, probes, seed_of)
        yield suite, gap, gap <= tol, detail
    return judge


def _worst(*gaps):
    """``(worst, detail)`` of ordered ``(name, gap)`` pairs; a pair named
    ``None`` counts toward the worst but is not shown. A NaN gap is the
    worst."""
    worst = float(np.max([gap for _, gap in gaps]))
    detail = " ".join(
        f"{name}={gap:.2e}" for name, gap in gaps if name is not None
    )
    return worst, detail


def _value_gaps(full, sub, frame, probes, seed):
    """Normalized on- and off-subspace value gaps between two models."""
    report = coincidence_check(full, sub, frame, probes=probes, seed=seed)
    on = _rel(report.subspace_value_gap, report.value_scale)
    return on, _rel(report.orthogonal_value_gap, report.value_scale)


def _fit_gaps(a, b, g_scale, h_scale):
    """Normalized ``(g, H)`` gaps between two fits' canonical gradients and
    Hessians."""
    g_gap = np.linalg.norm(a.gradients.canonical - b.gradients.canonical)
    h_gap = np.linalg.norm(a.model.H - b.model.H)
    return _rel(g_gap, g_scale), _rel(h_gap, h_scale)


def _family_membership_gap(full, sub, frame, rng, samples=20):
    """Worst two-way membership residual between the gradient families.

    The ``samples`` draws come from one ``standard_normal`` call whose
    rows hold, in the stream order of one draw each per sample, the
    full-space coefficients, the subspace coefficients and the orthogonal
    shift; each direction is checked for every sample in one product.
    """
    basis, complement = frame.Q, frame.complement
    amb_full = full.gradients.ambiguity_basis
    amb_sub = sub.gradients.ambiguity_basis
    scale = max(1.0, float(np.linalg.norm(sub.gradients.canonical)))
    widths = (amb_full.shape[1], amb_sub.shape[1], complement.shape[1])
    draws = scale * rng.standard_normal((samples, sum(widths)))
    coeffs, chat, shift = np.split(
        draws, [widths[0], widths[0] + widths[1]], axis=1
    )
    # full-space member -> its subspace part must be a subspace member
    members = full.gradients.canonical + coeffs @ amb_full.T
    down = members @ basis - sub.gradients.canonical
    down = down - (down @ amb_sub) @ amb_sub.T
    # subspace member plus any orthogonal shift -> full-space member
    lifted = (sub.gradients.canonical + chat @ amb_sub.T) @ basis.T
    up = lifted + shift @ complement.T - full.gradients.canonical
    up = up - (up @ amb_full) @ amb_full.T
    residuals = np.concatenate(
        [np.linalg.norm(down, axis=1), np.linalg.norm(up, axis=1)]
    )
    return float(np.max(residuals / scale, initial=0.0))


# Every suite's trial function takes ``(spec, trial, probes, seed_of)``
# and returns ``(gap, detail)``; ``_judged`` turns it into a row's judge.


def _trial_mn(spec, trial, probes, seed_of, determined=False):
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    full = _reference_fit("mn", sample_set)
    sub = fit_dqi(hatted) if determined else fit_mn(hatted)
    lifted = lift_mn(sub, frame)
    g_scale = np.linalg.norm(sub.gradients.canonical)
    h_scale = np.linalg.norm(sub.model.H)
    g_gap, h_gap = _fit_gaps(full, lifted, g_scale, h_scale)
    route_gap = np.max(
        _fit_gaps(fit_mn(sample_set), full, g_scale, h_scale)
    )
    on_gap, off_gap = _value_gaps(
        full.model, sub.model, frame, probes, seed_of("probes")
    )
    return _worst(
        ("g", g_gap), ("H", h_gap), ("route", route_gap), ("on", on_gap),
        ("off", off_gap),
    )


def _trial_mfn(spec, trial, probes, seed_of):
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    full = _reference_fit("mfn", sample_set)
    sub = fit_mfn(hatted)
    lifted = lift_mfn(sub, frame)
    if full.gradients.dim != lifted.gradients.dim:
        return float("inf"), (
            f"ambiguity dimension mismatch: fit {full.gradients.dim}, "
            f"lift {lifted.gradients.dim}"
        )
    g_scale = np.linalg.norm(sub.gradients.canonical)
    h_scale = np.linalg.norm(sub.model.H)
    g_gap, h_gap = _fit_gaps(full, lifted, g_scale, h_scale)
    route_gap = np.max(
        _fit_gaps(fit_mfn(sample_set), full, g_scale, h_scale)
    )
    member_rng = np.random.default_rng(seed_of("members"))
    member_gap = _family_membership_gap(full, sub, frame, member_rng)
    on_gap, off_gap = _value_gaps(
        full.model, sub.model, frame, probes, seed_of("probes")
    )
    return _worst(
        ("H", h_gap), ("g", g_gap), ("route", route_gap), ("fam", member_gap),
        ("on", on_gap), ("off", off_gap),
    )


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
    return float(np.max(gaps)), "fixed worked instance"


def _reference_pair(rng, frame, supported: bool):
    """A random symmetric reference Hessian and its subspace restriction.

    With ``supported`` it is ``Q R Qᵀ`` for a random ``d x d`` ``R``, so
    the least-change fits must also agree off the subspace.
    """
    if supported:
        inner = linalg.sym_part(rng.standard_normal((frame.d, frame.d)))
        href = linalg.sym_part(frame.Q @ inner @ frame.Q.T)
    else:
        href = linalg.sym_part(rng.standard_normal((frame.n, frame.n)))
    return href, linalg.sym_part(frame.Q.T @ href @ frame.Q)


def _trial_lfu(spec, trial, probes, seed_of):
    probe_seed = seed_of("probes")
    if trial == 0:
        return _fixed_lfu_gap(probes, probe_seed)
    href_rng = np.random.default_rng(seed_of("href"))
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    href, href_hat = _reference_pair(href_rng, frame, supported=False)
    full = _reference_fit("lfu", sample_set, href)
    sub = fit_lfu(hatted, href_hat)
    lifted = lift_lfu(sub, frame, href)
    g_scale = np.linalg.norm(sub.gradients.canonical)
    h_scale = max(np.linalg.norm(sub.model.H), np.linalg.norm(href))
    g_gap, h_gap = _fit_gaps(full, lifted, g_scale, h_scale)
    restrict_gap = _rel(
        np.linalg.norm(frame.Q.T @ full.model.H @ frame.Q - sub.model.H),
        np.linalg.norm(sub.model.H),
    )
    route_gap = np.max(
        _fit_gaps(fit_lfu(sample_set, href), full, g_scale, h_scale)
    )
    member_rng = np.random.default_rng(seed_of("members"))
    member_gap = _family_membership_gap(full, sub, frame, member_rng)
    on_gap, _ = _value_gaps(full.model, sub.model, frame, probes, probe_seed)

    # With a subspace-supported reference the models must also agree off
    # the subspace.
    supported, supported_hat = _reference_pair(href_rng, frame, supported=True)
    full2 = _reference_fit("lfu", sample_set, supported)
    sub2 = fit_lfu(hatted, supported_hat)
    on2, off2 = _value_gaps(
        full2.model, sub2.model, frame, probes, probe_seed + 1
    )
    return _worst(
        ("H", h_gap), ("QtHQ", restrict_gap), ("g", g_gap),
        ("route", route_gap), ("fam", member_gap), ("on", on_gap),
        (None, on2), ("supported-off", off2),
    )


def _draw_direction_block(rng, d, allow_duplicate, rank_floor):
    """Gaussian ``d x p`` direction block, ``1 <= p <= d + 1``, and its
    condition number over the singular values the solves keep (those
    above the default rank cutoff).

    With ``allow_duplicate`` the last column may repeat the first. Blocks
    are redrawn until every kept singular value clears ``rank_floor``
    relative to the largest, so a planted exact duplicate passes and a
    near-degenerate block does not.
    """
    for _ in range(256):
        p = int(rng.integers(1, d + 2))
        block = rng.standard_normal((d, p))
        if allow_duplicate and p >= 2 and rng.random() < 0.5:
            block[:, -1] = block[:, 0]
        sigma = np.linalg.svd(block, compute_uv=False)
        kept = linalg.numerical_rank(sigma, linalg.default_rank_tol(d, p))
        if linalg.numerical_rank(sigma, rank_floor) == kept:
            return block, sigma[0] / sigma[kept - 1]
    raise SpecInfeasibleError("could not draw a well-conditioned block")


def _draw_stencil(draw_block, shared_inner, refined, bounded):
    """``(S, inner)``: ``inner`` is ``S`` itself (refined), one shared block
    or one block per column of ``S``. With ``bounded`` the stencil is
    redrawn while ``kappa(S) kappa(T)`` exceeds ``STENCIL_CONDITION_MAX``.
    """
    for _ in range(64):
        s_hat, kappa = draw_block()
        if refined:
            inner, inner_kappa = s_hat, kappa
        elif shared_inner:
            inner, inner_kappa = draw_block()
        else:
            drawn = [draw_block() for _ in range(s_hat.shape[1])]
            inner = [block for block, _ in drawn]
            inner_kappa = max(k for _, k in drawn)
        if not bounded or kappa * inner_kappa <= STENCIL_CONDITION_MAX:
            return s_hat, inner
    raise SpecInfeasibleError("could not draw a well-conditioned stencil")


def _simplex_setup(spec, shared_inner, duplicate_ok, refined=False,
                   bounded=True):
    """Oracle, base point, frame and the subspace and full-space bundles
    of a simplex trial; ``bounded`` applies ``STENCIL_CONDITION_MAX``."""
    rng = np.random.default_rng(spec.seed)
    basis = _draw_basis(rng, spec.n, spec.d)
    x0 = rng.standard_normal(spec.n)
    draw_block = partial(
        _draw_direction_block, rng, spec.d, duplicate_ok, spec.rank_floor
    )
    s_hat, inner = _draw_stencil(draw_block, shared_inner, refined, bounded)
    sub_bundle = DirectionBundle(s_hat, inner)
    s_full = basis @ s_hat
    if refined:
        full_bundle = DirectionBundle(s_full, s_full)
    elif shared_inner:
        full_bundle = DirectionBundle(s_full, basis @ inner)
    else:
        full_bundle = DirectionBundle(
            s_full, [basis @ block for block in inner]
        )
    fn = random_function(spec.function_class, spec.n, rng)
    oracle = FunctionOracle(fn, name=spec.function_class, dim=spec.n)
    frame = SubspaceFrame(x0, basis, s_hat.T)
    return oracle, x0, frame, sub_bundle, full_bundle


def _trial_gsg(spec, trial, probes, seed_of):
    # the gradient reads S alone, so T's conditioning does not bound it
    oracle, x0, frame, sub_bundle, full_bundle = _simplex_setup(
        spec, shared_inner=True, duplicate_ok=(trial % 3 == 0),
        bounded=False,
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
    oracle, x0, frame, sub_bundle, full_bundle = _simplex_setup(
        spec, shared_inner=(trial % 2 == 0), duplicate_ok=False,
        refined=variant == "refined",
    )
    hatted = hat_function(oracle, frame)
    full = fit_qgsd(x0, full_bundle, oracle, variant=variant)
    sub = fit_qgsd(np.zeros(spec.d), sub_bundle, hatted, variant=variant)
    q, g, h = frame.Q, sub.model.g, sub.model.H
    g_gap = _rel(np.linalg.norm(full.model.g - q @ g), np.linalg.norm(g))
    h_gap = _rel(np.linalg.norm(full.model.H - q @ h @ q.T), np.linalg.norm(h))
    on_gap, off_gap = _value_gaps(
        full.model, sub.model, frame, probes, seed_of("probes")
    )
    return _worst(("g", g_gap), ("H", h_gap), ("on", on_gap), ("off", off_gap))


def _trial_qgsd_both(spec, trial, probes, seed_of):
    """Both variants on the same dimensions."""
    gap_s, detail_s = _trial_qgsd(spec, trial, probes, seed_of, "simple")
    gap_r, detail_r = _trial_qgsd(spec, trial, probes, seed_of, "refined")
    return (float(np.max((gap_s, gap_r))),
            f"simple[{detail_s}] refined[{detail_r}]")


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
              tol: float = VERIFY_TOL, seed: int = 0,
              probes: int = 8) -> SuiteResult:
    """Run one verification suite and collect per-trial records.

    ``theorem`` identifies the conversion being verified: one of
    ``mn``, ``dqi``, ``mfn``, ``lfu``, ``gsg``, ``gsh``, ``qgsd``
    (both variants per trial), ``qgsd-simple``, ``qgsd-refined``.
    A trial fails when its worst normalized gap exceeds ``tol``;
    ``trials < 1`` raises :class:`SpecInfeasibleError`.
    """
    theorem = str(theorem).lower()
    if theorem not in _TRIALS:
        raise UnknownTheoremError(
            f"unknown suite {theorem!r}; expected one of "
            f"{sorted(_TRIALS)}"
        )
    row = (
        theorem, lambda trials: trials,
        partial(_draw_dims, determined=theorem == "dqi"),
        GENERATION_RANK_FLOOR, _judged(theorem, _TRIALS[theorem]),
    )
    return _run_rows(
        theorem, [row], seed, trials, n_range, d_range, tol, probes
    )


def run_all(trials: int, n_range=(3, 30), d_range=(1, 6),
            tol: float = VERIFY_TOL, seed: int = 0,
            probes: int = 8) -> list[SuiteResult]:
    """Run every positive suite with shared settings."""
    return [
        run_suite(name, trials, n_range, d_range, tol, seed, probes)
        for name in SUITES
    ]


def _control_fixed(spec, trial, probes, seed_of, tol):
    """The worked instance: its one off-plane probe gap must be 1/2."""
    gap, detail = _fixed_lfu_gap(probes, seed_of("probes"))
    yield "fixed-lfu", gap, gap <= 1e-10, detail


def _control_lfu(spec, trial, probes, seed_of, tol):
    """A random full-space reference keeps agreement on the subspace and
    must separate off it; on every fifth trial a subspace-supported
    reference must keep coincidence."""
    _, sample_set, frame = random_instance(spec)
    hatted = hat_sampleset(sample_set, frame)
    href_rng = np.random.default_rng(seed_of("href"))

    def compare(supported, part):
        href, href_hat = _reference_pair(href_rng, frame, supported)
        return coincidence_check(
            fit_lfu(sample_set, href).model, fit_lfu(hatted, href_hat).model,
            frame, probes=probes, seed=seed_of(part),
        )

    report = compare(False, "probes")
    on, off = report.subspace_value_gap, report.orthogonal_value_gap
    yield ("lfu-random", off, off > 10.0 * tol and on <= tol,
           f"on={on:.2e} off={off:.2e}")
    if trial % 5 == 0:
        report = compare(True, "ctrl")
        off = _rel(report.orthogonal_value_gap, report.value_scale)
        yield ("lfu-supported", off, off <= tol,
               "supported reference keeps coincidence")


def _control_mfn(spec, trial, probes, seed_of, tol):
    """Pairing a *different* subspace gradient member, shifted off the
    subspace, with the full model breaks the coincidence hypothesis, so
    a gap must appear."""
    _, sample_set, frame = random_instance(spec)
    full = fit_mfn(sample_set)
    sub = fit_mfn(hat_sampleset(sample_set, frame))
    amb_sub = sub.gradients.ambiguity_basis
    if amb_sub.shape[1] == 0:
        yield ("mfn-mismatch", float("inf"), False,
               "expected an ambiguous subspace gradient")
        return
    scale = max(1.0, float(np.linalg.norm(sub.gradients.canonical)))
    bad_gradient = (
        frame.Q @ (sub.gradients.canonical + scale * amb_sub[:, 0])
        + scale * frame.complement[:, 0]
    )
    bad_model = QuadraticModel(
        sample_set.x0, full.model.c, bad_gradient, full.model.H
    )
    report = coincidence_check(
        bad_model, sub.model, frame, probes=probes, seed=seed_of("probes")
    )
    off = report.orthogonal_value_gap
    yield "mfn-mismatch", off, off > 10.0 * tol, f"off={off:.2e}"


#: The negative-control families in record order, as ``_run_rows`` rows:
#: child-seed label, trial count, dims rule, rank floor, trial function.
_CONTROLS = (
    ("negative", lambda trials: 1,
     lambda rng, n_range, d_range: (3, 2, 3),  # the worked instance
     GENERATION_RANK_FLOOR, _control_fixed),
    ("negative-lfu", lambda trials: trials, _draw_dims, CONTROL_RANK_FLOOR,
     _control_lfu),
    ("negative-mfn", lambda trials: max(1, trials // 5),
     _underdetermined_dims, CONTROL_RANK_FLOOR, _control_mfn),
    ("negative-mn", lambda trials: max(1, trials // 5), _draw_dims,
     GENERATION_RANK_FLOOR, _judged("mn-absence", _trial_mn)),
)


def negative_controls(seed: int = 0, trials: int = 100,
                      tol: float = VERIFY_TOL, probes: int = 8,
                      n_range=(3, 12), d_range=(1, 6)) -> SuiteResult:
    """Instances that must violate off-subspace coincidence, plus controls.

    Records, in order: the fixed worked instance (its one off-plane probe
    gap must be exactly 1/2); ``trials`` least-change fits with a random
    full-space reference Hessian (subspace agreement must survive, the
    off-subspace gap must exceed ``10 * tol``), each fifth one followed by
    a subspace-supported reference (no off-subspace gap); gradient
    pairings that break the coincidence hypothesis (gap must appear); and
    minimum-norm instances (no construction can break coincidence, so
    none may appear). ``trials < 1`` raises :class:`SpecInfeasibleError`.
    """
    return _run_rows(
        "negative", _CONTROLS, seed, trials, n_range, d_range, tol, probes
    )
