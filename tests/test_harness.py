"""Randomized verification harness: determinism, instance quality,
suite plumbing and the negative controls."""

import zlib
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from subquad import harness, linalg
from subquad.errors import SpecInfeasibleError, UnknownTheoremError
from subquad.geometry import SubspaceFrame, detect_subspace, hat_function
from subquad.models import GradientFamily
from subquad.harness import (
    GENERATION_RANK_FLOOR,
    STENCIL_CONDITION_MAX,
    SUITES,
    VERIFY_TOL,
    InstanceSpec,
    SuiteResult,
    TrialRecord,
    child_seed,
    negative_controls,
    random_instance,
    run_all,
    run_suite,
)
from subquad.simplex import fit_qgsd


class TestInstanceGeneration:
    def test_dimensions_respected(self):
        spec = InstanceSpec(n=7, d=3, m=5, function_class="quadratic", seed=11)
        oracle, sample_set, frame = random_instance(spec)
        assert sample_set.n == 7
        assert sample_set.m == 5
        assert frame.d == 3
        assert oracle.count == 6  # one evaluation per point

    def test_displacements_live_in_the_frame(self):
        spec = InstanceSpec(n=9, d=2, m=4, function_class="trig", seed=3)
        _, sample_set, frame = random_instance(spec)
        recon = sample_set.displacements @ frame.Q @ frame.Q.T
        np.testing.assert_allclose(recon, sample_set.displacements, atol=1e-12)
        detected = detect_subspace(sample_set)
        assert detected.d == 2

    def test_constraint_matrix_well_conditioned(self):
        from subquad.geometry import quadratic_constraint_matrix
        from subquad.harness import GENERATION_RANK_FLOOR

        for seed in range(5):
            spec = InstanceSpec(n=6, d=3, m=9, function_class="cubic", seed=seed)
            _, sample_set, frame = random_instance(spec)
            dhat = sample_set.displacements @ frame.Q
            sigma = np.linalg.svd(
                quadratic_constraint_matrix(dhat), compute_uv=False
            )
            assert sigma[-1] > GENERATION_RANK_FLOOR * sigma[0]

    def test_impossible_spec_rejected(self):
        with pytest.raises(SpecInfeasibleError):
            InstanceSpec(n=3, d=4, m=2, function_class="quadratic", seed=0)
        with pytest.raises(SpecInfeasibleError):
            InstanceSpec(n=5, d=2, m=6, function_class="quadratic", seed=0)
        with pytest.raises(SpecInfeasibleError):
            InstanceSpec(n=5, d=2, m=0, function_class="quadratic", seed=0)
        with pytest.raises(SpecInfeasibleError):
            InstanceSpec(n=5, d=2, m=3, function_class="galaxy", seed=0)


class TestSeeding:
    def test_child_seed_is_stable(self):
        assert child_seed(42, "mn", 3, "dims") == child_seed(42, "mn", 3, "dims")

    def test_child_seed_separates_paths(self):
        seen = {
            child_seed(42, suite, trial, part)
            for suite in ("mn", "mfn")
            for trial in range(10)
            for part in ("dims", "instance")
        }
        assert len(seen) == 40

    def test_same_seed_bit_identical_runs(self):
        a = run_suite("mfn", 6, seed=123)
        b = run_suite("mfn", 6, seed=123)
        assert [r.gap for r in a.records] == [r.gap for r in b.records]
        assert [r.detail for r in a.records] == [r.detail for r in b.records]

    def test_different_seeds_differ(self):
        a = run_suite("mn", 6, seed=1)
        b = run_suite("mn", 6, seed=2)
        assert [r.gap for r in a.records] != [r.gap for r in b.records]

    @pytest.mark.parametrize("seed", [0, 5, 42, 2**31 - 1])
    def test_seeds_below_2_31_keep_their_child_seeds(self, seed):
        """The derivation every recorded run below ``2**31`` used: each
        integer masked to 31 bits."""
        mask = (1 << 31) - 1
        entropy = [seed & mask, zlib.crc32(b"mn"), 3 & mask,
                   zlib.crc32(b"dims")]
        want = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
        assert child_seed(seed, "mn", 3, "dims") == int(want[0])

    def test_seeds_2_31_apart_run_different_trials(self):
        a = run_suite("mn", 3, seed=5)
        b = run_suite("mn", 3, seed=5 + 2**31)
        assert a.records != b.records
        assert child_seed(-3, "mn") == child_seed(2**64 - 3, "mn")


class TestSuites:
    @pytest.mark.parametrize("theorem", SUITES)
    def test_each_suite_passes_briefly(self, theorem):
        result = run_suite(theorem, 12, seed=5)
        assert result.theorem == theorem
        assert result.trials == 12
        assert result.failures == 0, [
            (r.trial, r.detail) for r in result.records if not r.passed
        ]
        assert result.max_gap < result.tol

    def test_simplex_directions_respect_rank_floor(self):
        """Trial 4 of this seed once drew a 6x6 outer block with
        sigma_min / sigma_max = 6.6e-5, under the generation floor, and
        failed at the default tolerance."""
        assert run_suite("qgsd-refined", 8, seed=620200591).passed

    def test_combined_qgsd_alias(self):
        result = run_suite("qgsd", 6, seed=5)
        assert result.failures == 0

    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheoremError):
            run_suite("fermat", 3)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_vacuous_runs_are_refused(self, trials):
        """No trials would pass every check; library callers get the typed
        error the CLI's usage check stands in for."""
        with pytest.raises(SpecInfeasibleError, match="at least 1 trial"):
            run_suite("mn", trials)
        with pytest.raises(SpecInfeasibleError, match="at least 1 trial"):
            negative_controls(trials=trials)
        with pytest.raises(SpecInfeasibleError):
            run_all(trials)

    def test_records_carry_instance_fingerprint(self):
        result = run_suite("gsg", 5, seed=8)
        for record in result.records:
            assert record.n >= record.d >= 1
            assert record.function_class in ("quadratic", "trig")
            assert record.gap >= 0.0

    def test_gap_histogram_buckets_everything(self):
        result = run_suite("mn", 15, seed=2)
        hist = result.gap_histogram()
        assert sum(hist.values()) == 15

    def test_run_all_covers_every_suite(self):
        results = run_all(trials=3, seed=4)
        assert [r.theorem for r in results] == list(SUITES)
        assert all(r.passed for r in results)

    def test_impossible_tolerance_fails(self):
        result = run_suite("mfn", 4, seed=6, tol=1e-18)
        assert not result.passed
        assert result.failures > 0


#: ``verify --theorem all --trials 8 --seed 1150656756``: trial 6 of its
#: qgsd-refined suite drew a 3 x 3 ``S = T`` with ``kappa(S) = 6.0e3``.
ILL_CONDITIONED_SEED = 1150656756


def _refined_trial(trial):
    """``(spec, seed_of)`` of one qgsd-refined trial at that seed."""
    draw = partial(harness._draw_dims, n_range=(3, 30), d_range=(1, 6))
    for index, seed_of, spec in harness._trials(
        ILL_CONDITIONED_SEED, "qgsd-refined", 8, draw, GENERATION_RANK_FLOOR
    ):
        if index == trial:
            return spec, seed_of
    raise AssertionError(trial)


def _kept_condition(block):
    """Condition number over the singular values ``pinv_apply`` keeps."""
    sigma = np.linalg.svd(block, compute_uv=False)
    kept = linalg.numerical_rank(sigma, linalg.default_rank_tol(*block.shape))
    return sigma[0] / sigma[kept - 1]


class TestStencilConditioning:
    """A simplex Hessian's two pseudo-inverse solves amplify rounding by
    ``kappa(S) kappa(T)``; stencils above ``STENCIL_CONDITION_MAX`` are
    redrawn, and every other trial keeps its draw."""

    def test_bound_comes_from_the_tolerance(self):
        assert STENCIL_CONDITION_MAX == VERIFY_TOL / (64 * linalg.EPS)
        assert 7e5 < STENCIL_CONDITION_MAX < 7.1e5

    def test_failing_trial_is_input_conditioning(self, monkeypatch):
        monkeypatch.setattr(harness, "STENCIL_CONDITION_MAX", np.inf)
        spec, _ = _refined_trial(6)
        assert (spec.n, spec.d, spec.m) == (11, 3, 5)
        oracle, x0, frame, sub_bundle, full_bundle = harness._simplex_setup(
            spec, shared_inner=True, duplicate_ok=False, refined=True
        )
        kappa = np.linalg.cond(sub_bundle.S)
        assert sub_bundle.S.shape == (3, 3) and 5.9e3 < kappa < 6.1e3
        assert kappa**2 > STENCIL_CONDITION_MAX
        q = frame.Q
        exact = q.T @ oracle._fn.hessian() @ q
        full = fit_qgsd(x0, full_bundle, oracle, variant="refined")
        sub = fit_qgsd(np.zeros(3), sub_bundle,
                               hat_function(oracle, frame), variant="refined")
        scale = np.linalg.norm(sub.model.H)
        misses = [np.linalg.norm(h - exact) / scale
                  for h in (q.T @ full.model.H @ q, sub.model.H)]
        rounding = linalg.EPS * kappa**2
        # each route misses the exact Hessian by a few eps kappa^2 ...
        assert 1.4e-8 < misses[0] < 1.6e-8 and 8e-9 < misses[1] < 9.5e-9
        assert all(rounding < miss < 6 * rounding for miss in misses)
        # ... and the reported gap is their difference: it lies between
        # the difference and the sum of the misses, up to the rounding of
        # the norms themselves
        gap = np.linalg.norm(full.model.H - q @ sub.model.H @ q.T) / scale
        slack = 64 * linalg.EPS
        assert abs(misses[0] - misses[1]) - slack <= gap
        assert gap <= misses[0] + misses[1] + slack and gap > VERIFY_TOL
        result = run_suite("qgsd-refined", 8, seed=ILL_CONDITIONED_SEED)
        assert [r.trial for r in result.records if not r.passed] == [6]

    def test_bound_redraws_only_the_ill_conditioned_trial(self, monkeypatch):
        bounded = run_suite("qgsd-refined", 8, seed=ILL_CONDITIONED_SEED)
        monkeypatch.setattr(harness, "STENCIL_CONDITION_MAX", np.inf)
        unbounded = run_suite("qgsd-refined", 8, seed=ILL_CONDITIONED_SEED)
        assert bounded.passed and bounded.max_gap < 1e-13
        changed = [a.trial for a, b in zip(bounded.records, unbounded.records)
                   if a != b]
        assert changed == [6]

    @pytest.mark.parametrize("theorem", ["gsh", "qgsd-simple",
                                         "qgsd-refined"])
    def test_kept_stencils_are_within_the_bound(self, theorem):
        draw = partial(harness._draw_dims, n_range=(3, 30), d_range=(1, 6))
        for seed in range(40):
            for trial, _, spec in harness._trials(
                seed, theorem, 8, draw, GENERATION_RANK_FLOOR
            ):
                bundle = harness._simplex_setup(
                    spec, shared_inner=trial % 2 == 0,
                    duplicate_ok=theorem == "gsh" and trial % 5 == 0,
                    refined=theorem == "qgsd-refined",
                )[3]
                condition = _kept_condition(bundle.S) * max(
                    map(_kept_condition, bundle.blocks)
                )
                assert condition <= STENCIL_CONDITION_MAX


class TestKnownMfnFailures:
    """Two seeds whose mfn draws clear ``GENERATION_RANK_FLOOR`` only
    narrowly fail one trial each. Strict: once the mfn kernel stops
    squaring the conditioning, both pass and the marker must go."""

    @pytest.mark.xfail(strict=True, reason=(
        "mfn multiplier system uses A = Phi Phi^T / 2, which squares "
        "kappa(Phi): kappa(KKT) is 8.2e7 (seed 665756389, trial 4, n = 27) "
        "and 2.5e8 (seed 1592229349, trial 0, n = 4); eps kappa(KKT), "
        "1.8e-8 and 5.6e-8, is the size of the 1.6e-8 and 1.8e-8 gaps"
    ))
    @pytest.mark.parametrize("seed", [665756389, 1592229349])
    def test_seed_passes(self, seed):
        assert run_suite("mfn", 8, seed=seed).passed


class TestNegativeControls:
    def test_controls_pass_with_margin(self):
        result = negative_controls(seed=0, trials=30)
        assert result.passed
        names = {r.suite for r in result.records}
        assert {
            "fixed-lfu", "lfu-random", "lfu-supported",
            "mfn-mismatch", "mn-absence",
        } == names

    def test_planted_gaps_are_large(self):
        """The point of the controls: genuinely different models must
        produce gaps orders of magnitude above the tolerance."""
        result = negative_controls(seed=1, trials=25, tol=1e-8)
        planted = [
            r for r in result.records
            if r.suite in ("lfu-random", "mfn-mismatch")
        ]
        assert planted
        assert min(r.gap for r in planted) > 1e-4

    def test_deterministic(self):
        a = negative_controls(seed=3, trials=10)
        b = negative_controls(seed=3, trials=10)
        assert [r.gap for r in a.records] == [r.gap for r in b.records]

    @pytest.mark.parametrize("trials", [1, 4, 5, 8, 11])
    def test_record_layout(self, trials):
        """The fixed instance, then each random reference followed on every
        fifth trial by its supported one, then the mfn mismatches, then the
        mn absences; trial numbers restart per family."""
        result = negative_controls(seed=2, trials=trials)
        fifth = max(1, trials // 5)
        assert len(result.records) == (
            1 + trials + len(range(0, trials, 5)) + 2 * fifth
        )
        expected = [("fixed-lfu", 0)]
        for trial in range(trials):
            expected.append(("lfu-random", trial))
            if trial % 5 == 0:
                expected.append(("lfu-supported", trial))
        expected += [("mfn-mismatch", trial) for trial in range(fifth)]
        expected += [("mn-absence", trial) for trial in range(fifth)]
        assert [(r.suite, r.trial) for r in result.records] == expected
        assert result.trials == len(expected)


class TestWorstGap:
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_is_the_worst_wherever_it_sits(self, at):
        gaps = [("g", 1e-13), ("H", 2e-13), ("on", 3e-13)]
        gaps[at] = (gaps[at][0], float("nan"))
        worst, detail = harness._worst(*gaps)
        assert np.isnan(worst)
        assert "nan" in detail

    def test_finite_gaps_keep_the_max(self):
        assert harness._worst(("g", 1e-13), (None, 5e-12), ("on", 0.0)) == (
            5e-12, "g=1.00e-13 on=0.00e+00"
        )

    def test_nan_route_gap_in_second_place_fails_the_trial(self, monkeypatch):
        fit_gaps = harness._fit_gaps
        calls = []

        def route_h_is_nan(a, b, g_scale, h_scale):
            calls.append(None)
            g_gap, h_gap = fit_gaps(a, b, g_scale, h_scale)
            return (g_gap, float("nan")) if len(calls) == 2 else (g_gap, h_gap)

        monkeypatch.setattr(harness, "_fit_gaps", route_h_is_nan)
        spec = InstanceSpec(n=7, d=3, m=5, function_class="quadratic", seed=11)
        gap, detail = harness._trial_mn(spec, 0, 4, lambda part: 5)
        assert len(calls) == 2
        assert np.isnan(gap)
        assert "route=nan" in detail


class _CountingRng:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


def _pointwise_membership_gap(full, sub, frame, rng, samples=20):
    """The membership gap one sample at a time: coefficients, subspace
    coefficients and shift drawn in that order per sample."""
    basis, complement = frame.Q, frame.complement
    amb_full = full.gradients.ambiguity_basis
    amb_sub = sub.gradients.ambiguity_basis
    scale = max(1.0, float(np.linalg.norm(sub.gradients.canonical)))
    worst = 0.0
    for _ in range(samples):
        coeffs = scale * rng.standard_normal(amb_full.shape[1])
        member = full.gradients.canonical + amb_full @ coeffs
        resid = basis.T @ member - sub.gradients.canonical
        resid = resid - amb_sub @ (amb_sub.T @ resid)
        worst = max(worst, float(np.linalg.norm(resid)) / scale)
        chat = scale * rng.standard_normal(amb_sub.shape[1])
        shift = complement @ (scale * rng.standard_normal(complement.shape[1]))
        lifted = basis @ (sub.gradients.canonical + amb_sub @ chat) + shift
        resid = lifted - full.gradients.canonical
        resid = resid - amb_full @ (amb_full.T @ resid)
        worst = max(worst, float(np.linalg.norm(resid)) / scale)
    return worst


class TestMembershipGap:
    """The family check draws its samples in one call, in the stream order
    of a per-sample loop, and finds the same residuals."""

    def _families(self):
        rng = np.random.default_rng(501)
        n, d = 9, 3
        basis, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        frame = SubspaceFrame(rng.standard_normal(n), basis)
        explicit, _ = linalg.orthonormal_columns(rng.standard_normal((n, 2)))
        full = SimpleNamespace(gradients=GradientFamily(
            rng.standard_normal(n), explicit
        ))
        sub_basis, _ = linalg.orthonormal_columns(rng.standard_normal((d, 1)))
        sub = SimpleNamespace(gradients=GradientFamily(
            rng.standard_normal(d), sub_basis
        ))
        return full, sub, frame

    @pytest.mark.parametrize("samples", [1, 20])
    def test_matches_the_per_sample_loop(self, samples):
        full, sub, frame = self._families()
        got = harness._family_membership_gap(
            full, sub, frame, np.random.default_rng(9), samples
        )
        want = _pointwise_membership_gap(
            full, sub, frame, np.random.default_rng(9), samples
        )
        assert want > 0.1
        assert got == pytest.approx(want, rel=1e-13)

    def test_one_draw(self):
        full, sub, frame = self._families()
        rng = _CountingRng(9)
        harness._family_membership_gap(full, sub, frame, rng)
        assert rng.calls == 1


def _record(gap):
    return TrialRecord("mn", 0, 3, 1, 1, "quadratic", gap, gap <= 1e-8)


@pytest.mark.parametrize("call, check", [
    (lambda: InstanceSpec(n=3, d=1, m=1, function_class="quadratic",
                          seed=0, rank_floor=1.5),
     "rank floor must be in"),
    (lambda: SuiteResult("mn", 3, 1, np.inf, 1e-8, 0, [
        _record(0.0), _record(-0.0), _record(np.inf),
    ]).gap_histogram(),
     {"0": 2, "inf": 1}),
], ids=["rank-floor", "histogram-zero"])
def test_spec_floor_and_zero_gaps(call, check):
    """A rank floor outside ``(0, 1)`` is refused; a gap of zero (either
    sign) counts under the ``"0"`` key."""
    if isinstance(check, str):
        with pytest.raises(SpecInfeasibleError, match=check):
            call()
    else:
        assert call() == check
