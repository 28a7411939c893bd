"""Sample sets, function oracles, subspace frames and feasibility."""

import re
import warnings

import numpy as np
import pytest

from conftest import subspace_set

from subquad import geometry, linalg
from subquad.errors import (
    DimensionMismatchError,
    DuplicatePointError,
    EmptySetError,
    NonFiniteError,
    NotInSubspaceError,
)
from subquad.geometry import (
    DEDUP_RTOL,
    FunctionOracle,
    SampleSet,
    SubspaceFrame,
    detect_subspace,
    feasibility_residual,
    hat_function,
    hat_sampleset,
    interpolation_feasible,
    poised_for_quadratic,
    quadratic_constraint_matrix,
)


class TestFunctionOracle:
    def test_counts_every_call(self):
        oracle = FunctionOracle(lambda x: float(x @ x))
        for k in range(5):
            oracle(np.full(3, float(k)))
        assert oracle.count == 5

    def test_rejects_nonfinite_values(self):
        oracle = FunctionOracle(lambda x: float("inf"))
        with pytest.raises(NonFiniteError):
            oracle(np.zeros(2))

    def test_dimension_guard(self):
        oracle = FunctionOracle(lambda x: 0.0, dim=3)
        with pytest.raises(DimensionMismatchError):
            oracle(np.zeros(4))


class TestSampleSet:
    def test_basic_properties(self, square):
        assert square.n == 3
        assert square.m == 3
        np.testing.assert_allclose(square.delta, [1.0, 1.0, 2.0])
        pts = square.points()
        assert pts.shape == (4, 3)
        np.testing.assert_array_equal(pts[0], square.x0)

    def test_from_oracle_evaluates_once_per_point(self):
        oracle = FunctionOracle(lambda x: float(x @ x))
        disp = np.array([[1.0, 0.0], [0.0, 2.0]])
        ss = SampleSet.from_oracle(np.zeros(2), disp, oracle)
        assert oracle.count == 3
        np.testing.assert_allclose(ss.values, [0.0, 1.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            SampleSet(np.zeros(2), np.zeros((0, 2)), np.array([1.0]))

    def test_zero_displacement_rejected(self):
        with pytest.raises(DuplicatePointError):
            SampleSet(
                np.zeros(2),
                np.array([[0.0, 0.0], [1.0, 0.0]]),
                np.array([0.0, 0.0, 1.0]),
            )

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 5e-324])
    def test_tiny_step_is_not_a_zero_displacement(self, scale):
        """The squares of these entries underflow, so their row norm is
        zero; the steps themselves are not."""
        disp = scale * np.array([[1.0, -2.0, 0.0]])
        ss = SampleSet(np.zeros(3), disp, np.array([0.0, 1.0]))
        assert ss.m == 1
        np.testing.assert_array_equal(ss.displacements, disp)

    def test_tiny_steps_follow_the_absolute_cutoff(self, rng):
        """Below size 1, steps closer than ``DEDUP_RTOL`` coincide: at
        1e-170 a set merges into its first step, or conflicts."""
        disp = 1e-170 * rng.standard_normal((4, 3))
        merged = SampleSet(np.zeros(3), disp, np.ones(5))
        np.testing.assert_array_equal(merged.displacements, disp[:1])
        with pytest.raises(DuplicatePointError, match="conflicting values"):
            SampleSet(np.zeros(3), disp, np.arange(5.0))

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_steps_stay_distinct(self, rng, scale):
        """The squares of these entries overflow, so a plain row norm is
        inf; four distinct steps stay four whatever their values."""
        disp = scale * rng.standard_normal((4, 3))
        for values in (np.ones(5), np.arange(5.0)):
            ss = SampleSet(np.zeros(3), disp, values)
            np.testing.assert_array_equal(ss.displacements, disp)
            np.testing.assert_array_equal(ss.values, values)

    def test_duplicate_with_equal_values_merges(self):
        ss = SampleSet(
            np.zeros(2),
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([0.0, 5.0, 5.0, 2.0]),
        )
        assert ss.m == 2
        np.testing.assert_allclose(ss.delta, [5.0, 2.0])

    def test_duplicate_with_conflicting_values_rejected(self):
        with pytest.raises(DuplicatePointError):
            SampleSet(
                np.zeros(2),
                np.array([[1.0, 0.0], [1.0, 0.0]]),
                np.array([0.0, 5.0, 6.0]),
            )

    def test_value_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SampleSet(np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.0]))


class TestDetectSubspace:
    def test_unit_square_spans_a_plane(self, square):
        frame = detect_subspace(square)
        assert frame.d == 2
        # the detected plane is the (x1, x2)-plane
        span = frame.Q @ frame.Q.T
        expected = np.diag([1.0, 1.0, 0.0])
        np.testing.assert_allclose(span, expected, atol=1e-12)

    def test_hat_displacements_reproduce_originals(self, square):
        frame = detect_subspace(square)
        np.testing.assert_allclose(
            frame.dhat @ frame.Q.T, square.displacements, atol=1e-12
        )

    def test_full_dimensional_set(self, rng):
        disp = rng.standard_normal((6, 4))
        values = rng.standard_normal(7)
        frame = detect_subspace(SampleSet(np.zeros(4), disp, values))
        assert frame.d == 4

    def test_single_direction(self):
        ss = SampleSet(
            np.zeros(3),
            np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]),
            np.array([0.0, 1.0, 2.0]),
        )
        frame = detect_subspace(ss)
        assert frame.d == 1
        assert abs(frame.Q[:, 0] @ np.array([1.0, 1.0, 0.0]) / np.sqrt(2)) == pytest.approx(1.0)


class TestSubspaceFrame:
    def test_requires_orthonormal_q(self):
        from subquad.errors import NotOrthonormalError

        with pytest.raises(NotOrthonormalError):
            SubspaceFrame(np.zeros(2), np.array([[1.0], [1.0]]))

    def test_complement_is_cached_and_orthogonal(self, frame):
        comp = frame.complement
        assert comp.shape == (3, 1)
        np.testing.assert_allclose(frame.Q.T @ comp, 0.0, atol=1e-12)
        assert frame.complement is comp


class TestHatFunction:
    def test_affine_restriction_oracle(self, frame):
        """hat(f)(xhat) must equal f(x0 + Q xhat) exactly for affine f."""
        b = np.array([2.0, -1.0, 3.0])
        f = lambda x: float(7.0 + b @ x)
        hat = hat_function(f, frame)
        for xhat in (np.zeros(2), np.array([1.0, 0.0]), np.array([-2.5, 4.0])):
            expected = 7.0 + b @ (frame.x0 + frame.Q @ xhat)
            assert hat(xhat) == pytest.approx(expected, abs=1e-14)

    def test_count_passes_through(self, frame):
        oracle = FunctionOracle(lambda x: float(x @ x))
        hat = hat_function(oracle, frame)
        hat(np.zeros(2))
        hat(np.ones(2))
        assert oracle.count == 2

    def test_hat_sampleset_round_trip(self, square, frame):
        hatted = hat_sampleset(square, frame)
        assert hatted.n == 2
        np.testing.assert_allclose(
            hatted.displacements @ frame.Q.T, square.displacements, atol=1e-12
        )
        np.testing.assert_array_equal(hatted.values, square.values)

    def test_hat_sampleset_rejects_outside_points(self, square):
        q = np.array([[1.0], [0.0], [0.0]])
        thin = SubspaceFrame(np.zeros(3), q)
        with pytest.raises(NotInSubspaceError):
            hat_sampleset(square, thin)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    @pytest.mark.parametrize("values", [[0.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    def test_hat_sampleset_rejects_huge_outside_steps(self, scale, values):
        """The squared lengths of these steps overflow; the second step
        is 45 degrees off the span whatever its values."""
        disp = scale * np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        ss = SampleSet(np.zeros(3), disp, np.array(values))
        thin = SubspaceFrame(np.zeros(3), np.array([[1.0], [0.0], [0.0]]))
        with pytest.raises(NotInSubspaceError):
            hat_sampleset(ss, thin)


class TestFeasibility:
    def test_constraint_matrix_shape_and_values(self):
        disp = np.array([[1.0, 2.0]])
        mat = quadratic_constraint_matrix(disp)
        # [d, svec(d d^T)/2] with sqrt(2) weight on the cross term
        np.testing.assert_allclose(
            mat, [[1.0, 2.0, 0.5, np.sqrt(2.0), 2.0]], atol=1e-14
        )

    def test_constraint_matrix_matches_per_row_svec(self, rng):
        """The batched rows are bit-identical to svec of each outer
        product, the definition they vectorize."""
        from subquad.linalg import svec

        disp = rng.standard_normal((7, 5))
        loop = np.array([
            np.concatenate([row, svec(np.outer(row, row) / 2.0)])
            for row in disp
        ])
        np.testing.assert_array_equal(quadratic_constraint_matrix(disp), loop)

    def test_generic_set_is_feasible(self, square):
        assert interpolation_feasible(square)
        residual, scale = feasibility_residual(square)
        assert residual <= 1e-12 * scale

    def test_collinear_inconsistent_values_infeasible(self):
        """Six aligned steps can't satisfy arbitrary values: a univariate
        quadratic has three coefficients."""
        t = np.arange(1.0, 7.0)
        disp = np.outer(t, np.array([1.0, 1.0, 0.0]))
        values = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        ss = SampleSet(np.zeros(3), disp, values)
        assert not interpolation_feasible(ss)

    def test_collinear_quadratic_values_feasible(self):
        t = np.arange(1.0, 7.0)
        disp = np.outer(t, np.array([1.0, 1.0, 0.0]))
        f = lambda x: 1.0 + x[0] + 3.0 * x[1] ** 2
        values = np.array([f(np.zeros(3))] + [f(d) for d in disp])
        ss = SampleSet(np.zeros(3), disp, values)
        assert interpolation_feasible(ss)


class TestFeasibilityAtLargeDimension:
    """The residual of the min-norm quadratic at ``n = 200``, ``d = 6``
    agrees with a dense least-squares solve of the full stacked system.

    Error model: both are backward-stable solves of the same system, whose
    residual is determined to about ``N eps kappa (||A|| ||x|| + ||delta||)``
    with ``N`` the larger dimension of the ``m x (n + n(n+1)/2)`` matrix
    ``A`` and ``kappa`` its effective condition number; the bound allows a
    factor of 16.
    """

    @pytest.mark.parametrize("m,feasible", [(20, True), (30, False)])
    def test_matches_dense_residual(self, rng, m, feasible):
        values = None if feasible else rng.standard_normal(m + 1)
        sample_set = subspace_set(rng, 200, 6, m, values)
        residual, scale = feasibility_residual(sample_set)

        mat = quadratic_constraint_matrix(sample_set.displacements)
        coeff, *_ = np.linalg.lstsq(mat, sample_set.delta, rcond=None)
        dense = np.max(np.abs(mat @ coeff - sample_set.delta))
        sigma = np.linalg.svd(mat, compute_uv=False)
        kept = sigma[sigma > max(mat.shape) * np.finfo(float).eps * sigma[0]]
        tol = (16 * max(mat.shape) * np.finfo(float).eps
               * (kept[0] / kept[-1])
               * (kept[0] * np.linalg.norm(coeff)
                  + np.linalg.norm(sample_set.delta)))
        assert abs(residual - dense) <= tol
        assert scale == max(1.0, float(np.max(np.abs(sample_set.values))))
        assert interpolation_feasible(sample_set) == feasible


def scaled_norm(v):
    """Euclidean norm of ``v`` taken on ``v / max |v_k|``, so that no
    square overflows or underflows."""
    peak = np.max(np.abs(v))
    return peak * np.linalg.norm(v / peak) if peak > 0.0 else 0.0


def merge_oracle(disp, values):
    """Pairwise duplicate merge, one pair at a time; oracle only. A
    duplicate whose values conflict raises naming the pair."""
    norms = [scaled_norm(row) for row in disp]
    keep = []
    for i in range(disp.shape[0]):
        close = [
            j for j in keep
            if scaled_norm(disp[i] - disp[j])
            <= DEDUP_RTOL * max(norms[i], norms[j], 1.0)
        ]
        if not close:
            keep.append(i)
            continue
        vi, vj = values[1 + i], values[1 + close[0]]
        if abs(vi - vj) > 1e-12 * max(1.0, abs(vi), abs(vj)):
            raise DuplicatePointError(
                f"displacements {i} and {close[0]} coincide"
            )
    idx = np.asarray(keep, dtype=int)
    return disp[idx], np.concatenate([values[:1], values[1 + idx]])


class TestDuplicateScreen:
    """Sets the projection screen passes through merge exactly as the
    pairwise loop does, including pairs at the duplicate cutoff."""

    @pytest.mark.parametrize(
        "scale", [1e-100, 1e-8, 1.0, 1e8, 1e100, 1e160, 1e200]
    )
    @pytest.mark.parametrize("gap", [0.0, 0.5, 0.999, 1.001, 2.0, 1e3])
    def test_matches_pairwise_merge(self, rng, scale, gap):
        disp = scale * rng.standard_normal((7, 5))
        unit = rng.standard_normal(5)
        unit /= np.linalg.norm(unit)
        cutoff = DEDUP_RTOL * max(scale * np.linalg.norm(disp[2] / scale), 1.0)
        disp[5] = disp[2] + gap * cutoff * unit
        values = np.ones(8)
        merged = SampleSet(np.zeros(5), disp, values)
        want_disp, want_values = merge_oracle(disp, values)
        np.testing.assert_array_equal(merged.displacements, want_disp)
        np.testing.assert_array_equal(merged.values, want_values)

    def test_overflowing_lengths_raise_before_the_merge(self):
        """A step longer than the largest float has no length to measure
        duplicates by: it raises, without a warning, where it used to
        absorb an ordinary step as a duplicate. Steps of the largest
        finite lengths still merge as the pairwise loop merges them."""
        huge = 1.7e308 * np.sign(geometry._projection_axis(3))
        cases = [
            (np.zeros(2), [[1.5e308, 1.5e308], [1.5e308, 1.5e308],
                           [-1e308, 1e308], [1.0, 0.0]]),
            (np.zeros(3), [huge, huge, [1e308, 1e308, 0.0]]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x0, disp in cases:
                with pytest.raises(NonFiniteError,
                                   match="displacement 0 has a length"):
                    SampleSet(x0, disp, np.ones(len(disp) + 1))
            disp = np.array([huge / 1.7, huge / 1.7, [1e308, 1e308, 0.0]])
            merged = SampleSet(np.zeros(3), disp, np.ones(4))
        with np.errstate(over="ignore", invalid="ignore"):
            want_disp, want_values = merge_oracle(disp, np.ones(4))
        assert merged.m == 2
        np.testing.assert_array_equal(merged.displacements, want_disp)
        np.testing.assert_array_equal(merged.values, want_values)


def _count_measured_rows(monkeypatch):
    """Rows each ``linalg.row_norms`` call measures from now on."""
    rows = []
    row_norms = linalg.row_norms

    def counting(mat):
        rows.append(mat.shape[0])
        return row_norms(mat)

    monkeypatch.setattr(linalg, "row_norms", counting)
    return rows


class TestDuplicateScreenScale:
    """Step lengths are taken in units of each step's largest entry, so
    sets of huge steps are screened as unit-scale ones are, and a step far
    smaller than the others is still compared exactly."""

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e100, 1e160, 1e300])
    def test_distinct_steps_skip_the_merge(self, monkeypatch, rng, scale):
        disp = scale * rng.standard_normal((200, 5))
        rows = _count_measured_rows(monkeypatch)
        assert SampleSet(np.zeros(5), disp, np.ones(201)).m == 200
        assert rows == [200]  # the step lengths; no pair is measured

    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_a_duplicate_is_still_seen(self, monkeypatch, rng, scale):
        disp = scale * rng.standard_normal((200, 5))
        disp[150] = disp[20] * (1.0 + 1e-14)
        rows = _count_measured_rows(monkeypatch)
        assert SampleSet(np.zeros(5), disp, np.ones(201)).m == 199
        assert sum(rows[1:]) == 1  # only the planted pair is measured

    def test_steps_beyond_the_screened_range_are_merged_pairwise(self, rng):
        disp = rng.standard_normal((6, 3))
        disp[3] *= 1e-150
        assert SampleSet(np.zeros(3), disp, np.ones(7)).m == 6
        disp[5] = 2.0 * disp[3]  # within the absolute cutoff of step 3
        merged = SampleSet(np.zeros(3), disp, np.ones(7))
        np.testing.assert_array_equal(merged.displacements, disp[:5])


def _merge_case(rng):
    """A set at a random scale (gaussian, coordinate stencil or one scale
    per step) with up to three pairs planted at multiples of the cutoff,
    half of them along the projection axis, and values that agree or
    conflict."""
    n = int(rng.choice([1, 2, 3, 5, 10, 30, 300, 2000],
                       p=[.1, .15, .15, .2, .2, .14, .04, .02]))
    m = int(rng.integers(2, 12 if n < 300 else 5))
    kind = rng.integers(3)
    if kind == 0:
        disp = 10.0 ** rng.uniform(-300, 305) * rng.standard_normal((m, n))
    elif kind == 1:
        disp = np.zeros((m, n))
        disp[np.arange(m), rng.integers(n, size=m)] = (
            rng.choice([-0.1, 0.1, 1.0], m) * 10.0 ** rng.uniform(-300, 300)
        )
    else:
        disp = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(
            -150, 150, size=(m, 1)
        )
    for _ in range(rng.integers(4)):
        a, b = rng.integers(m, size=2)
        if rng.random() < 0.5:  # along the axis the merge projects on
            unit = geometry._projection_axis(n)
        else:
            unit = rng.standard_normal(n)
            unit /= np.linalg.norm(unit)
        gap = rng.choice([0.0, 0.5, 0.999, 1 - 1e-6, 1 + 1e-6, 1.001, 2.0,
                          1e3])
        cutoff = DEDUP_RTOL * max(scaled_norm(disp[a]), 1.0)
        planted = disp[a] + gap * cutoff * unit
        if planted.any():  # a zero step is rejected before the merge
            disp[b] = planted
    values = np.ones(m + 1) if rng.random() < 0.5 else rng.standard_normal(m + 1)
    return disp, values


class TestDuplicateMergeSweep:
    """10,000 seeded sets: ``SampleSet`` keeps the rows and values the
    pairwise oracle keeps, and raises on the pair it names. Pairs planted
    along the projection axis at ``1 +- 1e-6`` times the cutoff, at ``n``
    up to 2000, need the projection window's rounding term."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng([20261019, seed])
        outcomes = {"distinct": 0, "merged": 0, "conflict": 0}
        for _ in range(1000):
            disp, values = _merge_case(rng)
            x0 = np.zeros(disp.shape[1])
            try:
                want_disp, want_values = merge_oracle(disp, values)
            except DuplicatePointError as err:
                with pytest.raises(DuplicatePointError,
                                   match=re.escape(str(err))):
                    SampleSet(x0, disp, values)
                outcomes["conflict"] += 1
                continue
            merged = SampleSet(x0, disp, values)
            np.testing.assert_array_equal(merged.displacements, want_disp)
            np.testing.assert_array_equal(merged.values, want_values)
            outcomes["merged" if merged.m < len(disp) else "distinct"] += 1
        assert min(outcomes.values()) > 50, outcomes


class TestPoisedness:
    def test_complete_quadratic_grid_is_poised(self, rng):
        disp = random_poised(rng, 2)
        values = rng.standard_normal(disp.shape[0] + 1)
        assert poised_for_quadratic(SampleSet(np.zeros(2), disp, values))

    def test_wrong_cardinality_not_poised(self, square):
        assert not poised_for_quadratic(square)

    def test_collinear_six_points_not_poised(self):
        """Right cardinality for n=2 but rank-deficient: all on one line."""
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        disp = np.outer(t, np.array([1.0, 1.0]))
        values = np.zeros(6)
        ss = SampleSet(np.zeros(2), disp, values)
        assert ss.m == 5  # (n+1)(n+2)/2 - 1
        mat = quadratic_constraint_matrix(disp)
        assert np.linalg.matrix_rank(mat) == 2  # rows are t*a + t^2*b
        assert not poised_for_quadratic(ss)


def random_poised(rng, n):
    from conftest import random_poised_set

    return random_poised_set(rng, n)
