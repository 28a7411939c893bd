"""Sample sets, function oracles, subspace frames and feasibility."""

import numpy as np
import pytest

from conftest import subspace_set

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


def merge_oracle(disp, values):
    """Pairwise duplicate merge, one pair at a time; oracle only."""
    norms = np.linalg.norm(disp, axis=1)
    keep = []
    for i in range(disp.shape[0]):
        if not any(
            np.linalg.norm(disp[i] - disp[j])
            <= DEDUP_RTOL * max(norms[i], norms[j], 1.0)
            for j in keep
        ):
            keep.append(i)
    idx = np.asarray(keep, dtype=int)
    return disp[idx], np.concatenate([values[:1], values[1 + idx]])


class TestDuplicateScreen:
    """Sets the Gram-matrix screen passes through merge exactly as the
    pairwise loop does, including pairs at the duplicate cutoff."""

    # at 1e200 the squared norms overflow in the set's own checks too
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-100, 1e-8, 1.0, 1e8, 1e100, 1e200])
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
