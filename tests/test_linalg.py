"""Linear-algebra kernel tests.

Oracles are deliberately independent of the implementation: classical
Gram-Schmidt for spans, brute-force double loops for vectorization, and
hand-computed golden values for the tiny cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad import linalg
from subquad.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotOrthonormalError,
    NotSquareError,
)


def gram_schmidt(columns):
    """Classical Gram-Schmidt with re-orthogonalization; oracle only."""
    basis = []
    for col in columns.T:
        v = col.astype(float).copy()
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            basis.append(v / norm)
    return np.array(basis).T if basis else np.zeros((columns.shape[0], 0))


def same_span(a, b, tol=1e-10):
    if a.shape[1] != b.shape[1]:
        return False
    if a.shape[1] == 0:
        return True
    pa = a @ np.linalg.pinv(a)
    pb = b @ np.linalg.pinv(b)
    return np.max(np.abs(pa - pb)) < tol


class TestOrthonormalColumns:
    def test_identity_passthrough(self):
        q, rank = linalg.orthonormal_columns(np.eye(4))
        assert rank == 4
        assert same_span(q, np.eye(4))
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-14)

    def test_duplicate_columns_collapse(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        q, rank = linalg.orthonormal_columns(a)
        assert rank == 1
        assert q.shape == (3, 1)
        assert same_span(q, a[:, :1])

    def test_matches_gram_schmidt_span(self, rng):
        for _ in range(25):
            cols = rng.integers(1, 6)
            a = rng.standard_normal((7, cols))
            q, rank = linalg.orthonormal_columns(a)
            gs = gram_schmidt(a)
            assert rank == gs.shape[1] == np.linalg.matrix_rank(a)
            assert same_span(q, gs)

    def test_rank_deficient_random(self, rng):
        left = rng.standard_normal((8, 3))
        right = rng.standard_normal((3, 5))
        q, rank = linalg.orthonormal_columns(left @ right)
        assert rank == 3
        assert same_span(q, left)

    def test_zero_matrix(self):
        q, rank = linalg.orthonormal_columns(np.zeros((4, 2)))
        assert rank == 0
        assert q.shape == (4, 0)

    def test_deterministic_signs(self, rng):
        a = rng.standard_normal((6, 3))
        q1, _ = linalg.orthonormal_columns(a)
        q2, _ = linalg.orthonormal_columns(a.copy())
        np.testing.assert_array_equal(q1, q2)
        for col in q1.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            linalg.orthonormal_columns(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestComplement:
    def test_splits_dimensions(self, rng):
        q, _ = linalg.orthonormal_columns(rng.standard_normal((9, 4)))
        comp = linalg.orthonormal_complement(q)
        assert comp.shape == (9, 5)
        np.testing.assert_allclose(q.T @ comp, np.zeros((4, 5)), atol=1e-12)
        np.testing.assert_allclose(comp.T @ comp, np.eye(5), atol=1e-12)

    def test_empty_basis_gives_identity(self):
        comp = linalg.orthonormal_complement(np.zeros((3, 0)))
        np.testing.assert_array_equal(comp, np.eye(3))

    def test_full_basis_gives_empty(self):
        comp = linalg.orthonormal_complement(np.eye(3))
        assert comp.shape == (3, 0)

    def test_coordinate_basis(self):
        """Columns that are coordinate vectors need no reflection
        (``tau = 0``); the complement is the other coordinate vectors."""
        comp = linalg.orthonormal_complement(np.eye(5)[:, :2])
        np.testing.assert_array_equal(comp, np.eye(5)[:, 2:])

    @pytest.mark.parametrize("n,d", [(2, 1), (11, 6), (40, 3), (300, 6)])
    def test_svd_basis_on_the_lq_path(self, n, d):
        """Where LAPACK's ``dgesdd`` takes its LQ path, ``n >= floor(11 d /
        6)``, the Householder complement is, to rounding, the sign-fixed
        last ``n - d`` right singular vectors of ``Q^T``."""
        rng = np.random.default_rng(n + d)
        q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        _, _, vt = np.linalg.svd(q.T, full_matrices=True)
        np.testing.assert_allclose(linalg.orthonormal_complement(q),
                                   fix_signs_loop(vt[d:].T), rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("n,d", [(5, 2), (12, 3), (40, 6)])
    def test_curvature_is_the_sandwich_diagonal(self, n, d):
        """``diag(C^T A C)`` from ``diag(A)`` and ``X -> A X`` alone."""
        rng = np.random.default_rng(n * d)
        q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        raw = rng.standard_normal((n, n))
        sym = raw + raw.T
        factors = linalg._complement_factors(q)
        comp = factors.dense()
        got = factors.curvature(np.diagonal(sym), lambda x: sym @ x)
        np.testing.assert_allclose(got, np.diagonal(comp.T @ sym @ comp),
                                   rtol=0, atol=1e-12)

    def test_rejects_skewed_basis(self):
        from subquad.errors import NotOrthonormalError

        with pytest.raises(NotOrthonormalError):
            linalg.orthonormal_complement(
                np.array([[1.0, 0.9], [0.0, 0.1], [0.0, 0.0]])
            )

    def test_defect_measured_in_frobenius_norm(self):
        from subquad.errors import NotOrthonormalError

        # Gram defect 8e-11 * I_4: spectral norm 8e-11 is within the
        # tolerance, Frobenius norm 1.6e-10 is not.
        basis = np.eye(6)[:, :4] * np.sqrt(1.0 + 8e-11)
        with pytest.raises(NotOrthonormalError, match="_F"):
            linalg.orthonormal_complement(basis)
        linalg.orthonormal_complement(basis[:, :1])


def fix_signs_loop(basis):
    """Per-column sign convention, one column at a time; oracle only."""
    basis = np.array(basis, copy=True)
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0.0:
            basis[:, j] = -basis[:, j]
    return basis


class TestColumnSigns:
    """The batched sign fix is bit-identical to the per-column loop."""

    def test_random_matrices(self, rng):
        for shape in [(1, 1), (5, 3), (9, 9), (300, 294)]:
            basis = rng.standard_normal(shape)
            np.testing.assert_array_equal(
                linalg._fix_column_signs(basis), fix_signs_loop(basis)
            )

    def test_tied_magnitudes_use_the_first_entry(self):
        basis = np.array([
            [-0.5, 0.5, 0.0, -0.5],
            [0.5, -0.5, 0.0, 0.5],
            [0.5, 0.5, -0.0, -0.5],
        ])
        fixed = linalg._fix_column_signs(basis)
        np.testing.assert_array_equal(fixed, fix_signs_loop(basis))
        np.testing.assert_array_equal(fixed[0], [0.5, 0.5, 0.0, 0.5])

    def test_all_negative_columns(self, rng):
        basis = -np.abs(rng.standard_normal((6, 4)))
        fixed = linalg._fix_column_signs(basis)
        np.testing.assert_array_equal(fixed, fix_signs_loop(basis))
        np.testing.assert_array_equal(fixed, -basis)

    def test_zero_columns(self):
        fixed = linalg._fix_column_signs(np.zeros((5, 0)))
        assert fixed.shape == (5, 0)

    def test_input_left_untouched(self, rng):
        basis = -np.abs(rng.standard_normal((4, 2)))
        before = basis.copy()
        linalg._fix_column_signs(basis)
        np.testing.assert_array_equal(basis, before)


def nullspace_of(a):
    """Orthonormal nullspace basis at the default rank tolerance."""
    return linalg.orthonormal_complement(linalg.orthonormal_columns(a.T)[0])


class TestMinNormLstsq:
    def test_underdetermined_golden(self):
        # min ||x|| s.t. x1 + x2 = 1: the midpoint of the constraint line.
        a = np.array([[1.0, 1.0]])
        x = linalg.minnorm_lstsq(a, np.array([1.0]))
        nullspace = nullspace_of(a)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-14)
        assert nullspace.shape == (2, 1)
        np.testing.assert_allclose(
            np.abs(nullspace.ravel()), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-14
        )

    def test_rank_truncation_matches_pinv(self, rng):
        # 5x8 rank-3 system: solution must agree with the explicit
        # pseudoinverse, which does its own truncation.
        a = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 8))
        b = rng.standard_normal(5)
        x = linalg.minnorm_lstsq(a, b)
        np.testing.assert_allclose(x, np.linalg.pinv(a) @ b, atol=1e-10)
        assert nullspace_of(a).shape == (8, 5)

    def test_solution_orthogonal_to_nullspace(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 7))
            b = rng.standard_normal(3)
            x = linalg.minnorm_lstsq(a, b)
            nullspace = nullspace_of(a)
            np.testing.assert_allclose(nullspace.T @ x, 0.0, atol=1e-12)
            # any other solution is longer
            other = x + nullspace @ rng.standard_normal(nullspace.shape[1])
            assert np.linalg.norm(other) >= np.linalg.norm(x) - 1e-12

    def test_inconsistent_residual_orthogonal_to_range(self, rng):
        a = rng.standard_normal((6, 2))
        b = rng.standard_normal(6)
        x = linalg.minnorm_lstsq(a, b)
        residual = a @ x - b
        np.testing.assert_allclose(a.T @ residual, 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.minnorm_lstsq(np.eye(3), np.ones(4))


class TestPinvApply:
    def test_matches_pinv_matrix_rhs(self, rng):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            linalg.pinv_apply(a, b), np.linalg.pinv(a) @ b, atol=1e-12
        )


def _svec_oracle(h):
    """Row-major upper-triangle walk with explicit sqrt(2) weights."""
    n = h.shape[0]
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(h[i, j] if i == j else np.sqrt(2.0) * h[i, j])
    return np.array(out)


class TestSymmetricVectorization:
    def test_oracle_agreement(self, rng):
        for n in (1, 2, 3, 5, 8):
            h = rng.standard_normal((n, n))
            h = (h + h.T) / 2
            np.testing.assert_allclose(linalg.svec(h), _svec_oracle(h), atol=1e-14)

    def test_golden_2x2(self):
        h = np.array([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(
            linalg.svec(h), [1.0, 2.0 * np.sqrt(2.0), 5.0], atol=1e-15
        )

    @given(
        n=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_isometry(self, n, seed):
        r = np.random.default_rng(seed)
        h = r.standard_normal((n, n))
        h = (h + h.T) / 2
        v = linalg.svec(h)
        assert v.shape == (n * (n + 1) // 2,)
        np.testing.assert_allclose(linalg.smat(v), h, atol=1e-13)
        # isometry: the vector 2-norm equals the Frobenius norm
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(h), rel=1e-12)

    def test_isometry_preserves_inner_products(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        a, b = (a + a.T) / 2, (b + b.T) / 2
        assert linalg.svec(a) @ linalg.svec(b) == pytest.approx(
            np.sum(a * b), rel=1e-12
        )

    def test_smat_bad_length(self):
        from subquad.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            linalg.smat(np.ones(4))  # 4 is not a triangular number

    def test_svec_requires_square(self):
        with pytest.raises(NotSquareError):
            linalg.svec(np.ones((2, 3)))


def test_sym_part_exact():
    m = np.array([[1.0, 3.0], [1.0, 2.0]])
    np.testing.assert_array_equal(
        linalg.sym_part(m), np.array([[1.0, 2.0], [2.0, 2.0]])
    )
    s = linalg.sym_part(m)
    np.testing.assert_array_equal(s, s.T)


def test_default_rank_tol_scales_with_shape():
    assert linalg.default_rank_tol(10, 3) == pytest.approx(10 * np.finfo(float).eps)
    assert linalg.default_rank_tol(2, 7) == pytest.approx(7 * np.finfo(float).eps)


@pytest.mark.parametrize("call, error, match", [
    (lambda: linalg.as_matrix(np.ones(3)), DimensionMismatchError,
     "must be 2-D"),
    (lambda: linalg.as_vector(np.ones((2, 2))), DimensionMismatchError,
     "must be 1-D"),
    (lambda: linalg.as_vector([1.0, np.nan]), NonFiniteError, "NaN or Inf"),
    (lambda: linalg.sym_part(np.ones((2, 3))), NotSquareError, "square"),
    (lambda: linalg.orthonormal_columns(np.zeros((3, 0))),
     DimensionMismatchError, "at least one column"),
    (lambda: linalg.orthonormal_complement(np.ones((2, 3))),
     NotOrthonormalError, "3 columns in dimension 2"),
    (lambda: linalg.pinv_apply(np.eye(2), [1.0, np.nan]), NonFiniteError,
     "right-hand side"),
], ids=["as-matrix-1d", "as-vector-2d", "as-vector-nan", "sym-part-wide",
        "columns-none", "complement-wide", "pinv-nan"])
def test_malformed_arguments_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
