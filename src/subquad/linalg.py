"""Dense linear-algebra kernels shared by every other module.

Conventions: vectors are 1-D float arrays, matrices are 2-D, and a basis is
a matrix whose *columns* are the basis vectors. Every rank decision in the
package is made by :func:`numerical_rank`, a relative singular-value cutoff
(``sigma > rank_tol * sigma_max``) with ``rank_tol`` defaulting to
``max(shape) * machine_eps``. The column-space basis and the pseudoinverse
solves share one thin, rank-truncated SVD, so no factorization builds a
``cols x cols`` factor. The orthogonal complement ``C`` of an ``n x d``
basis is held as the ``d`` Householder reflectors of its QR factorization
(see :class:`Complement`), so it costs ``O(n d^2)`` until its columns are
formed; only :class:`Complement` reads that layout, and it gives ``C^T
x``, ``C c`` and ``diag(C^T A C)`` (from ``diag(A)`` and ``X -> A X``)
without them. Outputs of the factorization routines are made
deterministic by a sign convention: in each returned orthonormal column
the entry of largest magnitude (first such entry on ties) is nonnegative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotOrthonormalError,
    NotSquareError,
)

EPS = float(np.finfo(float).eps)

_SQRT2 = float(np.sqrt(2.0))

#: Magnitude above which a unit column's entry is its largest by a margin
#: no rounding closes: every other entry is below ``sqrt(1 - 0.75^2) =
#: 0.66``.
_SURE_LARGEST = 0.75

#: Frobenius-norm tolerance on ``Q.T @ Q - I`` accepted as "orthonormal".
#: The Frobenius norm bounds the spectral norm from above and costs no SVD.
ORTHONORMALITY_TOL = 1e-10


def default_rank_tol(rows: int, cols: int) -> float:
    """Relative singular-value cutoff used when no explicit one is given."""
    return max(rows, cols) * EPS


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatchError(
            f"{name} must be 2-D, got shape {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return mat


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float array."""
    vec = np.asarray(a, dtype=float)
    if vec.ndim != 1:
        raise DimensionMismatchError(
            f"{name} must be 1-D, got shape {vec.shape}"
        )
    if not np.isfinite(vec).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return vec


def sym_part(mat) -> np.ndarray:
    """Exactly symmetric part ``(M + M.T) / 2`` of a square matrix."""
    matrix = as_matrix(mat, "sym_part argument")
    if matrix.shape[0] != matrix.shape[1]:
        raise NotSquareError(
            f"expected a square matrix, got shape {matrix.shape}"
        )
    return 0.5 * (matrix + matrix.T)


def row_norms(rows) -> np.ndarray:
    """Euclidean row lengths, each taken on the row divided by its largest
    entry: a plain norm squares the entries, so rows of size 1e-170
    underflow to length 0 and rows of size 1e160 overflow to inf."""
    peak = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    scaled = rows / np.where(peak > 0.0, peak, 1.0)[:, None]
    return peak * np.sqrt(np.add.reduce(np.square(scaled, out=scaled), axis=1))


def _fix_column_signs(basis: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-magnitude entry of each is positive."""
    basis = np.array(basis, copy=True)
    rows = np.argmax(np.abs(basis), axis=0)
    flip = basis[rows, np.arange(basis.shape[1])] < 0.0
    basis[:, flip] = -basis[:, flip]
    return basis


def numerical_rank(sigma, rank_tol: float) -> int:
    """Count of singular values (in decreasing order) above
    ``rank_tol * sigma[0]``; zero for an empty or zero spectrum."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sigma > rank_tol * sigma[0]))


def _truncated_svd(mat: np.ndarray, rank_tol: float | None):
    """Thin SVD truncated at the numerical rank: ``(U_r, s_r, Vt_r, r)``."""
    if rank_tol is None:
        rank_tol = default_rank_tol(*mat.shape)
    left, sigma, vt = np.linalg.svd(mat, full_matrices=False)
    rank = numerical_rank(sigma, rank_tol)
    return left[:, :rank], sigma[:rank], vt[:rank], rank


def orthonormal_columns(a, rank_tol: float | None = None):
    """Rank-revealing orthonormal basis of the column space of ``a``.

    Parameters
    ----------
    a : array_like, shape (n, k)
        Matrix whose column space is wanted. Must have at least one column.
    rank_tol : float, optional
        Relative singular-value cutoff. Defaults to ``max(n, k) * eps``.

    Returns
    -------
    q : ndarray, shape (n, r)
        Orthonormal basis, columns ordered by decreasing singular value and
        sign-fixed for determinism.
    r : int
        Numerical rank of ``a`` at the given tolerance.
    """
    mat = as_matrix(a, "orthonormal_columns argument")
    if mat.shape[1] == 0:
        raise DimensionMismatchError("matrix must have at least one column")
    left, _, _, rank = _truncated_svd(mat, rank_tol)
    return _fix_column_signs(left), rank


@dataclass(frozen=True)
class Complement:
    """Orthonormal basis ``C`` of ``col(Q)^perp`` for an orthonormal
    ``n x d`` ``Q``, held as factors.

    With the Householder QR ``Q = H_1 ... H_d [R; 0]``, ``C`` is ``H_1 ...
    H_d [0; I]`` with its column signs fixed. In the compact WY form
    ``H_1 ... H_d = I - Y T Y^T`` (Schreiber and Van Loan, SIAM J. Sci.
    Stat. Comput. 10(1), 1989) that is ``C = (E - Y Z) diag(signs)`` for
    ``E = [0; I]``, the unit lower trapezoidal reflectors ``Y``
    (``reflectors``, ``n x d``) and ``Z = T Y[d:]^T`` (``mixing``, ``d x
    (n - d)``). Products with ``C`` cost ``O(n d)`` per vector; only
    :meth:`dense` forms the ``n x (n - d)`` array.
    """

    reflectors: np.ndarray
    mixing: np.ndarray
    signs: np.ndarray

    def dense(self) -> np.ndarray:
        """The ``n x (n - d)`` array ``C``."""
        basis = self.reflectors @ self.mixing
        np.subtract(0.0, basis, out=basis)  # -(Y Z) with no -0.0 entry
        n, d = self.reflectors.shape
        basis[np.arange(d, n), np.arange(n - d)] += 1.0
        basis *= self.signs
        return basis

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """``C^T x`` for a length-``n`` vector ``x``."""
        d = self.reflectors.shape[1]
        return self.signs * (x[d:] - (x @ self.reflectors) @ self.mixing)

    def curvature(self, diagonal: np.ndarray, product) -> np.ndarray:
        """``diag(C^T A C)`` for a symmetric ``n x n`` ``A`` given by its
        ``diagonal`` and by ``product``, ``X -> A X`` for an ``n x d``
        ``X``: entry ``j`` is ``A[d + j, d + j] - 2 (A Y)[d + j] . Z[:, j]
        + Z[:, j]^T (Y^T A Y) Z[:, j]``, from one product with ``Y``."""
        reflectors, mixing = self.reflectors, self.mixing
        d = reflectors.shape[1]
        sandwich = product(reflectors)
        inner = (reflectors.T @ sandwich) @ mixing
        return (
            diagonal[d:] - 2.0 * np.einsum("ij,ji->i", sandwich[d:], mixing)
            + np.einsum("ij,ij->j", mixing, inner)
        )

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """``coeffs @ C^T``: the vector ``C c`` for each row ``c`` of a
        ``k x (n - d)`` ``coeffs``."""
        scaled = coeffs * self.signs
        out = -((scaled @ self.mixing.T) @ self.reflectors.T)
        out[:, self.reflectors.shape[1]:] += scaled
        return out


def _complement_factors(basis: np.ndarray) -> Complement:
    """The :class:`Complement` of ``col(basis)``, for a finite ``n x d``
    array with orthonormal columns: :func:`orthonormal_complement` and
    :class:`~subquad.geometry.SubspaceFrame` check that first.

    ``Z`` comes from the triangular inverse ``T^-1 = diag(1 / tau) +
    striu(Y^T Y)``, with a reflector of ``tau = 0`` (the identity) dropped
    from ``Y``. Column ``j`` takes its sign from its entry ``d + j`` when
    that exceeds ``_SURE_LARGEST`` in magnitude, which makes it the
    largest; only the other columns are formed. The factors cost ``O(n
    d^2)`` plus ``O(n d)`` per column formed, and for large ``n`` none is.
    """
    d = basis.shape[1]
    packed, tau = np.linalg.qr(basis, mode="raw")
    reflectors = np.tril(packed.T, -1)
    np.fill_diagonal(reflectors, 1.0)
    if not tau.all():  # an identity reflector drops out of Y and T
        reflectors[:, tau == 0.0] = 0.0
        tau = np.where(tau == 0.0, 1.0, tau)
    inverse = np.triu(reflectors.T @ reflectors, 1)
    np.fill_diagonal(inverse, 1.0 / tau)
    mixing = np.linalg.solve(inverse, reflectors[d:].T)
    # entry d + j of column j, then the columns it does not settle
    corner = 1.0 - np.einsum("ij,ji->i", reflectors[d:], mixing)
    signs = np.where(corner < 0.0, -1.0, 1.0)
    unsure = np.flatnonzero(np.abs(corner) <= _SURE_LARGEST)
    if unsure.size:
        picked = np.arange(unsure.size)
        # Y Z - E on those columns: the columns, negated
        negated = reflectors @ mixing[:, unsure]
        negated[d + unsure, picked] -= 1.0
        largest = negated[np.argmax(np.abs(negated), axis=0), picked]
        signs[unsure] = np.where(largest > 0.0, -1.0, 1.0)
    return Complement(reflectors, mixing, signs)


def orthonormal_complement(q) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``col(q)``.

    ``q`` must already have orthonormal columns (checked to
    ``ORTHONORMALITY_TOL`` in the Frobenius norm). The result is the
    :class:`Complement` of ``col(q)`` formed with one product: ``n - d``
    columns, deterministic for a given input. Where LAPACK's ``dgesdd``
    takes its LQ path (``n >= floor(11 d / 6)``) it is, up to rounding,
    the basis the last ``n - d`` right singular vectors of ``q^T`` give
    under the same sign rule.
    """
    basis = as_matrix(q, "orthonormal_complement argument")
    n, d = basis.shape
    if d > n:
        raise NotOrthonormalError(
            f"{d} columns in dimension {n} cannot be orthonormal"
        )
    defect = np.linalg.norm(basis.T @ basis - np.eye(d))
    if defect > ORTHONORMALITY_TOL:
        raise NotOrthonormalError(
            f"columns are not orthonormal (||Q.T Q - I||_F = {defect:.3e})"
        )
    return _complement_factors(basis).dense()


def minnorm_lstsq(a, b, rank_tol: float | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution ``x`` of ``a @ x = b``.

    The vector right-hand-side form of :func:`pinv_apply`: the
    pseudoinverse solution through a thin SVD with explicit rank
    truncation; normal equations are never formed. A nullspace basis, where
    needed, is ``orthonormal_complement(orthonormal_columns(a.T)[0])``.
    """
    rhs = as_vector(b, "minnorm_lstsq right-hand side")
    return pinv_apply(a, rhs, rank_tol)


def pinv_apply(a, b, rank_tol: float | None = None) -> np.ndarray:
    """Apply the rank-truncated pseudoinverse of ``a`` to ``b``.

    ``b`` is a vector or a matrix with one right-hand side per column; the
    result has ``a.shape[1]`` rows.
    """
    mat = as_matrix(a, "pinv_apply matrix")
    rhs = np.asarray(b, dtype=float)
    if not np.isfinite(rhs).all():
        raise NonFiniteError("pinv_apply right-hand side contains NaN or Inf")
    if rhs.shape[0] != mat.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {mat.shape[0]} rows but operand has {rhs.shape[0]}"
        )
    left, sigma, vt, _ = _truncated_svd(mat, rank_tol)
    per_row = sigma.reshape((-1,) + (1,) * (rhs.ndim - 1))
    return vt.T @ ((left.T @ rhs) / per_row)


@functools.lru_cache(maxsize=32)
def svec_layout(n: int):
    """Index and weight layout of :func:`svec` for ``n x n`` matrices.

    Returns ``(iu, ju, weights)``: the row-major upper-triangle indices and
    the per-entry scale (1 on the diagonal, sqrt(2) off it). The arrays are
    cached per ``n`` and read-only.
    """
    iu, ju = np.triu_indices(n)
    layout = (iu, ju, np.where(iu == ju, 1.0, _SQRT2))
    for array in layout:
        array.flags.writeable = False
    return layout


def svec(h) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix.

    Row-major upper triangle with off-diagonal entries scaled by sqrt(2),
    so that ``norm(svec(H)) == frobenius_norm(H)``. Only the upper triangle
    is read; the input is assumed symmetric.
    """
    mat = as_matrix(h, "svec argument")
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise NotSquareError(f"svec needs a square matrix, got {mat.shape}")
    iu, ju, weights = svec_layout(n)
    return mat[iu, ju] * weights


def smat(v) -> np.ndarray:
    """Inverse of :func:`svec`; reconstructs the symmetric matrix."""
    vec = as_vector(v, "smat argument")
    length = vec.shape[0]
    n = int(round((np.sqrt(8.0 * length + 1.0) - 1.0) / 2.0))
    if n * (n + 1) // 2 != length:
        raise DimensionMismatchError(
            f"length {length} is not a triangular number"
        )
    iu, ju, weights = svec_layout(n)
    entries = vec / weights
    mat = np.zeros((n, n))
    mat[iu, ju] = entries
    mat[ju, iu] = entries
    return mat
