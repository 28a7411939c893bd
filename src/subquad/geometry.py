"""Sample sets, affine-subspace detection, and reduced ("hatted") problems.

A sample set is a base point ``x0`` plus nonzero displacements ``d_i`` and
the function values at ``x0`` and ``x0 + d_i``. When the displacements span
only a ``d``-dimensional subspace, a :class:`SubspaceFrame` captures an
orthonormal basis ``Q`` of that span, and the original data can be mapped to
an equivalent ``d``-dimensional problem.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DuplicatePointError,
    EmptySetError,
    NonFiniteError,
    NotInSubspaceError,
    NotOrthonormalError,
)

#: Relative distance below which two displacements count as duplicates.
DEDUP_RTOL = 1e-12

#: Relative residual allowed when re-expressing displacements in a frame.
SUBSPACE_RTOL = 1e-10

#: Default relative tolerance for declaring interpolation values feasible.
FEASIBILITY_RTOL = 1e-9


class FunctionOracle:
    """Wrap a scalar function of ``x`` and count its evaluations.

    The counter is the only mutable state and is guarded by a lock so the
    oracle can be shared across threads. Values must come back finite.
    """

    def __init__(self, fn, name: str = "", dim: int | None = None):
        self._fn = fn
        self.name = name
        self.dim = dim
        self._count = 0
        self._lock = threading.Lock()

    def __call__(self, x) -> float:
        point = np.asarray(x, dtype=float)
        if self.dim is not None and point.shape != (self.dim,):
            raise DimensionMismatchError(
                f"oracle expects points of dimension {self.dim}, "
                f"got shape {point.shape}"
            )
        value = float(self._fn(point))
        if not np.isfinite(value):
            raise NonFiniteError(
                f"function value at {point!r} is not finite: {value!r}"
            )
        with self._lock:
            self._count += 1
        return value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def __repr__(self):
        label = self.name or getattr(self._fn, "__name__", "fn")
        return f"FunctionOracle({label}, count={self.count})"


def as_oracle(fn) -> FunctionOracle:
    """Return ``fn`` unchanged if it already is an oracle, else wrap it."""
    if isinstance(fn, FunctionOracle):
        return fn
    return FunctionOracle(fn)


@dataclass(frozen=True)
class SampleSet:
    """Base point, displacements (one per row) and interpolation values.

    ``values[0]`` is the function value at ``x0`` and ``values[1 + i]`` the
    value at ``x0 + displacements[i]``. Duplicate displacements (within
    ``DEDUP_RTOL`` relative distance) are merged when their values agree and
    rejected otherwise.
    """

    x0: np.ndarray
    displacements: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "x0")
        disp = linalg.as_matrix(self.displacements, "displacements")
        values = linalg.as_vector(self.values, "values")
        if disp.shape[0] == 0:
            raise EmptySetError("a sample set needs at least one displacement")
        if disp.shape[1] != x0.shape[0]:
            raise DimensionMismatchError(
                f"displacements have dimension {disp.shape[1]} "
                f"but x0 has dimension {x0.shape[0]}"
            )
        if values.shape[0] != disp.shape[0] + 1:
            raise DimensionMismatchError(
                f"expected {disp.shape[0] + 1} values "
                f"(x0 plus one per displacement), got {values.shape[0]}"
            )
        norms = np.linalg.norm(disp, axis=1)
        if np.any(norms == 0.0):
            raise DuplicatePointError(
                "zero displacement duplicates the base point"
            )
        disp, values = _merge_duplicates(disp, values, norms)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "displacements", disp)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_oracle(cls, x0, displacements, fn) -> "SampleSet":
        """Evaluate ``fn`` at the base point and every displaced point."""
        x0 = linalg.as_vector(x0, "x0")
        disp = linalg.as_matrix(displacements, "displacements")
        oracle = as_oracle(fn)
        values = [oracle(x0)]
        values.extend(oracle(x0 + row) for row in disp)
        return cls(x0, disp, np.asarray(values))

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    @property
    def m(self) -> int:
        return self.displacements.shape[0]

    @property
    def delta(self) -> np.ndarray:
        """Value differences ``f(x0 + d_i) - f(x0)``."""
        return self.values[1:] - self.values[0]

    def points(self) -> np.ndarray:
        """All sample points, base point first, one per row."""
        return np.vstack([self.x0, self.x0 + self.displacements])


def _may_have_duplicates(disp, norms) -> bool:
    """False only when no two displacements can be duplicates.

    Screens every pair at once through the Gram matrix. Its squared
    distances, like the per-pair distances :func:`_merge_duplicates`
    computes, are within about ``2 (n + 3) eps`` times
    ``|d_i|^2 + |d_j|^2 + cutoff^2`` of the true ones; a pair is screened
    out only when it clears the squared cutoff by twice that, and a
    non-finite distance always counts as close.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = disp @ disp.T
        sq = np.diag(gram)
        pair_sq = sq[:, None] + sq[None, :]
        dist_sq = pair_sq - 2.0 * gram
        reach = DEDUP_RTOL * np.maximum(np.maximum.outer(norms, norms), 1.0)
        reach_sq = reach * reach
        slack = 4.0 * (disp.shape[1] + 3) * linalg.EPS * (pair_sq + reach_sq)
        close = ~(dist_sq > reach_sq + slack)
    np.fill_diagonal(close, False)
    return bool(close.any())


def _merge_duplicates(disp, values, norms):
    """Drop duplicate displacements; conflicting values are an error."""
    if not _may_have_duplicates(disp, norms):
        return disp, values
    keep = []
    for i in range(disp.shape[0]):
        duplicate_of = None
        for j in keep:
            gap = np.linalg.norm(disp[i] - disp[j])
            if gap <= DEDUP_RTOL * max(norms[i], norms[j], 1.0):
                duplicate_of = j
                break
        if duplicate_of is None:
            keep.append(i)
            continue
        vi, vj = values[1 + i], values[1 + duplicate_of]
        if abs(vi - vj) > 1e-12 * max(1.0, abs(vi), abs(vj)):
            raise DuplicatePointError(
                f"displacements {i} and {duplicate_of} coincide but carry "
                f"conflicting values {vi!r} and {vj!r}"
            )
    if len(keep) == disp.shape[0]:
        return disp, values
    idx = np.asarray(keep, dtype=int)
    return disp[idx], np.concatenate([values[:1], values[1 + idx]])


@dataclass(frozen=True)
class SubspaceFrame:
    """Orthonormal basis ``Q`` of the affine subspace holding a sample set.

    ``dhat`` stores the displacements expressed in the basis (one per row,
    ``d_i = Q @ dhat_i``); it may be ``None`` for frames that only carry a
    basis (e.g. when converting simplex derivatives).
    """

    x0: np.ndarray
    Q: np.ndarray
    dhat: np.ndarray | None = field(default=None)

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "frame x0")
        basis = linalg.as_matrix(self.Q, "frame basis")
        if basis.shape[0] != x0.shape[0]:
            raise DimensionMismatchError(
                f"basis lives in dimension {basis.shape[0]} "
                f"but x0 in dimension {x0.shape[0]}"
            )
        if basis.shape[1] == 0 or basis.shape[1] > basis.shape[0]:
            raise DimensionMismatchError(
                f"a frame needs 1..n basis columns, got shape {basis.shape}"
            )
        defect = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
        if defect > 1e-12:
            raise NotOrthonormalError(
                "frame basis columns are not orthonormal "
                f"(defect {defect:.3e})"
            )
        dhat = self.dhat
        if dhat is not None:
            dhat = linalg.as_matrix(dhat, "frame dhat")
            if dhat.shape[1] != basis.shape[1]:
                raise DimensionMismatchError(
                    f"dhat columns ({dhat.shape[1]}) must match the "
                    f"subspace dimension ({basis.shape[1]})"
                )
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "Q", basis)
        object.__setattr__(self, "dhat", dhat)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def d(self) -> int:
        return self.Q.shape[1]

    @cached_property
    def complement(self) -> np.ndarray:
        """Orthonormal basis of ``col(Q)^perp`` (shape ``(n, n - d)``)."""
        return linalg.orthonormal_complement(self.Q)


def detect_subspace(sample_set: SampleSet,
                    rank_tol: float | None = None) -> SubspaceFrame:
    """Find the span of the displacements and express them in it.

    Returns a frame whose basis has exactly ``rank`` columns; the hatted
    displacements satisfy ``d_i = Q @ dhat_i`` up to roundoff.
    """
    span = sample_set.displacements.T
    basis, rank = linalg.orthonormal_columns(span, rank_tol)
    if rank == 0:
        raise EmptySetError("displacements span a zero-dimensional space")
    dhat = sample_set.displacements @ basis
    return SubspaceFrame(sample_set.x0, basis, dhat)


def hat_function(fn, frame: SubspaceFrame) -> FunctionOracle:
    """Pull a full-space function back onto the frame's subspace.

    The result maps ``xhat`` to ``f(x0 + Q @ xhat)``; evaluation counting
    passes through to the wrapped oracle.
    """
    oracle = as_oracle(fn)
    if oracle.dim is not None and oracle.dim != frame.n:
        raise DimensionMismatchError(
            f"oracle dimension {oracle.dim} does not match frame "
            f"dimension {frame.n}"
        )
    x0, basis = frame.x0, frame.Q

    def hatted(xhat):
        return oracle(x0 + basis @ xhat)

    name = f"hat({oracle.name})" if oracle.name else "hatted"
    return FunctionOracle(hatted, name=name, dim=frame.d)


def _span_coordinates(displacements: np.ndarray, basis: np.ndarray):
    """Coordinates ``D Q`` of the displacements in ``col(Q)``, and the worst
    distance of a displacement from that span relative to its length."""
    dhat = displacements @ basis
    residual = displacements - dhat @ basis.T
    norms = np.linalg.norm(displacements, axis=1)
    return dhat, np.max(np.linalg.norm(residual, axis=1) / norms)


def hat_sampleset(sample_set: SampleSet, frame: SubspaceFrame,
                  tol: float = SUBSPACE_RTOL) -> SampleSet:
    """Express a sample set in frame coordinates (values unchanged).

    Raises :class:`NotInSubspaceError` if some displacement leaves the
    frame's span by more than ``tol`` relative to its length.
    """
    if frame.n != sample_set.n:
        raise DimensionMismatchError(
            f"frame dimension {frame.n} does not match sample set "
            f"dimension {sample_set.n}"
        )
    dhat, worst = _span_coordinates(sample_set.displacements, frame.Q)
    if worst > tol:
        raise NotInSubspaceError(
            f"displacements leave the frame span (relative residual "
            f"{worst:.3e} > {tol:.1e})"
        )
    return SampleSet(np.zeros(frame.d), dhat, sample_set.values)


def quadratic_constraint_matrix(displacements) -> np.ndarray:
    """Interpolation-constraint rows over ``(alpha, svec(H))`` unknowns.

    Row ``i`` is ``[d_i^T, svec(d_i d_i^T / 2)^T]`` so that the row dotted
    with ``[alpha, svec(H)]`` equals ``d_i . alpha + d_i^T H d_i / 2``.
    """
    disp = linalg.as_matrix(displacements, "displacements")
    iu, ju, weights = linalg.svec_layout(disp.shape[1])
    return np.hstack([disp, (disp[:, iu] * disp[:, ju] / 2.0) * weights])


def _stacked_solve(displacements: np.ndarray, delta: np.ndarray, rank_tol):
    """``(alpha, H)`` of the min-norm solve of the interpolation constraints
    over ``(alpha, svec(H))``, from one factorization of the stacked
    matrix."""
    matrix = quadratic_constraint_matrix(displacements)
    solution = linalg.minnorm_lstsq(matrix, delta, rank_tol)
    n = displacements.shape[1]
    return solution[:n], linalg.smat(solution[n:])


def _solve_in_span(kernel, displacements: np.ndarray, delta: np.ndarray,
                   rank_tol, system_shape, dense: bool = False):
    """Run ``kernel(D, delta, rank_tol) -> (alpha, H)`` in span coordinates
    and lift the result; returns ``(Q, alpha, H)``.

    ``Q`` is the orthonormal basis of the span of the displacements. With
    ``D = D_hat Q^T`` the dense system is the one in the ``r`` span
    coordinates times an isometry, so both have the same nonzero singular
    values and the dense minimizer is the lift ``alpha = Q alpha_hat``,
    ``H = Q H_hat Q^T``. The rank cutoff is the one the dense system
    (shape ``system_shape``) would use. The kernel runs on the dense ``D``
    itself when ``dense`` is set, when ``Q`` spans all of R^n, or when a
    displacement leaves ``col(Q)`` by more than ``SUBSPACE_RTOL`` (a large
    ``rank_tol`` dropped a direction the data uses).
    """
    basis = linalg.orthonormal_columns(displacements.T, rank_tol)[0]
    if rank_tol is None:
        rank_tol = linalg.default_rank_tol(*system_shape)
    if not dense and basis.shape[1] < basis.shape[0]:
        dhat, worst = _span_coordinates(displacements, basis)
        if worst <= SUBSPACE_RTOL:
            alpha, hess = kernel(dhat, delta, rank_tol)
            return basis, basis @ alpha, linalg.sym_part(
                basis @ hess @ basis.T
            )
    alpha, hess = kernel(displacements, delta, rank_tol)
    # An ill-conditioned dense solve can leak a gradient component the
    # displacements never see; the minimizer has none.
    return basis, basis @ (basis.T @ alpha), hess


def _min_norm_quadratic(sample_set: SampleSet, rank_tol,
                        dense: bool = False):
    """``(Q, alpha, H)`` of the quadratic minimizing
    ``||alpha||^2 + ||H||_F^2`` subject to the interpolation constraints."""
    m, n = sample_set.displacements.shape
    return _solve_in_span(
        _stacked_solve, sample_set.displacements, sample_set.delta,
        rank_tol, (m, n + n * (n + 1) // 2), dense,
    )


def _interpolation_residual(sample_set: SampleSet, grad, hess):
    """``(residual, scale)`` of the quadratic ``(grad, hess)`` on the set:
    worst ``|d_i . grad + d_i^T hess d_i / 2 - delta_i|``, and
    ``max(1, max |values|)``."""
    disp = sample_set.displacements
    curvature = ((disp @ hess) * disp).sum(axis=1)
    residual = float(np.max(np.abs(
        disp @ grad + 0.5 * curvature - sample_set.delta
    )))
    return residual, max(1.0, float(np.max(np.abs(sample_set.values))))


def feasibility_residual(sample_set: SampleSet,
                         rank_tol: float | None = None):
    """Worst constraint residual of the minimum-norm quadratic.

    Returns ``(residual, scale)`` where ``scale = max(1, max |values|)``;
    the set is considered feasible when ``residual <= tol * scale``.
    """
    _, grad, hess = _min_norm_quadratic(sample_set, rank_tol)
    return _interpolation_residual(sample_set, grad, hess)


def interpolation_feasible(sample_set: SampleSet,
                           rank_tol: float | None = None,
                           feas_tol: float = FEASIBILITY_RTOL) -> bool:
    """True iff some quadratic interpolates all the sample values."""
    residual, scale = feasibility_residual(sample_set, rank_tol)
    return residual <= feas_tol * scale


def poised_for_quadratic(sample_set: SampleSet,
                         rank_tol: float | None = None) -> bool:
    """True iff the set determines a *unique* interpolating quadratic.

    Requires the cardinality ``m + 1 == (n + 1)(n + 2) / 2`` and a
    nonsingular interpolation system at the rank tolerance.
    """
    n = sample_set.n
    if sample_set.m + 1 != (n + 1) * (n + 2) // 2:
        return False
    matrix = quadratic_constraint_matrix(sample_set.displacements)
    if rank_tol is None:
        rank_tol = linalg.default_rank_tol(*matrix.shape)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return linalg.numerical_rank(sigma, rank_tol) == sigma.size
