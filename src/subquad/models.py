r"""Quadratic interpolation models built from sample sets.

Four constructions share the interpolation constraints

    d_i . alpha + (1/2) d_i^T H d_i = f(x0 + d_i) - f(x0),   i = 1..m:

``fit_dqi``
    determined interpolation on a poised set (unique quadratic);
``fit_mn``
    minimizes ``||alpha||^2 / 2 + ||H||_F^2 / 2`` (unique);
``fit_mfn``
    minimizes ``||H||_F^2 / 2`` (Hessian unique, gradient a family);
``fit_lfu``
    minimizes ``||H - Href||_F^2 / 2`` for a reference Hessian ``Href``.

Whenever the gradient is non-unique the full solution set is the canonical
(minimum-norm) gradient plus the span of an orthonormal ambiguity basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    NotPoisedError,
    NotSquareError,
)
from .geometry import (
    FEASIBILITY_RTOL,
    SampleSet,
    _stacked_solve,
    feasibility_residual,
    poised_for_quadratic,
)


@dataclass(frozen=True)
class QuadraticModel:
    """Quadratic ``m(x) = c + g.(x - x0) + (x - x0)^T H (x - x0) / 2``.

    ``H`` is stored exactly as supplied; interpolation fits always produce
    an exactly symmetric matrix, while simplex-derivative models may carry
    a raw nonsymmetric one (only its symmetric part affects values).
    """

    x0: np.ndarray
    c: float
    g: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "model x0")
        grad = linalg.as_vector(self.g, "model gradient")
        hess = linalg.as_matrix(self.H, "model Hessian")
        if not np.isfinite(self.c):
            raise InfeasibleError(f"model constant {self.c!r} is not finite")
        n = x0.shape[0]
        if grad.shape[0] != n or hess.shape != (n, n):
            raise DimensionMismatchError(
                f"inconsistent model dimensions: x0 {x0.shape}, "
                f"g {grad.shape}, H {hess.shape}"
            )
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "g", grad)
        object.__setattr__(self, "H", hess)

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def __call__(self, x) -> float:
        return evaluate(self, x)


@dataclass(frozen=True)
class GradientFamily:
    """Affine family ``canonical + ambiguity_basis @ coeffs`` of gradients.

    ``canonical`` is the minimum-Euclidean-norm member; the basis columns
    are orthonormal (possibly zero of them, in which case the gradient is
    unique).
    """

    canonical: np.ndarray
    ambiguity_basis: np.ndarray

    def __post_init__(self):
        canonical = linalg.as_vector(self.canonical, "canonical gradient")
        basis = linalg.as_matrix(self.ambiguity_basis, "ambiguity basis")
        if basis.shape[0] != canonical.shape[0]:
            raise DimensionMismatchError(
                f"ambiguity basis rows ({basis.shape[0]}) must match the "
                f"gradient dimension ({canonical.shape[0]})"
            )
        if basis.shape[1]:
            defect = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
            if defect > 1e-10:
                raise DimensionMismatchError(
                    "ambiguity basis columns are not orthonormal"
                )
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "ambiguity_basis", basis)

    @property
    def dim(self) -> int:
        """Number of free directions in the family."""
        return self.ambiguity_basis.shape[1]


@dataclass(frozen=True)
class ModelResult:
    """A fitted model plus its gradient family and bookkeeping.

    ``reference_hessian`` is set for least-change fits, ``sample_points``
    for stencil-based fits (the exact points consumed), and
    ``correction_applied`` by subspace lifts that add a reference-Hessian
    correction term.
    """

    model: QuadraticModel
    gradients: GradientFamily
    kind: str
    reference_hessian: np.ndarray | None = None
    sample_points: np.ndarray | None = None
    correction_applied: bool | None = None

    @property
    def n(self) -> int:
        return self.model.n


def evaluate(model: QuadraticModel, x) -> float:
    """Value of the quadratic model at ``x``."""
    step = np.asarray(x, dtype=float) - model.x0
    if step.shape != model.x0.shape:
        raise DimensionMismatchError(
            f"point of shape {np.shape(x)} does not match model "
            f"dimension {model.n}"
        )
    return float(model.c + model.g @ step + 0.5 * step @ (model.H @ step))


def member(gradients: GradientFamily, coeffs) -> np.ndarray:
    """Family member ``canonical + ambiguity_basis @ coeffs``."""
    coeffs = linalg.as_vector(coeffs, "member coefficients")
    if coeffs.shape[0] != gradients.dim:
        raise DimensionMismatchError(
            f"expected {gradients.dim} coefficients, got {coeffs.shape[0]}"
        )
    if gradients.dim == 0:
        return gradients.canonical.copy()
    return gradients.canonical + gradients.ambiguity_basis @ coeffs


def _unique_family(g: np.ndarray) -> GradientFamily:
    return GradientFamily(g, np.zeros((g.shape[0], 0)))


def _require_feasible(check, feas_tol):
    """Raise unless ``check = (residual, scale)`` is within ``feas_tol``."""
    residual, scale = check
    if residual > feas_tol * scale:
        raise InfeasibleError(
            "no quadratic interpolates these values "
            f"(residual {residual:.3e} > {feas_tol:.1e} * {scale:.3e})",
            residual=residual,
        )


def _span_basis(displacements: np.ndarray, rank_tol) -> np.ndarray:
    """Orthonormal basis of the span of the displacement directions."""
    return linalg.orthonormal_columns(displacements.T, rank_tol)[0]


def _project_span(alpha: np.ndarray, span_basis: np.ndarray):
    """Drop the component of ``alpha`` unseen by the displacements.

    The minimizers below all have gradients inside the span of the
    displacement directions (any orthogonal component could be removed
    without touching the constraints, shrinking the objective), but an
    ill-conditioned solve can leak one in.  Exact-arithmetic no-op.
    """
    return span_basis @ (span_basis.T @ alpha)


def _stacked_model(sample_set: SampleSet, solution: np.ndarray, rank_tol,
                   kind: str) -> ModelResult:
    """Model from a stacked ``(alpha, svec(H))`` solution."""
    n = sample_set.n
    span_basis = _span_basis(sample_set.displacements, rank_tol)
    alpha = _project_span(solution[:n], span_basis)
    model = QuadraticModel(
        sample_set.x0, sample_set.values[0], alpha,
        linalg.smat(solution[n:]),
    )
    return ModelResult(model, _unique_family(alpha), kind)


def fit_mn(sample_set: SampleSet,
           rank_tol: float | None = None,
           feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Minimum-norm model: smallest ``||alpha||^2 + ||H||_F^2`` jointly.

    Because the vectorization is isometric, one stacked minimum-norm
    least-squares solve yields the unique minimizer; the gradient family
    is a single point. The same factorization answers the feasibility
    check.
    """
    solution, check = _stacked_solve(sample_set, rank_tol)
    _require_feasible(check, feas_tol)
    return _stacked_model(sample_set, solution, rank_tol, "mn")


def fit_dqi(sample_set: SampleSet,
            rank_tol: float | None = None) -> ModelResult:
    """Determined quadratic interpolation on a poised sample set.

    The interpolation system is square and nonsingular, so the unique
    solution coincides with the minimum-norm one.
    """
    if not poised_for_quadratic(sample_set, rank_tol):
        raise NotPoisedError(
            f"sample set with m={sample_set.m}, n={sample_set.n} does not "
            "determine a unique quadratic"
        )
    solution, _ = _stacked_solve(sample_set, rank_tol)
    return _stacked_model(sample_set, solution, rank_tol, "dqi")


def _solve_min_frobenius(displacements: np.ndarray, delta: np.ndarray,
                         span_basis: np.ndarray, rank_tol):
    """Smallest-Frobenius-norm Hessian meeting the constraints.

    Works in multiplier form: stationarity gives ``H = sum_i mu_i d_i d_i^T``
    and ``D @ mu = 0``, leading to the symmetric system

        [ A    D^T ] [ mu    ]   [ delta ]
        [ D    0   ] [ alpha ] = [ 0     ],   A_ji = (d_i . d_j)^2 / 2.

    A minimum-norm solve covers the singular case and simultaneously
    canonicalizes ``alpha`` (its nullspace component is dropped). Returns
    ``(alpha, H)`` with ``H`` exactly symmetric.
    """
    span = displacements.T                      # D, shape (n, m)
    n, m = span.shape
    gram = span.T @ span
    kkt = np.zeros((m + n, m + n))
    kkt[:m, :m] = 0.5 * gram * gram
    kkt[:m, m:] = span.T
    kkt[m:, :m] = span
    rhs = np.concatenate([delta, np.zeros(n)])
    kkt_tol = rank_tol
    if kkt_tol is None:
        kkt_tol = linalg.default_rank_tol(m + n, m + n)
    solution = linalg.minnorm_lstsq(kkt, rhs, kkt_tol)
    mu, alpha = solution[:m], solution[m:]
    alpha = _project_span(alpha, span_basis)
    hess = (span * mu) @ span.T                 # sum_i mu_i d_i d_i^T
    return alpha, linalg.sym_part(hess)


def fit_mfn(sample_set: SampleSet,
            rank_tol: float | None = None,
            feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Minimum-Frobenius-norm-Hessian model.

    The Hessian is unique; the gradient is determined only up to directions
    orthogonal to every displacement, reported as the ambiguity basis.
    """
    _require_feasible(feasibility_residual(sample_set, rank_tol), feas_tol)
    span_basis = _span_basis(sample_set.displacements, rank_tol)
    alpha, hess = _solve_min_frobenius(
        sample_set.displacements, sample_set.delta, span_basis, rank_tol
    )
    family = GradientFamily(
        alpha, linalg.orthonormal_complement(span_basis)
    )
    model = QuadraticModel(sample_set.x0, sample_set.values[0], alpha, hess)
    return ModelResult(model, family, "mfn")


def fit_lfu(sample_set: SampleSet, href,
            rank_tol: float | None = None,
            feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Least-change model: Hessian closest (Frobenius) to ``href``.

    Reduces exactly to :func:`fit_mfn`: subtract the reference quadratic's
    contribution ``d_i^T Href d_i / 2`` from each value difference, solve
    for the smallest update, and add ``href`` back.
    """
    href = linalg.as_matrix(href, "reference Hessian")
    n = sample_set.n
    if href.shape[0] != href.shape[1]:
        raise NotSquareError(
            f"reference Hessian must be square, got {href.shape}"
        )
    if href.shape != (n, n):
        raise DimensionMismatchError(
            f"reference Hessian shape {href.shape} does not match "
            f"dimension {n}"
        )
    if np.max(np.abs(href - href.T)) > 1e-12 * max(1.0, np.max(np.abs(href))):
        raise NotSquareError("reference Hessian must be symmetric")
    href = linalg.sym_part(href)
    disp = sample_set.displacements
    shift = 0.5 * np.einsum("ij,jk,ik->i", disp, href, disp)
    shifted = SampleSet(
        sample_set.x0,
        disp,
        np.concatenate([sample_set.values[:1], sample_set.values[1:] - shift]),
    )
    _require_feasible(feasibility_residual(shifted, rank_tol), feas_tol)
    span_basis = _span_basis(disp, rank_tol)
    alpha, update = _solve_min_frobenius(
        disp, shifted.delta, span_basis, rank_tol
    )
    hess = linalg.sym_part(href + update)
    family = GradientFamily(alpha, linalg.orthonormal_complement(span_basis))
    model = QuadraticModel(sample_set.x0, sample_set.values[0], alpha, hess)
    return ModelResult(model, family, "lfu", reference_hessian=href)
