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

Feasibility is judged on the model a fit returns: ``fit_mn``, ``fit_mfn``
and ``fit_lfu`` raise :class:`InfeasibleError` exactly when that model misses
one of the caller's values by more than ``feas_tol * max(1, max |values|)``.
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
    _interpolation_residual,
    _stacked_solve,
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


def _require_interpolates(sample_set: SampleSet, model, feas_tol):
    """Raise unless ``model`` meets the set's values within ``feas_tol``."""
    residual, scale = _interpolation_residual(sample_set, model.g, model.H)
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


def _stacked_model(sample_set: SampleSet, rank_tol, kind: str) -> ModelResult:
    """Model from the stacked ``(alpha, svec(H))`` min-norm solution."""
    n = sample_set.n
    solution = _stacked_solve(sample_set, rank_tol)
    span_basis = _span_basis(sample_set.displacements, rank_tol)
    alpha = _project_span(solution[:n], span_basis)
    model = QuadraticModel(
        sample_set.x0, sample_set.values[0], alpha,
        linalg.smat(solution[n:]),
    )
    return ModelResult(model, GradientFamily(alpha, np.zeros((n, 0))), kind)


def fit_mn(sample_set: SampleSet,
           rank_tol: float | None = None,
           feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Minimum-norm model: smallest ``||alpha||^2 + ||H||_F^2`` jointly.

    Because the vectorization is isometric, one stacked minimum-norm
    least-squares solve yields the unique minimizer; the gradient family
    is a single point. Values that no quadratic meets leave the returned
    model with a residual, which is what the feasibility check measures.
    """
    result = _stacked_model(sample_set, rank_tol, "mn")
    _require_interpolates(sample_set, result.model, feas_tol)
    return result


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
    return _stacked_model(sample_set, rank_tol, "dqi")


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
    solution = linalg.minnorm_lstsq(kkt, rhs, rank_tol)
    mu, alpha = solution[:m], solution[m:]
    alpha = _project_span(alpha, span_basis)
    hess = (span * mu) @ span.T                 # sum_i mu_i d_i d_i^T
    return alpha, linalg.sym_part(hess)


def _least_change(sample_set: SampleSet, href, rank_tol, feas_tol):
    """Smallest Hessian update from ``href`` (from zero when ``None``) that
    meets the values less the reference quadratic's ``d_i^T Href d_i / 2``.
    """
    disp = sample_set.displacements
    values = sample_set.values
    if href is None:
        delta = sample_set.delta
    else:
        shift = 0.5 * np.einsum("ij,jk,ik->i", disp, href, disp)
        delta = (values[1:] - shift) - values[0]
    span_basis = _span_basis(disp, rank_tol)
    alpha, hess = _solve_min_frobenius(disp, delta, span_basis, rank_tol)
    if href is not None:
        hess = linalg.sym_part(href + hess)
    model = QuadraticModel(sample_set.x0, values[0], alpha, hess)
    _require_interpolates(sample_set, model, feas_tol)
    family = GradientFamily(alpha, linalg.orthonormal_complement(span_basis))
    kind = "mfn" if href is None else "lfu"
    return ModelResult(model, family, kind, reference_hessian=href)


def fit_mfn(sample_set: SampleSet,
            rank_tol: float | None = None,
            feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Minimum-Frobenius-norm-Hessian model: least change from no reference.

    The Hessian is unique; the gradient is determined only up to directions
    orthogonal to every displacement, reported as the ambiguity basis.
    """
    return _least_change(sample_set, None, rank_tol, feas_tol)


def fit_lfu(sample_set: SampleSet, href,
            rank_tol: float | None = None,
            feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Least-change model: Hessian closest (Frobenius) to ``href``.

    Reduces exactly to the minimum-Frobenius fit of the value differences
    left after the reference quadratic's contribution; with ``href = 0``
    it is :func:`fit_mfn`.
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
    return _least_change(sample_set, linalg.sym_part(href), rank_tol, feas_tol)
