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
``fit_mfn`` and ``fit_lfu`` hold that basis implicitly, as the orthogonal
complement of the span of the displacements (see :class:`GradientFamily`),
and build it only when it is read.

Full-space ``fit_mn``, ``fit_mfn`` and ``fit_lfu`` are solved in the
coordinates of the span of the displacements: with ``Q`` an orthonormal
basis of that span (rank ``r``) and ``D = D_hat Q^T``, the fit runs on the
``r``-dimensional system and is lifted exactly as ``g = Q g_hat``,
``H = Q H_hat Q^T`` (plus ``Href`` for ``fit_lfu``), at the rank cutoff of
the dense ``n``-dimensional system. The dense solve remains the fallback,
taken when ``r == n`` or when the displacements leave ``col(Q)`` by more
than ``SUBSPACE_RTOL`` (possible only with a large ``rank_tol``), and is the
reference the verification harness compares the span route with.
``fit_dqi`` solves its square system from the SVD that finds it poised.

Feasibility is judged on the model a fit returns: ``fit_mn``, ``fit_mfn``
and ``fit_lfu`` raise :class:`InfeasibleError` exactly when that model misses
one of the caller's values by more than ``feas_tol * max(1, max |values|)``.

A :class:`QuadraticModel` holds its Hessian as an ``n x n`` array (every fit
returns one) or as a :class:`FactoredHessian` ``(Q, Hhat, Href)`` (every
subspace lift and every lift file loaded), and only its own operations
(values, among them the values one unit step along each column of a
:class:`~subquad.linalg.Complement`, ``s^T H s``, ``sym(H) x``, ``B^T H
B``, ``||H - B A B^T||_F``) ask which; ``model.H`` materializes the array
on first read and keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    _min_norm_quadratic,
    _poised_factors,
    _solve_in_span,
)


#: Largest asymmetry ``max |Href - Href^T|`` a reference Hessian may have,
#: relative to ``max(1, max |Href|)``: rounding, not a meant asymmetry.
SYMMETRY_RTOL = 1e-12

#: Floats in one row block of a streamed pass over an ``n x n`` array.
_BLOCK_FLOATS = 1 << 17


def held_reference(href, n: int) -> np.ndarray:
    """The form every fit, lift, restriction and file holds a reference
    Hessian in. A length-``n`` vector ``v`` stands for ``diag(v)``. An
    ``n x n`` array asymmetric beyond ``SYMMETRY_RTOL`` raises
    :class:`NotSquareError`. One equal to its transpose by its bits is
    copied, any other (a ``+0.0``/``-0.0`` mirror pair too) replaced by its
    exactly symmetric part; either becomes the vector of its diagonal when
    every off-diagonal entry is ``+0.0`` by its bits.
    """
    arr = np.asarray(href, dtype=float)
    if arr.ndim == 1:
        mat = linalg.as_vector(arr, "reference Hessian diagonal")
    else:
        mat = linalg.as_matrix(arr, "reference Hessian")
        if mat.shape[0] != mat.shape[1]:
            raise NotSquareError(
                f"reference Hessian must be square, got {mat.shape}"
            )
    if mat.shape != (n,) * mat.ndim:
        raise DimensionMismatchError(
            f"reference Hessian of shape {mat.shape} does not match the "
            f"full dimension {n}"
        )
    if mat.ndim == 1:
        return mat
    # equal to its transpose by bits, in cache-sized blocks from the diagonal
    bits = np.ascontiguousarray(mat).view(np.uint64)
    rows = max(1, _BLOCK_FLOATS // max(n, 1))
    if not all(np.array_equal(bits[i:i + rows, i:], bits[i:, i:i + rows].T)
               for i in range(0, n, rows)):
        scale = max(1.0, float(np.max(np.abs(mat))))
        if np.max(np.abs(mat - mat.T)) > SYMMETRY_RTOL * scale:
            raise NotSquareError("reference Hessian must be symmetric")
        mat = linalg.sym_part(mat)
        bits = mat.view(np.uint64)
    if np.count_nonzero(bits) == np.count_nonzero(np.diagonal(bits)):
        return np.diag(mat).copy()
    return mat.copy() if mat is arr else mat


def dense_reference(href: np.ndarray) -> np.ndarray:
    """The array of a reference Hessian held as an array or as the vector
    of its diagonal."""
    return np.diag(href) if href.ndim == 1 else href


def restricted_reference(href: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``sym_part(B^T Href B)`` for a reference held as an array or as the
    vector of its diagonal; ``O(n k^2)`` for the vector, whose C-ordered
    left factor gives the bits of the array's."""
    if href.ndim == 1:
        return linalg.sym_part(np.ascontiguousarray(basis.T * href) @ basis)
    return linalg.sym_part(basis.T @ href @ basis)


def _reference_gap(href: np.ndarray, basis: np.ndarray,
                   restricted: np.ndarray) -> float:
    """``||Href - B R B^T||_F`` for an orthonormal ``n x k`` ``B`` and its
    ``R = restricted_reference(Href, B)``, summed over row blocks of at
    most ``_BLOCK_FLOATS`` entries: ``O(n^2 k)``, no ``n x n`` array."""
    n = basis.shape[0]
    right = -restricted @ basis.T
    rows = max(1, _BLOCK_FLOATS // n)
    total = 0.0
    for start in range(0, n, rows):
        block = basis[start:start + rows] @ right
        if href.ndim == 1:
            index = np.arange(block.shape[0])
            block[index, index + start] += href[start:start + rows]
        else:
            block += href[start:start + rows]
        total += float(np.vdot(block, block))
    return float(np.sqrt(total))


@dataclass(frozen=True)
class FactoredHessian:
    """The Hessian ``Q Hhat Q^T + Href - Q (Q^T Href Q) Q^T`` held as its
    factors ``(Q, Hhat, Href)``, as a subspace lift builds it.

    ``basis`` is ``Q`` (``n x d``, orthonormal columns to
    ``ORTHONORMALITY_TOL``), ``core`` the ``d x d`` subspace Hessian and
    ``href`` the least-change reference in its :func:`held_reference` form,
    or ``None`` for no correction. Every operation reads the one
    expression ``H = Q M Q^T + Href`` with ``M = sym(Hhat) - sym(Q^T Href
    Q)``: a product with a vector costs ``O(n d)`` plus the reference's own
    product, a Frobenius gap ``O(n d^2)`` plus, with ``Href``, one
    ``O(n^2 d)`` pass in row blocks, and only :meth:`dense` forms the
    ``n x n`` array.
    """

    basis: np.ndarray
    core: np.ndarray
    href: np.ndarray | None = None

    def __post_init__(self):
        basis = linalg.as_matrix(self.basis, "Hessian basis")
        core = linalg.as_matrix(self.core, "subspace Hessian")
        n, d = basis.shape
        if core.shape != (d, d):
            raise DimensionMismatchError(
                f"subspace Hessian of shape {core.shape} does not match "
                f"the {d} basis columns"
            )
        _require_orthonormal(basis, "Hessian basis")
        href = None if self.href is None else held_reference(self.href, n)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "href", href)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def restricted(self) -> np.ndarray | None:
        """``sym(Q^T Href Q)``, or ``None`` without ``Href``."""
        if self.href is None:
            return None
        return restricted_reference(self.href, self.basis)

    @cached_property
    def middle(self) -> np.ndarray:
        """``sym(Hhat) - sym(Q^T Href Q)``, so that ``H = Q M Q^T + Href``."""
        middle = linalg.sym_part(self.core)
        if self.href is not None:
            middle = middle - self.restricted
        return middle

    def dense(self) -> np.ndarray:
        """The ``n x n`` array ``sym(Q M Q^T) + Href``."""
        lifted = linalg.sym_part(self.basis @ self.middle @ self.basis.T)
        if self.href is None:
            return lifted
        return lifted + dense_reference(self.href)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``H @ x`` for a vector or an ``n x k`` matrix ``x``."""
        out = self.basis @ (self.middle @ (self.basis.T @ x))
        href = self.href
        if href is not None and href.ndim == 1:
            out += href.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        elif href is not None:
            out += href @ x
        return out

    def diagonal(self) -> np.ndarray:
        """The diagonal of ``H``, ``O(n d^2)``."""
        out = np.sum((self.basis @ self.middle) * self.basis, axis=1)
        href = self.href
        if href is not None:
            out += href if href.ndim == 1 else np.diagonal(href)
        return out

    def curvature(self, steps: np.ndarray) -> np.ndarray:
        """``s^T H s`` for every row ``s`` of ``steps``."""
        coords = steps @ self.basis
        out = np.sum((coords @ self.middle) * coords, axis=1)
        href = self.href
        if href is not None and href.ndim == 1:
            out += np.square(steps) @ href
        elif href is not None:
            out += np.sum((steps @ href) * steps, axis=1)
        return out

    def project(self, basis: np.ndarray) -> np.ndarray:
        """``B^T H B`` for an ``n x k`` basis ``B``."""
        coords = self.basis.T @ basis
        out = coords.T @ self.middle @ coords
        if self.href is not None:
            out += restricted_reference(self.href, basis)
        return out

    def distances(self, basis: np.ndarray, cores) -> list:
        """``||H - B A B^T||_F`` for an ``n x k`` ``B`` and each ``k x k``
        ``A`` in ``cores``; a zero ``A`` gives ``||H||_F``.

        With the thin QR ``[Q, B] = U R``, ``H - B A B^T = U S U^T + Href``
        for ``S = R blockdiag(M, -A) R^T``. Its squared norm is ``||S + U^T
        Href U||^2 + ||Href - U U^T Href U U^T||^2``: the first term is
        ``O(n d^2)``, the second one row-block pass shared by every ``A``.
        """
        d = self.core.shape[0]
        unitary, upper = np.linalg.qr(np.hstack([self.basis, basis]))
        lead, tail = upper[:, :d], upper[:, d:]
        inner = lead @ self.middle @ lead.T
        outside = 0.0
        if self.href is not None:
            restricted = restricted_reference(self.href, unitary)
            inner += restricted
            outside = _reference_gap(self.href, unitary, restricted)
        return [
            float(np.hypot(np.linalg.norm(inner - tail @ core @ tail.T),
                           outside))
            for core in cores
        ]

    def correction_norm(self) -> float:
        """``||Href - Q (Q^T Href Q) Q^T||_F``, zero without ``Href``."""
        if self.href is None:
            return 0.0
        return _reference_gap(self.href, self.basis, self.restricted)


@dataclass(frozen=True)
class QuadraticModel:
    """Quadratic ``m(x) = c + g.(x - x0) + (x - x0)^T H (x - x0) / 2``.

    ``hessian`` is the ``n x n`` array ``H`` or a :class:`FactoredHessian`,
    which ``factored`` also holds (``None`` for an array). An array is
    stored exactly as supplied; interpolation fits always produce an
    exactly symmetric matrix, while simplex-derivative models may carry a
    raw nonsymmetric one (only its symmetric part affects values). ``H``
    reads the Hessian as an array, materialized once on first read for a
    factored one.
    """

    x0: np.ndarray
    c: float
    g: np.ndarray
    hessian: np.ndarray | FactoredHessian
    factored: FactoredHessian | None = field(init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        x0 = linalg.as_vector(self.x0, "model x0")
        grad = linalg.as_vector(self.g, "model gradient")
        hess = factored = self.hessian
        if isinstance(hess, FactoredHessian):
            shape = (hess.n, hess.n)
        else:
            factored = None
            hess = linalg.as_matrix(hess, "model Hessian")
            shape = hess.shape
            object.__setattr__(self, "H", hess)  # read without the property
        if not np.isfinite(self.c):
            raise InfeasibleError(f"model constant {self.c!r} is not finite")
        n = x0.shape[0]
        if grad.shape[0] != n or shape != (n, n):
            raise DimensionMismatchError(
                f"inconsistent model dimensions: x0 {x0.shape}, "
                f"g {grad.shape}, H {shape}"
            )
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "g", grad)
        object.__setattr__(self, "hessian", hess)
        object.__setattr__(self, "factored", factored)

    @cached_property
    def H(self) -> np.ndarray:
        return self.hessian.dense()

    @property
    def n(self) -> int:
        return self.x0.shape[0]

    def __call__(self, x) -> float:
        return evaluate(self, x)

    def values(self, points: np.ndarray) -> np.ndarray:
        """The model's values at the rows of ``points``."""
        steps = points - self.x0
        return self.c + steps @ self.g + 0.5 * self.curvature(steps)

    def curvature(self, steps: np.ndarray) -> np.ndarray:
        """``s^T H s`` for every row ``s`` of ``steps``."""
        if self.factored is not None:
            return self.factored.curvature(steps)
        return np.sum((steps @ self.H.T) * steps, axis=1)

    def complement_values(self, origin: np.ndarray,
                          complement: linalg.Complement) -> np.ndarray:
        """The model's values at ``origin + c_j`` for every column ``c_j``
        of ``complement``'s ``C``.

        That is ``m(origin) + C^T h + diag(C^T H C) / 2`` for the gradient
        ``h`` at ``origin``, with the diagonal from ``diag(H)`` and
        :meth:`sym_dot` on ``d`` columns. It costs ``O(n d^2)`` for a
        factored Hessian with no reference or a diagonal one, and ``O(n^2
        d)`` with a dense one or for an array.
        """
        if self.factored is not None:
            diagonal = self.factored.diagonal()
        else:
            diagonal = np.diagonal(self.H)
        curvature = complement.curvature(diagonal, self.sym_dot)
        step = origin - self.x0
        slope = self.g + self.sym_dot(step)
        # m(origin) = c + s.g + s.sym(H) s / 2 = c + s.(g + slope) / 2
        base = self.c + 0.5 * (step @ (self.g + slope))
        return base + complement.coordinates(slope) + 0.5 * curvature

    def sym_dot(self, x: np.ndarray) -> np.ndarray:
        """``sym(H) x`` for a vector or an ``n x k`` matrix ``x``."""
        if self.factored is not None:
            return self.factored.dot(x)
        return 0.5 * (self.H @ x + (x.T @ self.H).T)

    def project(self, basis: np.ndarray) -> np.ndarray:
        """``B^T H B`` for an ``n x k`` basis ``B``."""
        if self.factored is not None:
            return self.factored.project(basis)
        return basis.T @ self.H @ basis

    def distances(self, basis: np.ndarray, cores) -> list:
        """``||H - B A B^T||_F`` for an ``n x k`` ``B`` and each ``k x k``
        ``A`` in ``cores``."""
        if self.factored is not None:
            return self.factored.distances(basis, cores)
        return [float(np.linalg.norm(self.H - basis @ core @ basis.T))
                for core in cores]


@dataclass(frozen=True)
class GradientFamily:
    """Affine family ``canonical + ambiguity_basis @ coeffs`` of gradients.

    ``canonical`` is the minimum-Euclidean-norm member. The free directions
    are ``col(explicit)``, plus ``col(complement_of)^perp`` in the implicit
    form, so a fit in a ``k``-dimensional span of ``R^n`` need not hold the
    ``n x (n - k)`` complement. Both bases have orthonormal columns and
    ``col(explicit)`` lies in ``col(complement_of)``; the checks cost
    ``O(n k^2 + n e^2)``. ``ambiguity_basis`` is ``[explicit,
    orthonormal_complement(complement_of)]``, built on first read.
    ``GradientFamily(canonical, basis)`` is the explicit form.
    """

    canonical: np.ndarray
    explicit: np.ndarray
    complement_of: np.ndarray | None = None

    def __post_init__(self):
        canonical = linalg.as_vector(self.canonical, "canonical gradient")
        n = canonical.shape[0]
        explicit = linalg.as_matrix(self.explicit, "ambiguity basis")
        if explicit.shape[0] != n:
            raise DimensionMismatchError(
                f"ambiguity basis rows ({explicit.shape[0]}) must match the "
                f"gradient dimension ({n})"
            )
        _require_orthonormal(explicit, "ambiguity basis")
        kernel = self.complement_of
        if kernel is not None:
            kernel = linalg.as_matrix(kernel, "complemented basis")
            if kernel.shape[0] != n or kernel.shape[1] > n:
                raise DimensionMismatchError(
                    f"complemented basis of shape {kernel.shape} does not "
                    f"fit the gradient dimension ({n})"
                )
            _require_orthonormal(kernel, "complemented basis")
            outside = np.linalg.norm(explicit - kernel @ (kernel.T @ explicit))
            if outside > linalg.ORTHONORMALITY_TOL:
                raise DimensionMismatchError(
                    "ambiguity basis columns leave the complemented basis "
                    f"span by {outside:.3e}"
                )
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "explicit", explicit)
        object.__setattr__(self, "complement_of", kernel)

    @property
    def dim(self) -> int:
        """Number of free directions in the family."""
        free = self.explicit.shape[1]
        if self.complement_of is not None:
            free += self.complement_of.shape[0] - self.complement_of.shape[1]
        return free

    @cached_property
    def ambiguity_basis(self) -> np.ndarray:
        """Orthonormal basis of every free direction (``n x dim``)."""
        kernel = self.complement_of
        if kernel is None or kernel.shape[1] == kernel.shape[0]:
            return self.explicit
        complement = linalg.orthonormal_complement(kernel)
        if not self.explicit.shape[1]:
            return complement
        return np.hstack([self.explicit, complement])


def _require_orthonormal(basis: np.ndarray, name: str):
    defect = np.linalg.norm(basis.T @ basis - np.eye(basis.shape[1]))
    if defect > linalg.ORTHONORMALITY_TOL:
        raise DimensionMismatchError(f"{name} columns are not orthonormal")


@dataclass(frozen=True)
class ModelResult:
    """A fitted model plus its gradient family and bookkeeping.

    ``reference_hessian`` is set for least-change models, held in its
    :func:`held_reference` form (checked here, unless it is the model's own
    :class:`FactoredHessian`'s), ``sample_points`` for stencil-based fits
    (the exact points consumed), and ``correction_applied`` by subspace
    lifts that add a reference-Hessian correction term.
    """

    model: QuadraticModel
    gradients: GradientFamily
    kind: str
    reference_hessian: np.ndarray | None = None
    sample_points: np.ndarray | None = None
    correction_applied: bool | None = None

    def __post_init__(self):
        href = self.reference_hessian
        if href is not None and href is not getattr(self.model.factored,
                                                    "href", None):
            object.__setattr__(self, "reference_hessian",
                               held_reference(href, self.n))

    @property
    def n(self) -> int:
        return self.model.n


def evaluate(model: QuadraticModel, x) -> float:
    """Value of the quadratic model at ``x``."""
    try:  # a scalar, say, stands for the point of that value in every entry
        point = np.broadcast_to(np.asarray(x, dtype=float), model.x0.shape)
    except ValueError:
        raise DimensionMismatchError(
            f"point of shape {np.shape(x)} does not match model "
            f"dimension {model.n}"
        ) from None
    return float(model.values(point[None, :])[0])


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


def _stacked_model(sample_set: SampleSet, alpha, hess, kind) -> ModelResult:
    """Model, with the single-point gradient family, of ``(alpha, H)``."""
    model = QuadraticModel(sample_set.x0, sample_set.values[0], alpha, hess)
    family = GradientFamily(alpha, np.zeros((sample_set.n, 0)))
    return ModelResult(model, family, kind)


def fit_mn(sample_set: SampleSet,
           rank_tol: float | None = None,
           feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """Minimum-norm model: smallest ``||alpha||^2 + ||H||_F^2`` jointly.

    Because the vectorization is isometric, one stacked minimum-norm
    least-squares solve yields the unique minimizer; the gradient family
    is a single point. Values that no quadratic meets leave the returned
    model with a residual, which is what the feasibility check measures.
    """
    _, alpha, hess = _min_norm_quadratic(sample_set, rank_tol)
    result = _stacked_model(sample_set, alpha, hess, "mn")
    _require_interpolates(sample_set, result.model, feas_tol)
    return result


def fit_dqi(sample_set: SampleSet,
            rank_tol: float | None = None) -> ModelResult:
    """Determined quadratic interpolation on a poised sample set.

    The interpolation system is square and nonsingular; it is solved from
    the one factorization that decides so.
    """
    factors = _poised_factors(sample_set, rank_tol)
    if factors is None:
        raise NotPoisedError(
            f"sample set with m={sample_set.m}, n={sample_set.n} does not "
            "determine a unique quadratic"
        )
    left, sigma, vt = factors
    alpha, svec_h = np.split(vt.T @ ((left.T @ sample_set.delta) / sigma),
                             [sample_set.n])
    return _stacked_model(sample_set, alpha, linalg.smat(svec_h), "dqi")


def _solve_min_frobenius(displacements: np.ndarray, delta: np.ndarray,
                         rank_tol):
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
    hess = (span * mu) @ span.T                 # sum_i mu_i d_i d_i^T
    return alpha, linalg.sym_part(hess)


def _least_change(sample_set: SampleSet, href, rank_tol, feas_tol,
                  dense: bool = False):
    """Smallest Hessian update from ``href`` (from zero when ``None``) that
    meets the values less the reference quadratic's ``d_i^T Href d_i / 2``;
    ``href`` is in its :func:`held_reference` form.
    """
    disp = sample_set.displacements
    values = sample_set.values
    if href is None:
        delta = sample_set.delta
    else:
        scaled = disp * href if href.ndim == 1 else disp @ href
        shift = 0.5 * (scaled * disp).sum(axis=1)
        delta = (values[1:] - shift) - values[0]
    m, n = disp.shape
    span_basis, alpha, hess = _solve_in_span(
        _solve_min_frobenius, sample_set, delta, rank_tol, (m + n, m + n),
        dense,
    )
    if href is not None:
        hess = dense_reference(href) + hess  # both exactly symmetric
    model = QuadraticModel(sample_set.x0, values[0], alpha, hess)
    _require_interpolates(sample_set, model, feas_tol)
    family = GradientFamily(alpha, np.zeros((n, 0)), span_basis)
    result = ModelResult(model, family, "mfn" if href is None else "lfu")
    # the caller has held href already, so it is not checked a second time
    object.__setattr__(result, "reference_hessian", href)
    return result


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
    it is :func:`fit_mfn`. ``href`` may be the vector of its diagonal.
    """
    href = held_reference(href, sample_set.n)
    return _least_change(sample_set, href, rank_tol, feas_tol)


def _reference_fit(kind: str, sample_set: SampleSet, href=None,
                   rank_tol: float | None = None,
                   feas_tol: float = FEASIBILITY_RTOL) -> ModelResult:
    """``fit_mn``, ``fit_mfn`` or ``fit_lfu`` (with ``href`` as
    :func:`fit_lfu` takes it) solved on the dense ``n``-dimensional system.

    The span route falls back to this solve, and the verification harness
    checks the span route against it.
    """
    if kind == "mn":
        _, alpha, hess = _min_norm_quadratic(sample_set, rank_tol, dense=True)
        result = _stacked_model(sample_set, alpha, hess, "mn")
        _require_interpolates(sample_set, result.model, feas_tol)
        return result
    href = None if kind == "mfn" else held_reference(href, sample_set.n)
    return _least_change(sample_set, href, rank_tol, feas_tol, dense=True)
