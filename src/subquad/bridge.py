r"""Exact conversions between full-space and subspace model objects.

For a frame with orthonormal basis ``Q`` (columns spanning the displacement
subspace) the fitted objects convert as

* minimum-norm:       ``g = Q ghat``, ``H = Q Hhat Q^T``;
* minimum-Frobenius:  ``H = Q Hhat Q^T`` and the full gradient family is
  ``{Q ahat : ahat in subspace family} + col(Q)^perp``, held with
  ``col(Q)^perp`` implicit (see :class:`~subquad.models.GradientFamily`);
* least-change:       ``H = Q Hhat Q^T + Href - P Href P`` with
  ``P = Q Q^T`` (the correction vanishes iff ``Href`` is supported on the
  subspace);
* simplex gradient/Hessian: ``g = Q ghat`` and ``H = Q Hhat Q^T`` whenever
  the stencil directions lie in ``col(Q)``.

A lift's Hessian is a :class:`~subquad.models.FactoredHessian` ``(Q, Hhat,
Href)``, and ``Href`` may be held as the vector of its diagonal, as
``--href 0`` and ``I<n>`` are. ``restrict`` and ``coincidence_check`` read a
model's Hessian only through the operations of
:class:`~subquad.models.QuadraticModel` (values at a set of points or one
unit step along each complement direction, ``sym(H) x``, ``B^T H B`` and
Frobenius distances), so they never ask how it is held; for a lift those
cost ``O(n d^2)`` per vector and never build the ``n x n`` array.

A subspace model anchored at ``xhat0`` lifts to a model anchored at
``x0 + Q xhat0``, and ``restrict`` re-anchors a full-space model at the
frame's ``x0`` (its constant becomes the value there), so the converted
models agree pointwise whatever the anchors.

``coincidence_check`` probes two models numerically: full-space and
subspace models must agree at ``x0 + Q xhat`` and, for the minimum-norm
pairing, also at ``x0 + Q xhat + v`` with ``v`` orthogonal to the subspace.
Its probes are one draw and one matrix product per probe set, and a probe
value that is not finite raises :class:`~subquad.errors.NonFiniteError`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotInSubspaceError,
    ReferenceMismatchError,
    VariantPreconditionError,
)
from .geometry import SubspaceFrame, _span_coordinates
from .models import (
    FactoredHessian,
    GradientFamily,
    ModelResult,
    QuadraticModel,
    dense_reference,
    restricted_reference,
)

#: Relative Frobenius size above which a least-change correction "counts".
CORRECTION_TOL = 1e-12

#: Tolerance for comparing a stored reference Hessian with ``Q^T Href Q``.
REFERENCE_RTOL = 1e-10

#: Length below which a gradient-ambiguity direction projected onto the
#: frame counts as outside it: ``restrict`` drops it from the family.
FAMILY_DROP_TOL = 1e-12


@dataclass(frozen=True)
class ConversionReport:
    """Numerical gaps between a full-space and a subspace model.

    ``complement_probe_gaps`` holds one entry per complement basis vector:
    the value mismatch one unit step along that direction from the base
    point. ``value_scale`` is the largest subspace-model magnitude over the
    probes (useful for relative comparisons); ``probe_scale`` is the step
    length used for random probes.
    """

    gradient_gap: float
    hessian_gap: float
    subspace_value_gap: float
    orthogonal_value_gap: float
    correction_applied: bool
    complement_probe_gaps: tuple
    value_scale: float
    probe_scale: float
    probes: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "gradient_gap": float(self.gradient_gap),
            "hessian_gap": float(self.hessian_gap),
            "subspace_value_gap": float(self.subspace_value_gap),
            "orthogonal_value_gap": float(self.orthogonal_value_gap),
            "correction_applied": bool(self.correction_applied),
            "complement_probe_gaps": [
                float(v) for v in self.complement_probe_gaps
            ],
            "value_scale": float(self.value_scale),
            "probe_scale": float(self.probe_scale),
            "probes": int(self.probes),
            "seed": int(self.seed),
        }


def _check_sub_result(sub: ModelResult, frame: SubspaceFrame, kinds):
    if sub.kind not in kinds:
        raise VariantPreconditionError(
            f"expected a result of kind {' or '.join(kinds)}, "
            f"got {sub.kind!r}"
        )
    if sub.n != frame.d:
        raise DimensionMismatchError(
            f"subspace result has dimension {sub.n} but the frame's "
            f"subspace has dimension {frame.d}"
        )


def _lift_family(family: GradientFamily,
                 frame: SubspaceFrame) -> GradientFamily:
    """Lift a subspace gradient family; ``col(Q)^perp`` joins it implicitly."""
    return GradientFamily(
        frame.Q @ family.canonical, frame.Q @ family.ambiguity_basis, frame.Q
    )


def _lift_anchor(sub: ModelResult, frame: SubspaceFrame) -> np.ndarray:
    """``x0 + Q xhat0``, the full-space point of the subspace model's
    anchor ``xhat0``."""
    return frame.x0 + frame.Q @ sub.model.x0


def lift_mn(sub: ModelResult, frame: SubspaceFrame) -> ModelResult:
    """Lift a subspace minimum-norm (or determined) fit to full space.

    The lifted model coincides with the full-space minimum-norm fit at
    *every* point of the form ``x0 + Q xhat + v``, ``v`` orthogonal to
    the subspace.
    """
    _check_sub_result(sub, frame, ("mn", "dqi"))
    grad = frame.Q @ sub.model.g
    hess = FactoredHessian(frame.Q, sub.model.H)
    model = QuadraticModel(_lift_anchor(sub, frame), sub.model.c, grad, hess)
    family = GradientFamily(grad, np.zeros((frame.n, 0)))
    return ModelResult(model, family, "mn")


def lift_mfn(sub: ModelResult, frame: SubspaceFrame) -> ModelResult:
    """Lift a subspace minimum-Frobenius fit to full space.

    The Hessian maps to ``Q Hhat Q^T``; every direction orthogonal to the
    subspace joins the gradient ambiguity.
    """
    _check_sub_result(sub, frame, ("mfn",))
    hess = FactoredHessian(frame.Q, sub.model.H)
    family = _lift_family(sub.gradients, frame)
    model = QuadraticModel(
        _lift_anchor(sub, frame), sub.model.c, family.canonical, hess
    )
    return ModelResult(model, family, "mfn")


def _correction_counts(correction: float, hess: float) -> bool:
    """True when a correction of Frobenius norm ``correction`` is large
    against a Hessian of norm ``hess``."""
    return bool(correction > CORRECTION_TOL * hess)


def lift_lfu(sub: ModelResult, frame: SubspaceFrame,
             href_full) -> ModelResult:
    """Lift a subspace least-change fit given the full-space reference.

    ``href_full`` is an ``n x n`` array or a length-``n`` vector standing
    for its diagonal; the lift holds it in its
    :func:`~subquad.models.held_reference` form, so ``--href I<n>`` never
    becomes an ``n x n`` array. Checks that the subspace fit used
    ``Q^T Href Q`` as its reference, then applies ``H = Q Hhat Q^T + Href -
    P Href P``. ``correction_applied`` records whether the last two terms
    contributed.
    """
    _check_sub_result(sub, frame, ("lfu",))
    hess = FactoredHessian(frame.Q, sub.model.H, href_full)
    stored = sub.reference_hessian
    if stored is None:
        raise ReferenceMismatchError(
            "subspace result carries no reference Hessian"
        )
    restricted = hess.restricted
    drift = np.linalg.norm(dense_reference(stored) - restricted)
    if drift > REFERENCE_RTOL * max(1.0, np.linalg.norm(restricted)):
        raise ReferenceMismatchError(
            f"stored subspace reference differs from Q^T Href Q by {drift:.3e}"
        )
    family = _lift_family(sub.gradients, frame)
    model = QuadraticModel(
        _lift_anchor(sub, frame), sub.model.c, family.canonical, hess
    )
    return ModelResult(
        model, family, "lfu",
        reference_hessian=hess.href,
        correction_applied=_correction_counts(
            hess.correction_norm(), np.linalg.norm(hess.href)
        ),
    )


def lift_simplex(obj, frame: SubspaceFrame) -> np.ndarray:
    """Lift a subspace simplex gradient (1-D) or Hessian (2-D).

    Valid whenever the stencil directions that produced ``obj`` lie in
    ``col(Q)`` (see :func:`hat_directions`). Hessians are lifted raw, so a
    nonsymmetric simplex Hessian stays nonsymmetric.
    """
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        vec = linalg.as_vector(arr, "subspace gradient")
        if vec.shape[0] != frame.d:
            raise DimensionMismatchError(
                f"gradient dimension {vec.shape[0]} does not match the "
                f"subspace dimension {frame.d}"
            )
        return frame.Q @ vec
    mat = linalg.as_matrix(arr, "subspace Hessian")
    if mat.shape != (frame.d, frame.d):
        raise DimensionMismatchError(
            f"Hessian shape {mat.shape} does not match the subspace "
            f"dimension {frame.d}"
        )
    return frame.Q @ mat @ frame.Q.T


def hat_directions(directions, frame: SubspaceFrame,
                   tol: float = 1e-10) -> np.ndarray:
    """Express direction columns in frame coordinates.

    Raises :class:`NotInSubspaceError` when a column leaves ``col(Q)`` by
    more than ``tol`` relative to its length.
    """
    mat = linalg.as_matrix(directions, "directions")
    if mat.shape[0] != frame.n:
        raise DimensionMismatchError(
            f"directions live in dimension {mat.shape[0]}, "
            f"frame in dimension {frame.n}"
        )
    hatted, worst = _span_coordinates(mat.T, linalg.row_norms(mat.T), frame.Q)
    if not worst <= tol:
        raise NotInSubspaceError(
            f"directions leave the frame span (relative residual "
            f"{worst:.3e} > {tol:.1e})"
        )
    return hatted.T


def _restrict_family(family: GradientFamily, frame: SubspaceFrame,
                     shift) -> GradientFamily:
    """``Q^T`` of the family, its canonical member moved by ``shift`` (the
    gradient change to the frame's anchor), keeping directions that
    project above ``FAMILY_DROP_TOL``.

    A unit vector ``c`` of the implicit complement ``col(K)^perp``
    projects to at most ``||Q - K K^T Q||_F`` plus the rounding in
    ``K^T c``. At most ``FAMILY_DROP_TOL / 2``, with no explicit
    directions (every fit and lift of a spanning set), all of the family
    would be dropped, so the complement is not built.
    """
    canonical = frame.Q.T @ (family.canonical + shift)
    kernel = family.complement_of
    if kernel is not None and not family.explicit.shape[1]:
        outside = np.linalg.norm(frame.Q - kernel @ (kernel.T @ frame.Q))
        if outside <= 0.5 * FAMILY_DROP_TOL:
            return GradientFamily(canonical, np.zeros((frame.d, 0)))
    projected = frame.Q.T @ family.ambiguity_basis
    if projected.shape[1]:
        norms = np.linalg.norm(projected, axis=0)
        projected = projected[:, norms > FAMILY_DROP_TOL]
    if projected.shape[1]:
        projected, _ = linalg.orthonormal_columns(projected)
    return GradientFamily(canonical, projected)


def _restrict_model(model: QuadraticModel, frame: SubspaceFrame):
    """``(restricted model, shift)``: the model re-anchored at the frame's
    ``x0`` and projected, and ``shift = sym(H) (frame.x0 - x0)``, the
    change of gradient between the anchors (zero when they agree)."""
    if model.n != frame.n:
        raise DimensionMismatchError(
            f"model dimension {model.n} does not match frame "
            f"dimension {frame.n}"
        )
    shift = model.sym_dot(frame.x0 - model.x0)
    restricted = QuadraticModel(
        np.zeros(frame.d), model(frame.x0), frame.Q.T @ (model.g + shift),
        model.project(frame.Q),
    )
    return restricted, shift


def restrict(obj, frame: SubspaceFrame):
    """Restrict a full-space object to the frame's subspace.

    Accepts a gradient vector (returns ``Q^T g``), a square matrix
    (returns ``Q^T H Q``), a :class:`QuadraticModel`, or a whole
    :class:`ModelResult`. Models are re-anchored at the subspace origin,
    the frame's ``x0``: the constant becomes the model's value there and
    the gradient (and a family's canonical member) gains
    ``sym(H) (frame.x0 - x0)`` before projecting, so the restriction
    agrees with the model at every frame point.
    """
    if isinstance(obj, ModelResult):
        model, shift = _restrict_model(obj.model, frame)
        family = _restrict_family(obj.gradients, frame, shift)
        href = obj.reference_hessian
        if href is not None:
            href = restricted_reference(href, frame.Q)
        return ModelResult(model, family, obj.kind, reference_hessian=href)
    if isinstance(obj, QuadraticModel):
        return _restrict_model(obj, frame)[0]
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 1:
        vec = linalg.as_vector(arr, "gradient")
        if vec.shape[0] != frame.n:
            raise DimensionMismatchError(
                f"gradient dimension {vec.shape[0]} does not match frame "
                f"dimension {frame.n}"
            )
        return frame.Q.T @ vec
    mat = linalg.as_matrix(arr, "Hessian")
    if mat.shape != (frame.n, frame.n):
        raise DimensionMismatchError(
            f"Hessian shape {mat.shape} does not match frame "
            f"dimension {frame.n}"
        )
    return frame.Q.T @ mat @ frame.Q


def _unwrap_model(obj) -> QuadraticModel:
    return obj.model if isinstance(obj, ModelResult) else obj


def coincidence_check(full, sub, frame: SubspaceFrame,
                      probes: int = 16, seed: int = 0) -> ConversionReport:
    """Measure where a full-space and a subspace model (dis)agree.

    Draws ``probes`` standard-normal subspace points scaled by the median
    displacement length of the frame and, independently, complement
    vectors of the same scale; reports the worst value mismatch on the
    subspace (``subspace_value_gap``) and off it
    (``orthogonal_value_gap``). One deterministic unit probe per
    complement basis vector is always included and reported separately.
    Deterministic for a given seed.

    The complement is the frame's
    :attr:`~subquad.geometry.SubspaceFrame.complement_factors`, ``C = (E -
    Y Z) diag(s)`` from the Householder reflectors of ``Q``; no SVD runs
    and no ``n x (n - d)`` array is formed. Every probe comes from one
    ``(probes, d + n - d)`` draw, the stream of a per-probe
    ``d``-then-``(n - d)`` draw, and an off-subspace probe with
    coefficients ``c`` moves ``C c = E (s c) - Y (Z (s c))`` off the
    subspace. The subspace, on-subspace and off-subspace probes are each
    one row set valued by :meth:`~subquad.models.QuadraticModel.values`,
    the unit complement probes are valued from the factors by
    :meth:`~subquad.models.QuadraticModel.complement_values`, and the
    three Frobenius gaps come from one ``distances`` call. A probe value
    that is not finite raises :class:`NonFiniteError`.
    """
    full_model = _unwrap_model(full)
    sub_model = _unwrap_model(sub)
    if full_model.n != frame.n or sub_model.n != frame.d:
        raise DimensionMismatchError(
            f"models of dimensions {full_model.n}/{sub_model.n} do not "
            f"match frame dimensions {frame.n}/{frame.d}"
        )
    if frame.dhat is not None and frame.dhat.shape[0]:
        probe_scale = float(
            np.median(np.linalg.norm(frame.dhat, axis=1))
        )
        probe_scale = max(probe_scale, 1e-8)
    else:
        probe_scale = 1.0
    rng = np.random.default_rng(seed)
    complement = frame.complement_factors
    n_comp = frame.n - frame.d
    count = max(int(probes), 0)

    draws = probe_scale * rng.standard_normal((count, frame.d + n_comp))
    xhat, coeffs = draws[:, :frame.d], draws[:, frame.d:]
    on_subspace = frame.x0 + xhat @ frame.Q.T
    with np.errstate(over="ignore", invalid="ignore"):
        sub_values = sub_model.values(xhat)
        base_value = sub_model(np.zeros(frame.d))
        on_values = full_model.values(on_subspace)
        off_values = full_model.values(
            on_subspace + complement.combine(coeffs)
        )
        comp_values = full_model.complement_values(frame.x0, complement)
        values = (sub_values, base_value, on_values, off_values, comp_values)
        if not all(np.isfinite(part).all() for part in values):
            raise NonFiniteError(
                "a probe value is not finite, so the value gaps are "
                "undefined"
            )
        value_scale = float(np.max(np.abs(sub_values), initial=1.0))
        sub_gap = float(np.max(np.abs(on_values - sub_values), initial=0.0))
        comp_gaps = np.abs(comp_values - base_value)
        orth_gap = float(max(
            np.max(np.abs(off_values - sub_values), initial=0.0),
            np.max(comp_gaps),
        )) if n_comp else sub_gap

    lifted_g = frame.Q @ sub_model.g
    hessian_gap, correction, scale = full_model.distances(frame.Q, (
        sub_model.H, full_model.project(frame.Q), np.zeros((frame.d,) * 2)
    ))
    return ConversionReport(
        gradient_gap=float(np.linalg.norm(full_model.g - lifted_g)),
        hessian_gap=hessian_gap,
        subspace_value_gap=sub_gap,
        orthogonal_value_gap=orth_gap,
        correction_applied=_correction_counts(correction, scale),
        complement_probe_gaps=tuple(comp_gaps.tolist()),
        value_scale=value_scale,
        probe_scale=probe_scale,
        probes=int(probes),
        seed=int(seed),
    )
