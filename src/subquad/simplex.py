"""Simplex derivatives from direction stencils, in matrix form.

``gsg`` is the generalized simplex gradient ``pinv(S.T) @ delta`` built from
forward differences along the columns of ``S``. ``gsh`` is the generalized
simplex Hessian of Hare, Jarry-Bolduc and Planiden (IMA J. Numer. Anal.
2024): ``pinv(S.T)`` applied to the table whose row ``i`` is
``pinv(T_i.T) @ D_i``, with second differences ``D_ij = f(x0 + s_i + t_ij)
- f(x0 + s_i) - f(x0 + t_ij) + f(x0)``. It is generally *nonsymmetric*;
``fit_qgsd`` averages it with its transpose (``linalg.sym_part``) on
request, and builds a quadratic model over the stencil

    Y = {x0} | {x0 + s_i} | {x0 + t_ij} | {x0 + s_i + t_ij}.

Each direction matrix is factored once, so ``gsh`` and ``fit_qgsd`` take 2
SVDs with a shared ``T`` and ``p + 1`` with one block per outer direction.
Stencil points are constructed once (``x0 + (s_i + t_ij)``) and cached by
their exact bytes, so shared points are never re-queried from the oracle.
The refined variant needs ``T = S``, so its doubled steps ``x0 + 2 s_i``
are the table's diagonal cross points ``x0 + (s_i + t_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    DuplicatePointError,
    EmptySetError,
    VariantPreconditionError,
)
from .geometry import FunctionOracle, as_oracle
from .models import GradientFamily, ModelResult, QuadraticModel

VARIANTS = ("simple", "refined")


def _check_directions(mat, name):
    out = linalg.as_matrix(mat, name)
    if out.shape[1] == 0:
        raise EmptySetError(f"{name} needs at least one column")
    if not out.any(axis=0).all():
        raise DuplicatePointError(f"{name} contains a zero column")
    return out


@dataclass(frozen=True)
class DirectionBundle:
    """Outer directions ``S`` plus inner directions per outer column.

    ``T`` may be a single matrix shared by every outer direction or a
    sequence with one matrix per column of ``S``. All columns must be
    nonzero and live in the same dimension.
    """

    S: np.ndarray
    T: object

    def __post_init__(self):
        outer = _check_directions(self.S, "outer directions S")
        n = outer.shape[0]
        inner = self.T
        if isinstance(inner, (list, tuple)):
            blocks = tuple(
                _check_directions(block, f"inner directions T[{i}]")
                for i, block in enumerate(inner)
            )
            if len(blocks) != outer.shape[1]:
                raise DimensionMismatchError(
                    f"need one inner block per outer direction: got "
                    f"{len(blocks)} blocks for {outer.shape[1]} columns"
                )
            shared = False
        else:
            block = _check_directions(inner, "inner directions T")
            blocks = tuple(block for _ in range(outer.shape[1]))
            shared = True
        for block in blocks:
            if block.shape[0] != n:
                raise DimensionMismatchError(
                    f"inner directions live in dimension {block.shape[0]}, "
                    f"outer in dimension {n}"
                )
        object.__setattr__(self, "S", outer)
        object.__setattr__(self, "T", blocks[0] if shared else None)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_shared", shared)

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def p(self) -> int:
        return self.S.shape[1]

    @property
    def shared(self) -> bool:
        return self._shared

    @property
    def blocks(self) -> tuple:
        """Inner direction matrices, one per outer column."""
        return self._blocks


class StencilEvaluations:
    """Function values over a bundle's stencil, cached by exact point.

    Exposes ``f0`` (base value), ``fs[i]`` (outer points), ``ft[i][j]`` and
    ``fst[i][j]`` (inner and combined points). ``points()`` lists the
    distinct points actually consumed, in first-use order.
    """

    def __init__(self, x0, bundle: DirectionBundle, fn):
        x0 = linalg.as_vector(x0, "stencil base point")
        if x0.shape[0] != bundle.n:
            raise DimensionMismatchError(
                f"base point dimension {x0.shape[0]} does not match "
                f"bundle dimension {bundle.n}"
            )
        self.x0 = x0
        self.oracle = as_oracle(fn)
        self._cache: dict[bytes, float] = {}
        self._points: list[np.ndarray] = []

        outer = bundle.S
        self.f0 = self._value(x0)
        self.fs = np.array(
            [self._value(x0 + outer[:, i]) for i in range(bundle.p)]
        )
        self.ft = []
        self.fst = []
        for i, block in enumerate(bundle.blocks):
            q = block.shape[1]
            self.ft.append(np.array(
                [self._value(x0 + block[:, j]) for j in range(q)]
            ))
            self.fst.append(np.array(
                [self._value(x0 + (outer[:, i] + block[:, j]))
                 for j in range(q)]
            ))

    def _value(self, point: np.ndarray) -> float:
        key = point.tobytes()
        if key not in self._cache:
            self._cache[key] = self.oracle(point)
            self._points.append(point)
        return self._cache[key]

    def points(self) -> np.ndarray:
        """Distinct stencil points consumed, one per row."""
        return np.vstack(self._points)

    @property
    def n_points(self) -> int:
        return len(self._points)


def gsg(x0, directions, fn, rank_tol: float | None = None) -> np.ndarray:
    """Generalized simplex gradient at ``x0`` over direction columns.

    Solves ``S.T @ g = delta`` in the minimum-norm least-squares sense,
    where ``delta_i = f(x0 + s_i) - f(x0)``.
    """
    x0 = linalg.as_vector(x0, "base point")
    outer = _check_directions(directions, "directions")
    if outer.shape[0] != x0.shape[0]:
        raise DimensionMismatchError(
            f"directions live in dimension {outer.shape[0]}, "
            f"base point in dimension {x0.shape[0]}"
        )
    oracle = as_oracle(fn)
    base = oracle(x0)
    delta = np.array(
        [oracle(x0 + outer[:, i]) - base for i in range(outer.shape[1])]
    )
    return linalg.pinv_apply(outer.T, delta, rank_tol)


def _hessian_table(bundle: DirectionBundle, evals: StencilEvaluations,
                   rank_tol) -> np.ndarray:
    """The ``p x n`` table whose row ``i`` is ``pinv(T_i.T) @ D_i``: one
    solve on the ``q x p`` difference table for a shared ``T``, one per
    block otherwise."""
    diffs = [(fst - fs) - (ft - evals.f0)
             for fst, fs, ft in zip(evals.fst, evals.fs, evals.ft)]
    if bundle.shared:
        return linalg.pinv_apply(
            bundle.T.T, np.column_stack(diffs), rank_tol
        ).T
    return np.array([
        linalg.pinv_apply(block.T, diff, rank_tol)
        for block, diff in zip(bundle.blocks, diffs)
    ])


def gsh(x0, bundle: DirectionBundle, fn,
        rank_tol: float | None = None) -> np.ndarray:
    """Generalized simplex Hessian (raw, generally nonsymmetric):
    ``pinv(S.T)`` applied to the Hessian table."""
    evals = StencilEvaluations(x0, bundle, fn)
    return linalg.pinv_apply(
        bundle.S.T, _hessian_table(bundle, evals, rank_tol), rank_tol
    )


def fit_qgsd(x0, bundle: DirectionBundle, fn,
             variant: str = "simple",
             symmetrize_hessian: bool = False,
             rank_tol: float | None = None) -> ModelResult:
    """Quadratic model from generalized simplex derivatives.

    ``variant="simple"`` uses the simplex gradient over ``S`` and the
    simplex Hessian as-is. ``variant="refined"`` requires the inner
    directions to equal ``S`` (shared) and replaces the gradient by the
    extrapolation ``2 gsg(x0; S) - gsg(x0; 2S)``, solved as
    ``pinv(S.T) @ (2 (fs - f0) - (f(x0 + 2 s_i) - f0) / 2)``; when ``S``
    has full column rank the resulting model interpolates ``f`` on the
    whole stencil. The gradient rides along the Hessian's outer solve as
    one more column. The exact points consumed are in ``sample_points``.
    """
    if variant not in VARIANTS:
        raise VariantPreconditionError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}"
        )
    refined = variant == "refined"
    if refined and not (
        bundle.shared and np.array_equal(bundle.T, bundle.S)
    ):
        raise VariantPreconditionError(
            "the refined variant needs the inner directions to equal S"
        )
    evals = StencilEvaluations(x0, bundle, fn)
    rhs = evals.fs - evals.f0
    if refined:
        doubled = np.array([fst[i] for i, fst in enumerate(evals.fst)])
        rhs = 2.0 * rhs - 0.5 * (doubled - evals.f0)
    stacked = np.column_stack([_hessian_table(bundle, evals, rank_tol), rhs])
    solved = linalg.pinv_apply(bundle.S.T, stacked, rank_tol)
    hess, grad = solved[:, :-1], solved[:, -1]
    if symmetrize_hessian:
        hess = linalg.sym_part(hess)
    model = QuadraticModel(evals.x0, evals.f0, grad, hess)
    family = GradientFamily(grad, np.zeros((bundle.n, 0)))
    return ModelResult(
        model, family, "qgsd", sample_points=evals.points()
    )
