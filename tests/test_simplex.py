"""Simplex gradient/Hessian estimators and the combined stencil models.

For quadratics everything has a closed form: gradients become
pseudoinverse projections and the two-level Hessian estimate collapses
to P_S A P_T (projectors onto the direction spans), which the tests use
as the oracle. Stencil bookkeeping (shared points, evaluation budgets)
is pinned by counting oracle calls.
"""

from functools import partial

import numpy as np
import numpy.linalg as la
import pytest

from subquad import linalg
from subquad.errors import (
    DuplicatePointError,
    EmptySetError,
    VariantPreconditionError,
)
from subquad.functions import random_cubic, random_trig
from subquad.geometry import FunctionOracle
from subquad.linalg import sym_part
from subquad.simplex import (
    VARIANTS,
    DirectionBundle,
    StencilEvaluations,
    fit_qgsd,
    gsg,
    gsh,
)


def quad(a, b, c0=0.0):
    return lambda x: float(c0 + b @ x + 0.5 * x @ a @ x)


@pytest.fixture
def sym(rng):
    a = rng.standard_normal((4, 4))
    return (a + a.T) / 2


class TestSimplexGradient:
    def test_constant_function_zero(self, rng):
        s = rng.standard_normal((3, 2))
        g = gsg(np.zeros(3), s, lambda x: 4.2)
        np.testing.assert_allclose(g, 0.0, atol=1e-13)

    def test_sphere_at_origin(self):
        g = gsg(np.zeros(2), np.eye(2), lambda x: float(x @ x))
        # forward differences of t^2 with step 1: estimate is 1 per axis
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-12)

    def test_linear_exact_within_span(self, rng):
        b = rng.standard_normal(5)
        s = rng.standard_normal((5, 2))
        g = gsg(rng.standard_normal(5), s, lambda x: float(b @ x))
        proj = s @ la.pinv(s)
        np.testing.assert_allclose(g, proj @ b, atol=1e-10)

    def test_quadratic_closed_form(self, sym, rng):
        b = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        s = rng.standard_normal((4, 3))
        f = quad(sym, b)
        delta = np.array([f(x0 + s[:, i]) - f(x0) for i in range(3)])
        np.testing.assert_allclose(
            gsg(x0, s, f), la.pinv(s.T) @ delta, atol=1e-11
        )

    def test_rejects_zero_direction(self):
        with pytest.raises(DuplicatePointError):
            gsg(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), lambda x: 0.0)

    def test_tiny_directions_are_not_zero(self):
        """The squares of these entries underflow, so their column norms
        are zero; the columns themselves are not."""
        b = np.array([1.0, -2.0, 0.5])
        g = gsg(np.zeros(3), 1e-170 * np.eye(3), lambda x: float(b @ x))
        np.testing.assert_allclose(g, b, rtol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(EmptySetError):
            gsg(np.zeros(2), np.zeros((2, 0)), lambda x: 0.0)


class TestDirectionBundle:
    def test_shared_inner_directions(self):
        bundle = DirectionBundle(np.eye(3), np.eye(3))
        assert bundle.shared
        assert bundle.n == 3 and bundle.p == 3
        np.testing.assert_array_equal(bundle.T, np.eye(3))

    def test_per_column_inner_directions(self, rng):
        s = rng.standard_normal((3, 2))
        blocks = [rng.standard_normal((3, 2)), rng.standard_normal((3, 4))]
        bundle = DirectionBundle(s, blocks)
        assert not bundle.shared
        assert bundle.T is None
        assert [b.shape[1] for b in bundle.blocks] == [2, 4]

    def test_mismatched_rows_rejected(self, rng):
        with pytest.raises(Exception):
            DirectionBundle(np.eye(3), np.eye(2))


class TestSimplexHessian:
    def test_linear_function_zero(self, rng):
        s = rng.standard_normal((4, 3))
        bundle = DirectionBundle(s, s)
        h = gsh(np.zeros(4), bundle, lambda x: float(np.arange(4.0) @ x))
        np.testing.assert_allclose(h, 0.0, atol=1e-11)

    def test_quadratic_projector_oracle(self, sym, rng):
        """Shared inner directions: the estimate is exactly P_S A P_T."""
        b = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        s = rng.standard_normal((4, 2))
        bundle = DirectionBundle(s, s)
        h = gsh(x0, bundle, quad(sym, b))
        p = s @ la.pinv(s)
        np.testing.assert_allclose(h, p @ sym @ p, atol=1e-10)

    def test_distinct_inner_outer_projectors(self, sym, rng):
        s = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 2))
        bundle = DirectionBundle(s, t)
        h = gsh(np.zeros(4), bundle, quad(sym, np.zeros(4)))
        ps = s @ la.pinv(s)
        pt = t @ la.pinv(t)
        np.testing.assert_allclose(h, ps @ sym @ pt, atol=1e-10)

    def test_square_nonsingular_recovers_hessian(self, sym, rng):
        s = rng.standard_normal((4, 4))
        h = gsh(rng.standard_normal(4), DirectionBundle(s, s), quad(sym, rng.standard_normal(4)))
        np.testing.assert_allclose(h, sym, atol=1e-9)

    def test_generally_nonsymmetric(self, sym, rng):
        """Rectangular direction sets leave an asymmetric estimate; the
        explicit symmetrizer averages it."""
        s = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 2))
        h = gsh(np.zeros(4), DirectionBundle(s, t), quad(sym, np.zeros(4)))
        assert np.max(np.abs(h - h.T)) > 1e-6
        hs = sym_part(h)
        np.testing.assert_array_equal(hs, hs.T)
        np.testing.assert_allclose(hs, (h + h.T) / 2, atol=1e-15)


class TestStencilBookkeeping:
    def test_budget_shared_directions(self):
        """With T = S the stencil has 1 + p + p(p+1)/2 distinct points:
        shared cross points x0 + s_i + s_j are evaluated once."""
        p = 3
        s = np.eye(4)[:, :p]
        oracle = FunctionOracle(lambda x: float(x @ x))
        ev = StencilEvaluations(np.zeros(4), DirectionBundle(s, s), oracle)
        expected = 1 + p + p * (p + 1) // 2
        assert ev.n_points == expected
        assert oracle.count == expected

    def test_refined_fit_costs_nothing_extra(self, rng):
        """The refined gradient's doubled steps x0 + 2 s_i are the diagonal
        cross points x0 + s_i + s_i already in the table: both variants
        consume the same 1 + p + p(p+1)/2 points."""
        p = 3
        s = rng.standard_normal((4, p))
        x0 = rng.standard_normal(4)
        points = []
        for variant in VARIANTS:
            oracle = FunctionOracle(lambda x: float(x @ x))
            result = fit_qgsd(x0, DirectionBundle(s, s), oracle,
                              variant=variant)
            assert oracle.count == 1 + p + p * (p + 1) // 2
            points.append(result.sample_points)
        np.testing.assert_array_equal(points[0], points[1])

    def test_budget_separate_directions(self, rng):
        s = rng.standard_normal((5, 2))
        blocks = [rng.standard_normal((5, 3)), rng.standard_normal((5, 1))]
        oracle = FunctionOracle(lambda x: float(x.sum()))
        ev = StencilEvaluations(np.zeros(5), DirectionBundle(s, blocks), oracle)
        # 1 + p outer points, plus the inner stencil both at the base
        # point and at each outer point; generic draws share nothing
        assert oracle.count == 1 + 2 + 2 * 4
        assert ev.points().shape == (11, 5)

    def test_fit_reports_points(self, rng):
        s = rng.standard_normal((3, 2))
        result = fit_qgsd(
            np.zeros(3), DirectionBundle(s, s), lambda x: float(x @ x)
        )
        assert result.sample_points is not None
        assert result.sample_points.shape[1] == 3


class TestCombinedFit:
    def test_simple_variant_components(self, sym, rng):
        b = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        s = rng.standard_normal((4, 3))
        bundle = DirectionBundle(s, s)
        f = quad(sym, b)
        result = fit_qgsd(x0, bundle, f, variant="simple")
        np.testing.assert_allclose(result.model.g, gsg(x0, s, f), atol=1e-11)
        np.testing.assert_allclose(result.model.H, gsh(x0, bundle, f), atol=1e-11)
        assert result.kind == "qgsd"

    def test_symmetrize_flag(self, sym, rng):
        s = rng.standard_normal((4, 3))
        t = rng.standard_normal((4, 2))
        result = fit_qgsd(
            np.zeros(4), DirectionBundle(s, t), quad(sym, np.zeros(4)),
            symmetrize_hessian=True,
        )
        np.testing.assert_array_equal(result.model.H, result.model.H.T)

    def test_refined_interpolates_whole_stencil(self, rng):
        """Full-column-rank S with T = S: the refined model reproduces f
        at every stencil point, not just to first order."""
        for _ in range(8):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            s = rng.standard_normal((n, p))
            if np.linalg.matrix_rank(s) < p:
                continue
            bundle = DirectionBundle(s, s)
            f = lambda x: float(np.sin(x).sum() + 0.3 * (x @ x))
            result = fit_qgsd(
                rng.standard_normal(n), bundle, f, variant="refined"
            )
            for pt in result.sample_points:
                assert result.model(pt) == pytest.approx(f(pt), abs=1e-9)

    def test_refined_needs_shared_directions(self, rng):
        s = rng.standard_normal((3, 2))
        t = rng.standard_normal((3, 2))
        with pytest.raises(VariantPreconditionError):
            fit_qgsd(
                np.zeros(3), DirectionBundle(s, t), lambda x: 0.0,
                variant="refined",
            )

    def test_unknown_variant(self, rng):
        s = rng.standard_normal((3, 2))
        with pytest.raises(VariantPreconditionError):
            fit_qgsd(np.zeros(3), DirectionBundle(s, s), lambda x: 0.0,
                     variant="fancy")

    def test_refined_gradient_formula(self, rng):
        """Refined gradient = 2 gsg(S) - gsg at the doubled steps.

        Checked against a literal reimplementation of that difference."""
        n, p = 4, 3
        s = rng.standard_normal((n, p))
        x0 = rng.standard_normal(n)
        f = lambda x: float(np.cos(x).sum())
        result = fit_qgsd(x0, DirectionBundle(s, s), f, variant="refined")
        base = gsg(x0, s, f)
        doubled = gsg(x0, 2.0 * s, f)
        np.testing.assert_allclose(result.model.g, 2.0 * base - doubled, atol=1e-11)

    def test_duplicate_directions_allowed_in_gsg(self, rng):
        """Repeated outer directions are fine for the gradient estimate:
        the pseudoinverse handles the redundant rows."""
        b = rng.standard_normal(3)
        s = np.column_stack([b, b])
        g = gsg(np.zeros(3), s, lambda x: float(b @ x))
        proj = s @ la.pinv(s)
        np.testing.assert_allclose(g, proj @ b, atol=1e-11)


def _count_svds(monkeypatch):
    """Record the shape of every truncated SVD taken from now on."""
    shapes = []
    svd = linalg._truncated_svd

    def counting(mat, rank_tol):
        shapes.append(mat.shape)
        return svd(mat, rank_tol)

    monkeypatch.setattr(linalg, "_truncated_svd", counting)
    return shapes


_ESTIMATORS = [gsh, partial(fit_qgsd, variant="simple"),
               partial(fit_qgsd, variant="refined")]


class TestFactorizationCount:
    """Each direction matrix is factored once: the whole difference table
    goes through one solve of a shared T, and the Hessian table and the
    gradient go through one solve of S together."""

    @pytest.mark.parametrize("estimate", _ESTIMATORS,
                             ids=["gsh", "simple", "refined"])
    def test_shared_inner_directions_take_two(self, monkeypatch, rng,
                                              estimate):
        s = rng.standard_normal((6, 5))
        f = random_trig(6, rng)
        shapes = _count_svds(monkeypatch)
        estimate(rng.standard_normal(6), DirectionBundle(s, s), f)
        assert shapes == [(5, 6), (5, 6)]

    @pytest.mark.parametrize("estimate", _ESTIMATORS[:2],
                             ids=["gsh", "simple"])
    def test_one_per_inner_block(self, monkeypatch, rng, estimate):
        p = 4
        s = rng.standard_normal((6, p))
        blocks = [rng.standard_normal((6, q)) for q in (1, 3, 2, 6)]
        shapes = _count_svds(monkeypatch)
        estimate(np.zeros(6), DirectionBundle(s, blocks), random_trig(6, rng))
        assert len(shapes) == p + 1


class TestGradientOrder:
    """On a square nonsingular S scaled by h, the simple gradient misses
    the exact one by O(h) and the refined (Richardson) one by O(h^2):
    halving h about halves the first miss and quarters the second."""

    @pytest.mark.parametrize("draw", [random_cubic, random_trig])
    def test_halving_the_step(self, rng, draw):
        n = 5
        f = draw(n, rng)
        x0 = rng.standard_normal(n)
        directions = la.qr(rng.standard_normal((n, n)))[0]
        for variant, order in (("simple", 2.0), ("refined", 4.0)):
            misses = []
            for h in (1e-2, 5e-3):
                s = h * directions
                g = fit_qgsd(x0, DirectionBundle(s, s), f,
                             variant=variant).model.g
                misses.append(la.norm(g - f.gradient(x0)))
            # rounding, about eps |f| / h, sits far below both misses
            assert misses[1] > 1e3 * linalg.EPS * abs(f(x0)) / 5e-3
            assert 0.9 * order < misses[0] / misses[1] < 1.1 * order
