"""Interpolation-model fits checked against independent oracles.

The key cross-checks:

* determined fits against hand-solved tiny systems,
* the joint-min-norm fit against a direct stacked least-squares oracle
  in (gradient, svec-Hessian) coordinates,
* the min-Frobenius-Hessian fit against a weighted-limit oracle (weight
  the gradient less and less in the joint problem and extrapolate),
* the least-change fit against its exact reduction to the min-Frobenius
  fit on shifted values,
* the span-coordinate route of mn, mfn and lfu against the dense reference
  solve of the full system, and its solve shapes,
* metamorphic properties (row order, rotations, translations, shifted
  values) that call no reference solver at all.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    axis_frame,
    random_poised_set,
    subspace_set,
    unit_square_set,
)
from subquad import geometry, linalg
from subquad.errors import (
    DimensionMismatchError,
    InfeasibleError,
    NonFiniteError,
    NotPoisedError,
    NotSquareError,
)
from subquad.geometry import (
    FEASIBILITY_RTOL,
    SampleSet,
    hat_sampleset,
    quadratic_constraint_matrix,
)
from subquad.models import (
    SYMMETRY_RTOL,
    GradientFamily,
    QuadraticModel,
    _least_change,
    _reference_fit,
    evaluate,
    fit_dqi,
    fit_lfu,
    fit_mfn,
    fit_mn,
    held_reference,
    member,
    restricted_reference,
)


def eval_oracle(x0, c, g, h, x):
    """Double-loop quadratic evaluation; no vectorized shortcuts."""
    d = x - x0
    total = c
    for i in range(len(d)):
        total += g[i] * d[i]
        for j in range(len(d)):
            total += 0.5 * d[i] * h[i, j] * d[j]
    return total


def stacked_oracle(sample_set):
    """Min-norm solve of the raw interpolation system in
    (g, svec(H)) coordinates -- the definition of the joint fit."""
    mat = quadratic_constraint_matrix(sample_set.displacements)
    coeff, *_ = np.linalg.lstsq(mat, sample_set.delta, rcond=None)
    n = sample_set.n
    return coeff[:n], linalg.smat(coeff[n:])


class TestEvaluate:
    def test_matches_double_loop(self, rng):
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        model = QuadraticModel(
            rng.standard_normal(4), 1.5, rng.standard_normal(4), h
        )
        for _ in range(6):
            x = rng.standard_normal(4)
            assert evaluate(model, x) == pytest.approx(
                eval_oracle(model.x0, model.c, model.g, model.H, x), rel=1e-13
            )

    def test_callable_form(self, square):
        model = fit_mfn(square).model
        x = np.array([0.3, -0.2, 0.0])
        assert model(x) == pytest.approx(evaluate(model, x))

    def test_point_shape(self, square):
        """A point broadcasts against ``x0`` (a scalar stands for every
        entry); any other shape raises ``DimensionMismatchError``."""
        model = fit_mfn(square).model
        assert model(0.5) == model(np.full(3, 0.5))
        for bad in (np.zeros(4), np.zeros((1, 3)), np.zeros((3, 1))):
            with pytest.raises(DimensionMismatchError):
                model(bad)


class TestDeterminedFit:
    def test_univariate_parabola(self):
        # f(t) = t^2 at t in {0, 1, -1}: g = 0, H = 2 at the origin
        ss = SampleSet(
            np.zeros(1), np.array([[1.0], [-1.0]]), np.array([0.0, 1.0, 1.0])
        )
        result = fit_dqi(ss)
        assert result.model.g[0] == pytest.approx(0.0, abs=1e-12)
        assert result.model.H[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_bilinear_hand_solution(self):
        """f = 1 + x1 - x2 + x1*x2 on six points: every coefficient is
        read off the closed form."""
        f = lambda x: 1.0 + x[0] - x[1] + x[0] * x[1]
        disp = np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]
        )
        values = np.array([f(np.zeros(2))] + [f(d) for d in disp])
        result = fit_dqi(SampleSet(np.zeros(2), disp, values))
        np.testing.assert_allclose(result.model.g, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(
            result.model.H, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12
        )
        assert result.model.c == pytest.approx(1.0)
        assert result.gradients.dim == 0

    def test_reproduces_random_quadratics(self, rng):
        for n in (2, 3):
            g_true = rng.standard_normal(n)
            h_true = rng.standard_normal((n, n))
            h_true = (h_true + h_true.T) / 2
            f = lambda x: float(g_true @ x + 0.5 * x @ h_true @ x)
            disp = random_poised_set(rng, n)
            values = np.array([f(np.zeros(n))] + [f(d) for d in disp])
            result = fit_dqi(SampleSet(np.zeros(n), disp, values))
            np.testing.assert_allclose(result.model.g, g_true, atol=1e-9)
            np.testing.assert_allclose(result.model.H, h_true, atol=1e-8)

    def test_unpoised_raises(self, square):
        with pytest.raises(NotPoisedError):
            fit_dqi(square)

    def test_one_factorization(self, monkeypatch, rng):
        """The SVD that finds the square system nonsingular also solves
        it: one factorization per fit, and none of ``D^T`` for a span."""
        n = 6
        disp = random_poised_set(rng, n)
        ss = SampleSet(np.zeros(n), disp, rng.standard_normal(len(disp) + 1))
        shapes = []
        svd = np.linalg.svd

        def counting(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        fit_dqi(ss)
        assert shapes == [(27, 27)]


class TestJointMinNorm:
    def test_square_worked_values(self, square):
        result = fit_mn(square)
        np.testing.assert_allclose(result.model.g, [0.8, 0.8, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            result.model.H, np.diag([0.4, 0.4, 0.0]), atol=1e-12
        )

    def test_matches_stacked_oracle(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 3))
            disp = rng.standard_normal((m, n))
            f = lambda x: float(np.sin(x).sum() + x @ x)
            values = np.array([f(np.zeros(n))] + [f(d) for d in disp])
            ss = SampleSet(np.zeros(n), disp, values)
            result = fit_mn(ss)
            g_o, h_o = stacked_oracle(ss)
            np.testing.assert_allclose(result.model.g, g_o, atol=1e-8)
            np.testing.assert_allclose(result.model.H, h_o, atol=1e-8)

    def test_objective_optimality(self, square, rng):
        """Any other interpolant has a larger ||g||^2 + ||H||_F^2."""
        result = fit_mn(square)
        base = np.linalg.norm(result.model.g) ** 2 + np.linalg.norm(result.model.H) ** 2
        mat = quadratic_constraint_matrix(square.displacements)
        nullspace = linalg.orthonormal_complement(
            linalg.orthonormal_columns(mat.T)[0]
        )
        for _ in range(20):
            coeffs = 0.5 * rng.standard_normal(nullspace.shape[1])
            bump = nullspace @ coeffs
            g = result.model.g + bump[:3]
            h = result.model.H + linalg.smat(bump[3:])
            # still interpolates
            for d, target in zip(square.displacements, square.delta):
                assert d @ g + 0.5 * d @ h @ d == pytest.approx(target, abs=1e-9)
            other = np.linalg.norm(g) ** 2 + np.linalg.norm(h) ** 2
            assert other >= base - 1e-10

    def test_infeasible_values_raise(self):
        t = np.arange(1.0, 7.0)
        disp = np.outer(t, np.array([1.0, 0.0]))
        values = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        ss = SampleSet(np.zeros(2), disp, values)
        with pytest.raises(InfeasibleError) as info:
            fit_mn(ss)
        assert info.value.residual > 1e-6


def weighted_limit_oracle(sample_set, weight):
    """Stacked min-norm fit with the gradient block scaled by ``weight``.

    Substituting beta = weight * g turns ``min w^2||g||^2 + ||H||_F^2``
    into a plain min-norm problem; as the weight drops the Hessian
    approaches the min-Frobenius-Hessian solution.
    """
    mat = quadratic_constraint_matrix(sample_set.displacements).copy()
    n = sample_set.n
    mat[:, :n] /= weight
    coeff, *_ = np.linalg.lstsq(mat, sample_set.delta, rcond=None)
    return coeff[:n] / weight, linalg.smat(coeff[n:])


class TestMinFrobeniusHessian:
    def test_square_worked_values(self, square):
        result = fit_mfn(square)
        np.testing.assert_allclose(result.model.g, [1.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(result.model.H, np.zeros((3, 3)), atol=1e-12)
        amb = result.gradients.ambiguity_basis
        assert amb.shape == (3, 1)
        np.testing.assert_allclose(np.abs(amb[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_weighted_limit_oracle(self, rng):
        """The Hessian (and span-projected gradient) of the weighted fits
        converge to the dedicated solver's output as the weight vanishes.
        Convergence here is first order in the weight squared, so compare
        successive errors instead of pinning absolute gaps."""
        for _ in range(6):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, n + 3))
            disp = rng.standard_normal((m, n))
            f = lambda x: float(np.cos(x).sum() + 0.5 * (x @ x))
            values = np.array([f(np.zeros(n))] + [f(d) for d in disp])
            ss = SampleSet(np.zeros(n), disp, values)
            result = fit_mfn(ss)
            errs = []
            for w in (1e-2, 1e-3, 1e-4):
                g_w, h_w = weighted_limit_oracle(ss, w)
                errs.append(
                    np.linalg.norm(h_w - result.model.H)
                    + np.linalg.norm(g_w - result.model.g)
                )
            assert errs[1] <= 0.05 * errs[0] + 1e-9
            assert errs[2] <= 0.05 * errs[1] + 1e-9

    def test_hessian_in_outer_product_span(self, rng):
        """Stationarity: the optimal Hessian is a combination of the
        displacement outer products."""
        n, m = 4, 5
        disp = rng.standard_normal((m, n))
        f = lambda x: float(np.sin(x).sum())
        values = np.array([f(np.zeros(n))] + [f(d) for d in disp])
        result = fit_mfn(SampleSet(np.zeros(n), disp, values))
        basis = np.array([linalg.svec(np.outer(d, d)) for d in disp]).T
        target = linalg.svec(result.model.H)
        projected = basis @ np.linalg.lstsq(basis, target, rcond=None)[0]
        np.testing.assert_allclose(projected, target, atol=1e-9)

    def test_interpolates(self, rng):
        n, m = 3, 6
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        result = fit_mfn(ss)
        for d, v in zip(disp, values[1:]):
            assert result.model(d) == pytest.approx(v, abs=1e-8)

    def test_gradient_family_members_interpolate(self, square, rng):
        result = fit_mfn(square)
        for _ in range(5):
            coeffs = rng.standard_normal(result.gradients.dim)
            g = member(result.gradients, coeffs)
            for d, target in zip(square.displacements, square.delta):
                assert d @ g + 0.5 * d @ result.model.H @ d == pytest.approx(
                    target, abs=1e-10
                )

    def test_canonical_gradient_in_displacement_span(self, square):
        result = fit_mfn(square)
        amb = result.gradients.ambiguity_basis
        np.testing.assert_allclose(amb.T @ result.gradients.canonical, 0.0, atol=1e-12)


class TestImplicitFamily:
    """mfn and lfu hold ``col(span)^perp`` by the span's basis ``K``."""

    @pytest.mark.parametrize("kind", ["mfn", "lfu"])
    def test_lazy_basis_is_the_complement(self, rng, kind):
        ss = subspace_set(rng, 12, 3, 5)
        result = fit_kind(kind, ss, np.eye(12))
        family = result.gradients
        span = linalg.orthonormal_columns(ss.displacements.T)[0]
        np.testing.assert_array_equal(family.complement_of, span)
        assert family.explicit.shape == (12, 0)
        assert family.dim == 9
        assert "ambiguity_basis" not in vars(family)
        np.testing.assert_array_equal(
            family.ambiguity_basis, linalg.orthonormal_complement(span)
        )
        assert family.ambiguity_basis is family.ambiguity_basis

    def test_full_span_leaves_no_ambiguity(self, rng):
        ss = SampleSet(np.zeros(3), rng.standard_normal((5, 3)),
                       rng.standard_normal(6))
        family = fit_mfn(ss).gradients
        assert family.complement_of.shape == (3, 3)
        assert family.dim == 0
        assert family.ambiguity_basis.shape == (3, 0)

    def test_lifted_part_comes_first(self):
        kernel = np.eye(4)[:, :2]
        family = GradientFamily(np.zeros(4), np.eye(4)[:, 1:2], kernel)
        assert family.dim == 3
        np.testing.assert_array_equal(family.ambiguity_basis, np.hstack(
            [np.eye(4)[:, 1:2], linalg.orthonormal_complement(kernel)]
        ))

    @pytest.mark.parametrize("explicit,kernel", [
        (np.zeros((4, 0)), 2.0 * np.eye(4)[:, :2]),        # K not orthonormal
        (np.zeros((4, 0)), np.hstack([np.eye(4), np.eye(4)[:, :1]])),  # k > n
        (np.zeros((4, 0)), np.eye(5)[:, :2]),              # K rows
        (np.eye(4)[:, 3:], np.eye(4)[:, :2]),              # E outside col(K)
        (2.0 * np.eye(4)[:, :1], np.eye(4)[:, :2]),        # E not orthonormal
        (np.eye(5)[:, :1], np.eye(4)[:, :2]),              # E rows
    ])
    def test_checks(self, explicit, kernel):
        with pytest.raises(DimensionMismatchError):
            GradientFamily(np.zeros(4), explicit, kernel)


class TestLeastChange:
    def test_zero_reference_is_min_frobenius(self, rng):
        n, m = 3, 5
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        a = fit_lfu(ss, np.zeros((n, n)))
        b = fit_mfn(ss)
        np.testing.assert_allclose(a.model.H, b.model.H, atol=1e-12)
        np.testing.assert_allclose(
            a.gradients.canonical, b.gradients.canonical, atol=1e-12
        )

    def test_square_worked_values(self, square):
        result = fit_lfu(square, np.eye(3))
        np.testing.assert_allclose(result.model.g, [0.5, 0.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(result.model.H, np.eye(3), atol=1e-12)

    def test_update_minimality(self, rng):
        """||H - href||_F is no larger than for other interpolants built
        from the same fit plus admissible Hessian perturbations."""
        n, m = 3, 4
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        href = rng.standard_normal((n, n))
        href = (href + href.T) / 2
        result = fit_lfu(ss, href)
        base = np.linalg.norm(result.model.H - href)
        # perturb H inside the admissible set: need d^T (dH) d = 0 for all i
        quad_rows = np.array([linalg.svec(np.outer(d, d) / 2) for d in disp])
        null = linalg.orthonormal_complement(
            linalg.orthonormal_columns(quad_rows.T)[0]
        )
        for _ in range(15):
            dh = linalg.smat(null @ rng.standard_normal(null.shape[1]))
            assert np.linalg.norm(result.model.H + dh - href) >= base - 1e-10

    def test_shift_equivariance(self, rng):
        """Adding a quadratic with Hessian K to both the values and the
        reference shifts the fitted Hessian by exactly K."""
        n, m = 4, 6
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        href = rng.standard_normal((n, n))
        href = (href + href.T) / 2
        k = rng.standard_normal((n, n))
        k = (k + k.T) / 2
        shifted_values = values.copy()
        shifted_values[1:] += 0.5 * np.einsum("ij,jk,ik->i", disp, k, disp)
        base = fit_lfu(ss, href)
        moved = fit_lfu(SampleSet(np.zeros(n), disp, shifted_values), href + k)
        np.testing.assert_allclose(moved.model.H, base.model.H + k, atol=1e-10)
        np.testing.assert_allclose(
            moved.gradients.canonical, base.gradients.canonical, atol=1e-10
        )

    def test_reference_shape_checks(self, square):
        with pytest.raises(NotSquareError):
            fit_lfu(square, np.ones((3, 2)))
        with pytest.raises(DimensionMismatchError):
            fit_lfu(square, np.eye(2))
        with pytest.raises(DimensionMismatchError):
            fit_lfu(square, np.ones(2))
        with pytest.raises(NonFiniteError):
            fit_lfu(square, np.diag([1.0, np.inf, 1.0]))
        with pytest.raises(NotSquareError):
            fit_lfu(square, np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0.0]]))

    def test_reference_hessian_recorded(self, square):
        # held as the vector of its diagonal, as lifts and files hold it
        result = fit_lfu(square, np.eye(3))
        np.testing.assert_array_equal(result.reference_hessian, np.ones(3))
        assert result.kind == "lfu"


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


class TestHeldReference:
    """``held_reference`` is the one entry of a reference Hessian: finite,
    square, of the full dimension and symmetric to ``SYMMETRY_RTOL``;
    held as a private copy, its exactly symmetric part, or the vector of
    its diagonal."""

    def test_exactly_symmetric_is_a_private_copy(self, rng):
        href = linalg.sym_part(rng.standard_normal((5, 5)))
        held = held_reference(href, 5)
        assert held is not href and not np.shares_memory(held, href)
        np.testing.assert_array_equal(_bits(held), _bits(href))

    def test_nearly_symmetric_is_symmetrized(self, rng):
        href = linalg.sym_part(rng.standard_normal((5, 5)))
        href[0, 1] += 1e-14
        held = held_reference(href, 5)
        np.testing.assert_array_equal(_bits(held), _bits(held.T))
        np.testing.assert_array_equal(_bits(held),
                                      _bits(linalg.sym_part(href)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_asymmetry_beyond_the_rule_raises(self, scale):
        href = scale * np.eye(4)
        href[0, 2] = 2 * SYMMETRY_RTOL * max(1.0, scale)
        with pytest.raises(NotSquareError, match="symmetric"):
            held_reference(href, 4)
        href[0, 2] = 0.5 * SYMMETRY_RTOL * max(1.0, scale)
        held_reference(href, 4)

    def test_signed_zero_mirror_pair_is_held_as_today(self, rng):
        """``+0.0`` above and ``-0.0`` below is symmetrized to ``+0.0``,
        so an identity with such a pair is held as its diagonal; a pair of
        ``-0.0`` is exactly symmetric and keeps the array form."""
        href = np.eye(4)
        href[1, 3], href[3, 1] = 0.0, -0.0
        np.testing.assert_array_equal(_bits(held_reference(href, 4)),
                                      _bits(np.ones(4)))
        dense = linalg.sym_part(rng.standard_normal((4, 4)))
        dense[1, 3], dense[3, 1] = 0.0, -0.0
        held = held_reference(dense, 4)
        assert held.shape == (4, 4)
        np.testing.assert_array_equal(_bits(held),
                                      _bits(linalg.sym_part(dense)))
        href[3, 1] = -0.0
        href[1, 3] = -0.0
        held = held_reference(href, 4)
        assert held.shape == (4, 4)
        np.testing.assert_array_equal(_bits(held), _bits(href))

    @pytest.mark.parametrize("n", [7, 40])
    def test_fit_takes_either_form(self, rng, n):
        """``fit_lfu`` and ``_reference_fit`` give one model, bit for bit,
        whether the diagonal reference is a vector or an array, and the
        model of the dense products with the array itself."""
        m = 5
        ss = SampleSet(rng.standard_normal(n), rng.standard_normal((m, n)),
                       rng.standard_normal(m + 1))
        v = rng.standard_normal(n)
        dense = _least_change(ss, np.diag(v), None, FEASIBILITY_RTOL)
        for fit in (fit_lfu, lambda s, h: _reference_fit("lfu", s, h)):
            a, b = fit(ss, v), fit(ss, np.diag(v))
            for got, want in ((a.model.H, b.model.H), (a.model.g, b.model.g),
                              (a.reference_hessian, b.reference_hessian)):
                np.testing.assert_array_equal(_bits(got), _bits(want))
            np.testing.assert_array_equal(_bits(a.reference_hessian),
                                          _bits(v))
        a = fit_lfu(ss, v)
        for got, want in ((a.model.H, dense.model.H),
                          (a.model.g, dense.model.g)):
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_restricted_vector_has_the_array_bits(self, rng):
        """``B^T diag(v) B`` from the vector has the array's bits."""
        for _ in range(300):
            n = int(rng.integers(1, 121))
            k = int(rng.integers(1, min(n, 7) + 1))
            basis, _ = np.linalg.qr(rng.standard_normal((n, k)))
            v = rng.standard_normal(n)
            np.testing.assert_array_equal(
                _bits(restricted_reference(v, basis)),
                _bits(restricted_reference(np.diag(v), basis)),
            )


def test_model_results_expose_kind(square):
    assert fit_mn(square).kind == "mn"
    assert fit_mfn(square).kind == "mfn"


class TestLargeDimension:
    """At ``n = 200`` the stacked system has 20300 unknowns; a fit must
    stay thin (no ``cols x cols`` factor), match the public subspace
    route (detect, hat, fit in ``d = 6`` coordinates, lift) and match the
    dense reference solve of the full system."""

    @pytest.fixture
    def wide_set(self, rng):
        n, d, m = 200, 6, 20
        basis, _ = np.linalg.qr(rng.standard_normal((n, d)))
        disp = rng.standard_normal((m, d)) @ basis.T
        x0 = rng.standard_normal(n)
        f = lambda x: float(np.sin(x).sum() + 0.5 * x @ x)
        values = np.array([f(x0)] + [f(x0 + row) for row in disp])
        return SampleSet(x0, disp, values)

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_fit_matches_lifted_subspace_fit(self, wide_set, rng, kind):
        from subquad.bridge import lift_lfu, lift_mfn, lift_mn
        from subquad.geometry import detect_subspace, hat_sampleset

        frame = detect_subspace(wide_set)
        assert frame.d == 6
        hatted = hat_sampleset(wide_set, frame)
        if kind == "mn":
            full = fit_mn(wide_set)
            lifted = lift_mn(fit_mn(hatted), frame)
        elif kind == "mfn":
            full = fit_mfn(wide_set)
            lifted = lift_mfn(fit_mfn(hatted), frame)
        else:
            href = linalg.sym_part(rng.standard_normal((200, 200)))
            full = fit_lfu(wide_set, href)
            href_hat = linalg.sym_part(frame.Q.T @ href @ frame.Q)
            lifted = lift_lfu(fit_lfu(hatted, href_hat), frame, href)

        disp, g, h = wide_set.displacements, full.model.g, full.model.H
        predicted = disp @ g + 0.5 * np.einsum("ij,jk,ik->i", disp, h, disp)
        scale = max(1.0, float(np.max(np.abs(wide_set.values))))
        assert np.max(np.abs(predicted - wide_set.delta)) <= 1e-9 * scale

        g_scale = max(1.0, float(np.linalg.norm(lifted.model.g)))
        h_scale = max(1.0, float(np.linalg.norm(lifted.model.H)))
        assert np.linalg.norm(g - lifted.model.g) <= 1e-8 * g_scale
        assert np.linalg.norm(h - lifted.model.H) <= 1e-8 * h_scale

        reference = _reference_fit(kind, wide_set, full.reference_hessian)
        assert np.linalg.norm(g - reference.model.g) <= 1e-10 * g_scale
        assert np.linalg.norm(h - reference.model.H) <= 1e-10 * h_scale
        np.testing.assert_array_equal(
            full.gradients.ambiguity_basis,
            reference.gradients.ambiguity_basis,
        )


def collinear_inconsistent_set():
    """Six steps along one line in R^3 with values no univariate quadratic
    meets (the infeasible set of the geometry tests)."""
    t = np.arange(1.0, 7.0)
    disp = np.outer(t, np.array([1.0, 1.0, 0.0]))
    values = np.array([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    return SampleSet(np.zeros(3), disp, values)


def collinear_quadratic_set():
    t = np.arange(1.0, 7.0)
    disp = np.outer(t, np.array([1.0, 1.0, 0.0]))
    f = lambda x: 1.0 + x[0] + 3.0 * x[1] ** 2
    values = np.array([f(np.zeros(3))] + [f(d) for d in disp])
    return SampleSet(np.zeros(3), disp, values)


def poised_quadratic_set():
    rng = np.random.default_rng(7)
    disp = random_poised_set(rng, 3)
    h = linalg.sym_part(rng.standard_normal((3, 3)))
    g = rng.standard_normal(3)
    values = np.array([2.0] + [2.0 + g @ d + 0.5 * d @ h @ d for d in disp])
    return SampleSet(np.zeros(3), disp, values)


def planted_wide_set():
    rng = np.random.default_rng(11)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    disp = rng.standard_normal((7, 3)) @ basis.T
    x0 = rng.standard_normal(8)
    f = lambda x: float(np.cos(x).sum() + 0.5 * x @ x)
    values = np.array([f(x0)] + [f(x0 + row) for row in disp])
    return SampleSet(x0, disp, values)


FIXTURE_SETS = {
    "square": unit_square_set,
    "collinear": collinear_quadratic_set,
    "poised": poised_quadratic_set,
    "wide": planted_wide_set,
}


def fit_by_kind(kind, sample_set):
    if kind == "dqi":
        return fit_dqi(sample_set)
    if kind == "mn":
        return fit_mn(sample_set)
    if kind == "mfn":
        return fit_mfn(sample_set)
    return fit_lfu(sample_set, np.eye(sample_set.n))


class TestFeasibilityRule:
    """A fit raises exactly when the model it returns misses a value by
    more than ``feas_tol * max(1, max |values|)``."""

    @pytest.mark.parametrize("fit", [
        fit_mn, fit_mfn,
        lambda s: fit_lfu(s, np.zeros((3, 3))),
        lambda s: fit_lfu(s, np.eye(3)),
    ], ids=["mn", "mfn", "lfu-zero", "lfu-identity"])
    def test_inconsistent_values_raise(self, fit):
        with pytest.raises(InfeasibleError) as info:
            fit(collinear_inconsistent_set())
        assert info.value.residual > 1e-6

    @pytest.mark.parametrize("name,kind", [("poised", "dqi")] + [
        (name, kind) for name in sorted(FIXTURE_SETS)
        for kind in ("mn", "mfn", "lfu")
    ])
    def test_returned_model_meets_values(self, name, kind):
        sample_set = FIXTURE_SETS[name]()
        model = fit_by_kind(kind, sample_set).model
        scale = max(1.0, float(np.max(np.abs(sample_set.values))))
        for point, value in zip(sample_set.points(), sample_set.values):
            got = eval_oracle(model.x0, model.c, model.g, model.H, point)
            assert abs(got - value) <= FEASIBILITY_RTOL * scale

    @pytest.mark.parametrize("name", sorted(FIXTURE_SETS))
    def test_zero_reference_is_bitwise_min_frobenius(self, name):
        sample_set = FIXTURE_SETS[name]()
        a = fit_lfu(sample_set, np.zeros((sample_set.n, sample_set.n)))
        b = fit_mfn(sample_set)
        np.testing.assert_array_equal(a.model.H, b.model.H)
        np.testing.assert_array_equal(a.model.g, b.model.g)
        np.testing.assert_array_equal(
            a.gradients.ambiguity_basis, b.gradients.ambiguity_basis
        )


def effective_cond(mat):
    """sigma_max / smallest singular value kept at the default rank rule."""
    sigma = np.linalg.svd(mat, compute_uv=False)
    kept = sigma[sigma > linalg.default_rank_tol(*mat.shape) * sigma[0]]
    return kept[0] / kept[-1]


class TestPermutationInvariance:
    """Reordering the sample rows leaves every fit unchanged.

    Error model: each fit is a backward-stable solve of a system with
    ``N = max(rows, cols)`` and effective condition number ``kappa`` (the
    stacked matrix for mn, the multiplier system for mfn and lfu), so one
    fit is within about ``N * eps * kappa`` of the exact answer relative to
    its size. Two fits of the same problem may differ by twice that; the
    bound allows a factor of 16. The ambiguity span is a function of the
    displacements alone and is held to the same bound with their own
    condition number.
    """

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
           extra=st.integers(-20, 2))
    @settings(max_examples=60, deadline=None)
    def test_row_order_does_not_matter(self, seed, n, extra):
        rng = np.random.default_rng(seed)
        m = max(1, (n + 1) * (n + 2) // 2 - 1 + extra)
        disp = rng.standard_normal((m, n))
        g = rng.standard_normal(n)
        h = linalg.sym_part(rng.standard_normal((n, n)))
        values = np.concatenate([[0.5], 0.5 + disp @ g + 0.5 * np.einsum(
            "ij,jk,ik->i", disp, h, disp)])
        href = linalg.sym_part(rng.standard_normal((n, n)))
        perm = rng.permutation(m)
        base = SampleSet(np.zeros(n), disp, values)
        moved = SampleSet(np.zeros(n), disp[perm],
                          np.concatenate([values[:1], values[1:][perm]]))

        gram = disp @ disp.T
        multipliers = np.block([
            [0.5 * gram * gram, disp], [disp.T, np.zeros((n, n))],
        ])
        systems = {
            "mn": (fit_mn, quadratic_constraint_matrix(disp)),
            "mfn": (fit_mfn, multipliers),
            "lfu": (lambda s: fit_lfu(s, href), multipliers),
        }
        eps = np.finfo(float).eps
        for kind, (fit, system) in systems.items():
            a, b = fit(base), fit(moved)
            size = np.hypot(np.linalg.norm(a.model.g),
                            np.linalg.norm(a.model.H))
            gap = np.hypot(np.linalg.norm(a.model.g - b.model.g),
                           np.linalg.norm(a.model.H - b.model.H))
            tol = 16 * max(system.shape) * eps * effective_cond(system)
            assert gap <= tol * size, kind
            pa, pb = a.gradients.ambiguity_basis, b.gradients.ambiguity_basis
            span_gap = np.linalg.norm(pa @ pa.T - pb @ pb.T)
            span_tol = 16 * max(disp.shape) * eps * effective_cond(disp)
            assert span_gap <= span_tol, kind


def fit_kind(kind, sample_set, href, **kwargs):
    if kind == "mn":
        return fit_mn(sample_set, **kwargs)
    if kind == "mfn":
        return fit_mfn(sample_set, **kwargs)
    return fit_lfu(sample_set, href, **kwargs)


@pytest.fixture
def solves(monkeypatch):
    """Column counts of every constraint matrix built and every matrix
    handed to the min-norm solver while the fixture is active, and the
    rank tolerance each solve received."""
    record = SimpleNamespace(widths=[], rank_tols=[])
    build = geometry.quadratic_constraint_matrix
    solve = linalg.minnorm_lstsq

    def recording_build(displacements):
        matrix = build(displacements)
        record.widths.append(matrix.shape[1])
        return matrix

    def recording_solve(a, b, rank_tol=None):
        record.widths.append(np.shape(a)[1])
        record.rank_tols.append(rank_tol)
        return solve(a, b, rank_tol)

    monkeypatch.setattr(geometry, "quadratic_constraint_matrix",
                        recording_build)
    monkeypatch.setattr(linalg, "minnorm_lstsq", recording_solve)
    return record


class TestSpanRoute:
    """Full-space mn, mfn and lfu fits solve the ``r``-dimensional system
    of the displacement span and lift; the dense solve of the full system
    is their fallback and reference."""

    def test_solves_stay_in_span_dimensions(self, rng, solves):
        n, d, m = 200, 6, 20
        sample_set = subspace_set(rng, n, d, m)
        href = linalg.sym_part(rng.standard_normal((n, n)))
        for kind in ("mn", "mfn", "lfu"):
            fit_kind(kind, sample_set, href)
        # mn builds and solves one stacked matrix; mfn and lfu solve one
        # multiplier system each
        assert len(solves.widths) == 4
        assert max(solves.widths) <= max(d + d * (d + 1) // 2, m + d)
        # the rank cutoff is the one the dense n-dimensional system uses
        stacked = linalg.default_rank_tol(m, n + n * (n + 1) // 2)
        multipliers = linalg.default_rank_tol(m + n, m + n)
        assert solves.rank_tols == [stacked, multipliers, multipliers]

    @pytest.mark.parametrize("n,d,m", [(40, 2, 5), (80, 6, 20), (200, 6, 20)])
    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_matches_dense_reference(self, rng, n, d, m, kind):
        sample_set = subspace_set(rng, n, d, m)
        href = linalg.sym_part(rng.standard_normal((n, n)))
        fitted = fit_kind(kind, sample_set, href)
        reference = _reference_fit(kind, sample_set, href)
        size = np.hypot(np.linalg.norm(reference.model.g),
                        np.linalg.norm(reference.model.H))
        assert np.linalg.norm(fitted.model.g - reference.model.g) <= (
            1e-10 * size
        )
        assert np.linalg.norm(fitted.model.H - reference.model.H) <= (
            1e-10 * size
        )
        np.testing.assert_array_equal(
            fitted.gradients.ambiguity_basis,
            reference.gradients.ambiguity_basis,
        )

    @pytest.mark.parametrize("name", ["poised", "hatted-square", "full-rank"])
    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_full_span_sets_are_bitwise_dense(self, name, kind):
        if name == "poised":
            sample_set = poised_quadratic_set()
        elif name == "hatted-square":
            sample_set = hat_sampleset(unit_square_set(), axis_frame())
        else:
            sample_set = subspace_set(np.random.default_rng(3), 4, 4, 8)
        href = np.eye(sample_set.n)
        fitted = fit_kind(kind, sample_set, href)
        reference = _reference_fit(kind, sample_set, href)
        np.testing.assert_array_equal(fitted.model.g, reference.model.g)
        np.testing.assert_array_equal(fitted.model.H, reference.model.H)
        np.testing.assert_array_equal(
            fitted.gradients.ambiguity_basis,
            reference.gradients.ambiguity_basis,
        )

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_data_off_the_span_takes_the_dense_path(self, kind, solves):
        """Steps in three directions of R^5, one of them 1e-6 short: the
        default rank rule keeps all three and the span route runs; a
        ``rank_tol`` of 1e-3 drops the short one, the steps then leave the
        two-dimensional span by 1e-6 relative (beyond ``SUBSPACE_RTOL``),
        and the fit is the dense solve at that tolerance."""
        rng = np.random.default_rng(5)
        n, m = 5, 4
        disp = np.zeros((m, n))
        disp[:, :3] = rng.standard_normal((m, 3)) * [1.0, 1.0, 1e-6]
        values = np.concatenate([[0.0], np.sin(disp).sum(axis=1)])
        sample_set = SampleSet(np.zeros(n), disp, values)
        href = np.eye(n)
        dense_width = n + n * (n + 1) // 2 if kind == "mn" else m + n

        fit_kind(kind, sample_set, href)
        assert max(solves.widths) < dense_width

        solves.widths.clear()
        loose = {"rank_tol": 1e-3, "feas_tol": 1e-3}
        fitted = fit_kind(kind, sample_set, href, **loose)
        assert max(solves.widths) == dense_width
        reference = _reference_fit(kind, sample_set, href, **loose)
        np.testing.assert_array_equal(fitted.model.g, reference.model.g)
        np.testing.assert_array_equal(fitted.model.H, reference.model.H)


def fit_bounds(disp):
    """Error-model bounds ``16 N eps kappa`` of the fits (see
    :class:`TestPermutationInvariance`), and of the ambiguity span."""
    n = disp.shape[1]
    gram = disp @ disp.T
    multipliers = np.block([
        [0.5 * gram * gram, disp], [disp.T, np.zeros((n, n))],
    ])
    eps = np.finfo(float).eps
    bounds = {
        kind: 16 * max(system.shape) * eps * effective_cond(system)
        for kind, system in (
            ("mn", quadratic_constraint_matrix(disp)),
            ("mfn", multipliers), ("lfu", multipliers),
        )
    }
    return bounds, 16 * max(disp.shape) * eps * effective_cond(disp)


def planted_quadratic(rng, n, d, m):
    """Steps in a random ``d``-dimensional subspace of R^n with the values
    of a random quadratic (so every fit is feasible), and a reference
    Hessian."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, d)))
    disp = rng.standard_normal((m, d)) @ basis.T
    g = rng.standard_normal(n)
    h = linalg.sym_part(rng.standard_normal((n, n)))
    values = np.concatenate([
        [0.5], 0.5 + disp @ g + 0.5 * ((disp @ h) * disp).sum(axis=1),
    ])
    href = linalg.sym_part(rng.standard_normal((n, n)))
    return rng.standard_normal(n), disp, values, href


def model_gap(a_g, a_h, b_g, b_h):
    return np.hypot(np.linalg.norm(a_g - b_g), np.linalg.norm(a_h - b_h))


shapes = st.tuples(
    st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 5),
    st.integers(-20, 2),
)


def draw_shape(n, drop, extra):
    d = max(1, n - drop)
    return d, max(1, d * (d + 3) // 2 + extra)


class TestMetamorphicProperties:
    """Properties of the fitted problem itself, checked without any
    reference solver; they share no code with the choice of basis.

    Tolerances follow the error model of :class:`TestPermutationInvariance`:
    ``16 N eps kappa`` relative to the model size, widened for a value
    shift by the rounding it adds to the value differences.
    """

    @given(shape=shapes)
    @settings(max_examples=50, deadline=None)
    def test_rotation_covariance(self, shape):
        seed, n, drop, extra = shape
        rng = np.random.default_rng(seed)
        d, m = draw_shape(n, drop, extra)
        x0, disp, values, href = planted_quadratic(rng, n, d, m)
        rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = SampleSet(x0, disp, values)
        turned = SampleSet(rot @ x0, disp @ rot.T, values)
        turned_href = linalg.sym_part(rot @ href @ rot.T)
        bounds, span_bound = fit_bounds(disp)
        for kind in ("mn", "mfn", "lfu"):
            a = fit_kind(kind, base, href)
            b = fit_kind(kind, turned, turned_href)
            size = np.hypot(np.linalg.norm(a.model.g),
                            np.linalg.norm(a.model.H))
            gap = model_gap(rot @ a.model.g, rot @ a.model.H @ rot.T,
                            b.model.g, b.model.H)
            assert gap <= bounds[kind] * size, kind
            pa = rot @ a.gradients.ambiguity_basis
            pb = b.gradients.ambiguity_basis
            assert np.linalg.norm(pa @ pa.T - pb @ pb.T) <= span_bound, kind

    @given(shape=shapes, shift=st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_translating_x0_changes_nothing(self, shape, shift):
        seed, n, drop, extra = shape
        rng = np.random.default_rng(seed)
        d, m = draw_shape(n, drop, extra)
        x0, disp, values, href = planted_quadratic(rng, n, d, m)
        moved_x0 = x0 + shift * rng.standard_normal(n)
        base = SampleSet(x0, disp, values)
        moved = SampleSet(moved_x0, disp, values)
        for kind in ("mn", "mfn", "lfu"):
            a = fit_kind(kind, base, href)
            b = fit_kind(kind, moved, href)
            np.testing.assert_array_equal(b.model.x0, moved_x0)
            assert b.model.c == a.model.c
            np.testing.assert_array_equal(b.model.g, a.model.g)
            np.testing.assert_array_equal(b.model.H, a.model.H)
            np.testing.assert_array_equal(
                b.gradients.ambiguity_basis, a.gradients.ambiguity_basis
            )

    @given(shape=shapes, c=st.floats(-1e3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_shifting_values_changes_only_c(self, shape, c):
        seed, n, drop, extra = shape
        rng = np.random.default_rng(seed)
        d, m = draw_shape(n, drop, extra)
        x0, disp, values, href = planted_quadratic(rng, n, d, m)
        base = SampleSet(x0, disp, values)
        shifted = SampleSet(x0, disp, values + c)
        # the differences f(x0 + d_i) - f(x0) pick up a rounding error of
        # about eps (|c| + max |values|) each
        delta = np.linalg.norm(base.delta)
        spread = np.sqrt(m) * (abs(c) + np.max(np.abs(values)))
        widen = 1.0 + spread / max(delta, np.finfo(float).tiny)
        bounds, _ = fit_bounds(disp)
        for kind in ("mn", "mfn", "lfu"):
            a = fit_kind(kind, base, href)
            b = fit_kind(kind, shifted, href)
            assert b.model.c == shifted.values[0]
            size = np.hypot(np.linalg.norm(a.model.g),
                            np.linalg.norm(a.model.H))
            gap = model_gap(a.model.g, a.model.H, b.model.g, b.model.H)
            assert gap <= bounds[kind] * widen * size, kind
            np.testing.assert_array_equal(
                b.gradients.ambiguity_basis, a.gradients.ambiguity_basis
            )
