"""Full-space/subspace conversions.

The discipline throughout: fit the same data twice -- once in the full
space, once on the hatted set inside the frame -- and require the lift
of the second to match the first (and the restriction of the first to
match the second). These are exact identities, so tolerances are tight.
"""

import dataclasses

import numpy as np
import pytest

from conftest import axis_frame, unit_square_set
from subquad import linalg, models
from subquad.bridge import (
    coincidence_check,
    hat_directions,
    lift_lfu,
    lift_mfn,
    lift_mn,
    lift_simplex,
    restrict,
)
from subquad.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotInSubspaceError,
    ReferenceMismatchError,
    SpecInfeasibleError,
    VariantPreconditionError,
)
from subquad.geometry import (
    SampleSet,
    SubspaceFrame,
    hat_sampleset,
)
from subquad.models import (
    GradientFamily,
    ModelResult,
    QuadraticModel,
    fit_lfu,
    fit_mfn,
    fit_mn,
)
from subquad.simplex import DirectionBundle, fit_qgsd, gsg, gsh


def planted_instance(rng, n=5, d=2, m=4):
    """Sample a non-quadratic function on a d-dimensional displacement set."""
    q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
    dhat = rng.standard_normal((m, d))
    disp = dhat @ q.T
    x0 = rng.standard_normal(n)
    f = lambda x: float(np.sin(x).sum() + 0.25 * (x @ x))
    values = np.array([f(x0)] + [f(x0 + dd) for dd in disp])
    full_set = SampleSet(x0, disp, values)
    frame = SubspaceFrame(x0, q, dhat=dhat)
    return full_set, frame


class TestIdentityFrame:
    """With Q = I the conversions must be the identity map."""

    def test_mn_round_trip(self, rng):
        n, m = 3, 4
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        frame = SubspaceFrame(np.zeros(n), np.eye(n), dhat=disp)
        sub = fit_mn(hat_sampleset(ss, frame))
        lifted = lift_mn(sub, frame)
        direct = fit_mn(ss)
        np.testing.assert_allclose(lifted.model.g, direct.model.g, atol=1e-12)
        np.testing.assert_allclose(lifted.model.H, direct.model.H, atol=1e-12)


class TestMinNormLift:
    def test_agrees_with_direct_full_fit(self, rng):
        for _ in range(8):
            full_set, frame = planted_instance(rng)
            sub = fit_mn(hat_sampleset(full_set, frame))
            lifted = lift_mn(sub, frame)
            direct = fit_mn(full_set)
            np.testing.assert_allclose(lifted.model.g, direct.model.g, atol=1e-9)
            np.testing.assert_allclose(lifted.model.H, direct.model.H, atol=1e-9)

    def test_values_agree_everywhere(self, rng):
        """On and off the subspace: the lifted and direct models are the
        same polynomial."""
        full_set, frame = planted_instance(rng)
        sub = fit_mn(hat_sampleset(full_set, frame))
        lifted = lift_mn(sub, frame)
        direct = fit_mn(full_set)
        for _ in range(10):
            x = full_set.x0 + rng.standard_normal(frame.n)
            assert lifted.model(x) == pytest.approx(direct.model(x), abs=1e-9)

    def test_rejects_wrong_kind(self, rng):
        full_set, frame = planted_instance(rng)
        sub = fit_mfn(hat_sampleset(full_set, frame))
        with pytest.raises(VariantPreconditionError):
            lift_mn(sub, frame)


class TestMinFrobeniusLift:
    def test_hessian_and_family(self, rng):
        for _ in range(8):
            full_set, frame = planted_instance(rng)
            sub = fit_mfn(hat_sampleset(full_set, frame))
            lifted = lift_mfn(sub, frame)
            direct = fit_mfn(full_set)
            np.testing.assert_allclose(lifted.model.H, direct.model.H, atol=1e-9)
            np.testing.assert_allclose(
                lifted.gradients.canonical, direct.gradients.canonical, atol=1e-9
            )
            # ambiguity bases span the same subspace
            pa = lifted.gradients.ambiguity_basis @ lifted.gradients.ambiguity_basis.T
            pb = direct.gradients.ambiguity_basis @ direct.gradients.ambiguity_basis.T
            np.testing.assert_allclose(pa, pb, atol=1e-9)

    def test_ambiguity_contains_complement(self, rng):
        """Every direction orthogonal to the frame is invisible to the
        displacements, hence ambiguous for the lifted gradient."""
        full_set, frame = planted_instance(rng, n=6, d=2, m=5)
        lifted = lift_mfn(fit_mfn(hat_sampleset(full_set, frame)), frame)
        amb = lifted.gradients.ambiguity_basis
        comp = frame.complement
        # comp columns are reproduced by projecting onto the ambiguity span
        np.testing.assert_allclose(amb @ (amb.T @ comp), comp, atol=1e-10)

    def test_worked_example_family(self):
        square, frame = unit_square_set(), axis_frame()
        sub = fit_mfn(hat_sampleset(square, frame))
        lifted = lift_mfn(sub, frame)
        np.testing.assert_allclose(lifted.gradients.canonical, [1, 1, 0], atol=1e-12)
        amb = lifted.gradients.ambiguity_basis
        assert amb.shape == (3, 1)
        np.testing.assert_allclose(np.abs(amb[:, 0]), [0, 0, 1], atol=1e-12)


class TestLeastChangeLift:
    def test_correction_formula(self, rng):
        """Lifted Hessian must be Q Hsub Q^T + (href - P href P)."""
        for _ in range(8):
            full_set, frame = planted_instance(rng)
            href = rng.standard_normal((frame.n, frame.n))
            href = (href + href.T) / 2
            href_hat = linalg.sym_part(frame.Q.T @ href @ frame.Q)
            sub = fit_lfu(hat_sampleset(full_set, frame), href_hat)
            lifted = lift_lfu(sub, frame, href)
            p = frame.Q @ frame.Q.T
            expected = frame.Q @ sub.model.H @ frame.Q.T + href - p @ href @ p
            np.testing.assert_allclose(lifted.model.H, expected, atol=1e-10)
            direct = fit_lfu(full_set, href)
            np.testing.assert_allclose(lifted.model.H, direct.model.H, atol=1e-8)

    def test_supported_reference_needs_no_correction(self, rng):
        full_set, frame = planted_instance(rng)
        inner = rng.standard_normal((2, 2))
        href = frame.Q @ ((inner + inner.T) / 2) @ frame.Q.T
        href = linalg.sym_part(href)
        sub = fit_lfu(hat_sampleset(full_set, frame),
                      linalg.sym_part(frame.Q.T @ href @ frame.Q))
        lifted = lift_lfu(sub, frame, href)
        assert lifted.correction_applied is False
        np.testing.assert_allclose(
            lifted.model.H, frame.Q @ sub.model.H @ frame.Q.T, atol=1e-10
        )

    def test_reference_mismatch_detected(self, rng):
        full_set, frame = planted_instance(rng)
        href = np.eye(frame.n)
        sub = fit_lfu(hat_sampleset(full_set, frame), 2.0 * np.eye(frame.d))
        with pytest.raises(ReferenceMismatchError):
            lift_lfu(sub, frame, href)

    def test_subspace_fit_without_reference_rejected(self):
        square, frame = unit_square_set(), axis_frame()
        sub = fit_lfu(hat_sampleset(square, frame), np.eye(2))
        bare = ModelResult(sub.model, sub.gradients, "lfu")
        assert bare.reference_hessian is None
        with pytest.raises(ReferenceMismatchError, match="no reference"):
            lift_lfu(bare, frame, np.eye(3))

    def test_worked_example(self):
        square, frame = unit_square_set(), axis_frame()
        sub = fit_lfu(hat_sampleset(square, frame), np.eye(2))
        lifted = lift_lfu(sub, frame, np.eye(3))
        np.testing.assert_allclose(lifted.model.H, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(lifted.model.g, [0.5, 0.5, 0.0], atol=1e-12)
        assert lifted.correction_applied is True  # I_3 bulges off the plane


class TestRestrict:
    def test_round_trip_through_lift(self, rng):
        full_set, frame = planted_instance(rng)
        sub = fit_mfn(hat_sampleset(full_set, frame))
        lifted = lift_mfn(sub, frame)
        back = restrict(lifted, frame)
        np.testing.assert_allclose(back.model.g, sub.model.g, atol=1e-10)
        np.testing.assert_allclose(back.model.H, sub.model.H, atol=1e-10)
        np.testing.assert_allclose(
            back.gradients.canonical, sub.gradients.canonical, atol=1e-10
        )

    def test_restrict_full_fit_matches_sub_fit(self, rng):
        """Restricting the directly fitted full-space model recovers the
        subspace fit -- Hessian block and canonical gradient."""
        full_set, frame = planted_instance(rng)
        direct = fit_mfn(full_set)
        sub = fit_mfn(hat_sampleset(full_set, frame))
        back = restrict(direct, frame)
        np.testing.assert_allclose(back.model.H, sub.model.H, atol=1e-9)
        np.testing.assert_allclose(
            back.gradients.canonical, sub.gradients.canonical, atol=1e-9
        )

    def test_values_on_subspace(self, rng):
        full_set, frame = planted_instance(rng)
        direct = fit_mfn(full_set)
        back = restrict(direct, frame)
        for _ in range(6):
            xhat = rng.standard_normal(frame.d)
            x = frame.x0 + frame.Q @ xhat
            assert back.model(xhat) == pytest.approx(direct.model(x), abs=1e-9)

    def test_plain_arrays(self, frame, rng):
        g = rng.standard_normal(3)
        np.testing.assert_allclose(restrict(g, frame), frame.Q.T @ g, atol=1e-14)
        h = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            restrict(h, frame), frame.Q.T @ h @ frame.Q, atol=1e-14
        )


def _explicit_family(family):
    return GradientFamily(family.canonical, family.ambiguity_basis)


def _restricted_family(family, frame):
    """``restrict`` of a zero model carrying ``family``."""
    n = family.canonical.shape[0]
    model = QuadraticModel(np.zeros(n), 0.0, family.canonical,
                           np.zeros((n, n)))
    return restrict(ModelResult(model, family, "mfn"), frame).gradients


def _same_family(got, want):
    assert got.complement_of is None and want.complement_of is None
    assert got.explicit.shape == want.explicit.shape
    np.testing.assert_array_equal(got.explicit, want.explicit)
    np.testing.assert_array_equal(got.canonical, want.canonical)


class TestRestrictImplicitFamily:
    """Restricting a family whose ``col(K)`` holds ``col(Q)`` skips the
    ``n x (n - k)`` complement, with the bits of the explicit form."""

    @pytest.mark.parametrize("route", ["lift", "fit"])
    def test_contained_span_builds_no_complement(self, monkeypatch, route):
        rng = np.random.default_rng(17)
        full_set, frame = planted_instance(rng, n=200, d=4, m=8)
        if route == "lift":
            family = lift_mfn(fit_mfn(hat_sampleset(full_set, frame)),
                              frame).gradients
        else:
            family = fit_mfn(full_set).gradients
        want = _restricted_family(_explicit_family(family), frame)
        calls = []
        complement = linalg.orthonormal_complement
        monkeypatch.setattr(linalg, "orthonormal_complement",
                            lambda q: calls.append(q.shape) or complement(q))
        fresh = GradientFamily(family.canonical, family.explicit,
                               family.complement_of)
        got = _restricted_family(fresh, frame)
        assert calls == []
        _same_family(got, want)

    @pytest.mark.parametrize("case", ["outside span", "explicit columns"])
    def test_other_families_keep_the_complement_path(self, case):
        rng = np.random.default_rng(23)
        n, d = 30, 3
        kernel, _ = linalg.orthonormal_columns(rng.standard_normal((n, 5)))
        explicit = np.zeros((n, 0))
        if case == "explicit columns":
            explicit = kernel[:, 4:]
            basis = kernel[:, :d]
        else:
            basis, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        frame = SubspaceFrame(np.zeros(n), basis)
        family = GradientFamily(rng.standard_normal(n), explicit, kernel)
        got = _restricted_family(family, frame)
        want = _restricted_family(_explicit_family(family), frame)
        assert "ambiguity_basis" in vars(family)
        _same_family(got, want)


class TestSimplexBridge:
    def test_gsg_lift_identity(self, rng):
        """Gradients from in-subspace directions: estimating in hat
        coordinates and lifting equals estimating in the full space."""
        n, d, p = 5, 2, 3
        q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        shat = rng.standard_normal((d, p))
        s = q @ shat
        x0 = rng.standard_normal(n)
        frame = SubspaceFrame(x0, q)
        f = lambda x: float(np.sin(x).sum())
        g_full = gsg(x0, s, f)
        from subquad.geometry import hat_function

        g_hat = gsg(np.zeros(d), shat, hat_function(f, frame))
        np.testing.assert_allclose(lift_simplex(g_hat, frame), g_full, atol=1e-10)

    def test_gsh_lift_identity(self, rng):
        n, d, p = 5, 2, 2
        q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        shat = rng.standard_normal((d, p))
        s = q @ shat
        x0 = rng.standard_normal(n)
        frame = SubspaceFrame(x0, q)
        f = lambda x: float(np.cos(x).sum() + x @ x)
        h_full = gsh(x0, DirectionBundle(s, s), f)
        from subquad.geometry import hat_function

        h_hat = gsh(
            np.zeros(d), DirectionBundle(shat, shat), hat_function(f, frame)
        )
        np.testing.assert_allclose(lift_simplex(h_hat, frame), h_full, atol=1e-9)

    def test_hat_directions_round_trip(self, rng):
        q, _ = linalg.orthonormal_columns(rng.standard_normal((6, 3)))
        frame = SubspaceFrame(np.zeros(6), q)
        shat = rng.standard_normal((3, 4))
        s = q @ shat
        np.testing.assert_allclose(hat_directions(s, frame), shat, atol=1e-11)

    def test_hat_directions_rejects_outside(self, rng):
        q = np.eye(4)[:, :2]
        frame = SubspaceFrame(np.zeros(4), q)
        s = np.eye(4)[:, 2:3]  # orthogonal to the frame
        with pytest.raises(NotInSubspaceError):
            hat_directions(s, frame)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_hat_directions_rejects_huge_outside(self, scale):
        """The squared lengths of these columns overflow; the second is
        45 degrees off the span."""
        frame = SubspaceFrame(np.zeros(3), np.eye(3)[:, :1])
        s = scale * np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotInSubspaceError):
            hat_directions(s, frame)

    def test_qgsd_restrict_matches_sub_fit(self, rng):
        n, d, p = 4, 2, 2
        q, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        shat = rng.standard_normal((d, p))
        s = q @ shat
        x0 = rng.standard_normal(n)
        frame = SubspaceFrame(x0, q)
        f = lambda x: float((x ** 2).sum() + np.sin(x[0]))
        from subquad.geometry import hat_function

        full = fit_qgsd(x0, DirectionBundle(s, s), f)
        sub = fit_qgsd(
            np.zeros(d), DirectionBundle(shat, shat), hat_function(f, frame)
        )
        np.testing.assert_allclose(
            q.T @ full.model.g, sub.model.g, atol=1e-9
        )
        np.testing.assert_allclose(
            q.T @ full.model.H @ q, sub.model.H, atol=1e-9
        )


class TestCoincidenceReport:
    def test_exact_coincidence(self, rng):
        full_set, frame = planted_instance(rng)
        sub = fit_mn(hat_sampleset(full_set, frame))
        lifted = lift_mn(sub, frame)
        report = coincidence_check(lifted.model, sub.model, frame, seed=3)
        assert report.subspace_value_gap < 1e-10
        assert report.orthogonal_value_gap < 1e-10

    def test_unsupported_reference_breaks_off_subspace(self):
        """The square example with href = I_3: perfect agreement on the
        plane, a gap of exactly 1/2 one unit off it."""
        square, frame = unit_square_set(), axis_frame()
        sub = fit_lfu(hat_sampleset(square, frame), np.eye(2))
        lifted = lift_lfu(sub, frame, np.eye(3))
        report = coincidence_check(lifted.model, sub.model, frame, seed=11)
        assert report.subspace_value_gap < 1e-12
        assert report.orthogonal_value_gap > 0.4
        assert report.complement_probe_gaps[0] == pytest.approx(0.5, abs=1e-12)
        assert report.correction_applied is True

    def test_correction_detected_from_model_alone(self, rng):
        """correction_applied is inferred from the full model's Hessian,
        not from fit metadata."""
        full_set, frame = planted_instance(rng)
        href = np.eye(frame.n)
        direct = fit_lfu(full_set, href)
        sub = fit_lfu(hat_sampleset(full_set, frame),
                      linalg.sym_part(frame.Q.T @ href @ frame.Q))
        report = coincidence_check(direct.model, sub.model, frame, seed=5)
        assert report.correction_applied is True

    def test_full_dimensional_frame_has_no_orthogonal_gap(self, rng):
        n, m = 3, 5
        disp = rng.standard_normal((m, n))
        values = rng.standard_normal(m + 1)
        ss = SampleSet(np.zeros(n), disp, values)
        frame = SubspaceFrame(np.zeros(n), np.eye(n), dhat=disp)
        sub = fit_mn(hat_sampleset(ss, frame))
        direct = fit_mn(ss)
        report = coincidence_check(direct.model, sub.model, frame, seed=2)
        assert report.orthogonal_value_gap == report.subspace_value_gap
        assert report.complement_probe_gaps == ()

    def test_deterministic_given_seed(self, rng):
        full_set, frame = planted_instance(rng)
        sub = fit_mfn(hat_sampleset(full_set, frame))
        lifted = lift_mfn(sub, frame)
        a = coincidence_check(lifted.model, sub.model, frame, seed=9)
        b = coincidence_check(lifted.model, sub.model, frame, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_dict_holds_every_field_in_order(self):
        """The report's fields as Python scalars, the probe gaps as a
        list: what ``subspace compare`` prints and writes."""
        square, frame = unit_square_set(), axis_frame()
        sub = fit_lfu(hat_sampleset(square, frame), np.eye(2))
        report = coincidence_check(lift_lfu(sub, frame, np.eye(3)), sub,
                                   frame, probes=3, seed=4)
        doc = report.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(report)]
        assert doc["complement_probe_gaps"] == list(
            report.complement_probe_gaps
        )
        assert {type(v) for v in doc.values()} == {float, bool, list, int}
        assert type(doc["probes"]) is int and doc["probes"] == 3

    def test_negative_probe_count_is_refused(self):
        """As ``run_suite`` refuses fewer than one trial: a negative count
        would report itself and draw nothing."""
        square, frame = unit_square_set(), axis_frame()
        sub = fit_mfn(hat_sampleset(square, frame))
        with pytest.raises(SpecInfeasibleError, match="probes >= 0"):
            coincidence_check(lift_mfn(sub, frame), sub, frame, probes=-3)


class TestCorrectionFlagScale:
    """``correction_applied`` compares the correction with the Hessian it
    comes from, so scaling the values and the reference by ``10^k`` leaves
    the flag as it is."""

    @pytest.fixture(scope="class")
    def instance(self):
        rng = np.random.default_rng(300)
        full_set, frame = planted_instance(rng, n=300, d=6, m=15)
        inner = linalg.sym_part(rng.standard_normal((6, 6)))
        supported = linalg.sym_part(frame.Q @ inner @ frame.Q.T)
        return full_set, frame, supported

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_flag_is_scale_free(self, instance, k):
        full_set, frame, supported = instance
        scale = 10.0 ** k
        hatted = hat_sampleset(full_set, frame)
        hatted = SampleSet(hatted.x0, hatted.displacements,
                           scale * hatted.values)
        sub = fit_mfn(hatted)
        lifted = lift_mfn(sub, frame)
        report = coincidence_check(lifted, sub, frame, probes=2)
        assert report.correction_applied is False
        for href, expected in ((scale * supported, False),
                               (scale * np.eye(frame.n), True)):
            href_hat = linalg.sym_part(frame.Q.T @ href @ frame.Q)
            sub = fit_lfu(hatted, href_hat)
            lifted = lift_lfu(sub, frame, href)
            assert lifted.correction_applied is expected
            report = coincidence_check(lifted, sub, frame, probes=2)
            assert report.correction_applied is expected


class TestFactoredProjections:
    """The lifts and the report take ``P Href P`` as ``Q (Q^T Href Q) Q^T``
    and the complement probes as one product; both agree with the
    explicit forms to roundoff."""

    def test_lift_lfu_matches_projector_form(self):
        rng = np.random.default_rng(301)
        full_set, frame = planted_instance(rng, n=300, d=6, m=15)
        href = linalg.sym_part(rng.standard_normal((300, 300)))
        sub = fit_lfu(hat_sampleset(full_set, frame),
                      linalg.sym_part(frame.Q.T @ href @ frame.Q))
        lifted = lift_lfu(sub, frame, href)
        p = frame.Q @ frame.Q.T
        want = linalg.sym_part(
            frame.Q @ sub.model.H @ frame.Q.T + (href - p @ href @ p)
        )
        gap = np.linalg.norm(lifted.model.H - want)
        assert gap <= 1e-14 * np.linalg.norm(href)
        assert lifted.correction_applied is True

    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_complement_probes_match_pointwise_values(self, rng, shift):
        """One probe per complement column, for a model anchored at the
        frame's base point and for the same quadratic anchored elsewhere."""
        full_set, frame = planted_instance(rng, n=40, d=3, m=6)
        sub = fit_lfu(hat_sampleset(full_set, frame), np.eye(3))
        model = lift_lfu(sub, frame, np.eye(40)).model
        x1 = model.x0 + shift * rng.standard_normal(40)
        step = x1 - model.x0
        moved = QuadraticModel(x1, model(x1), model.g + model.H @ step,
                               model.H)
        report = coincidence_check(moved, sub, frame, probes=2)
        base = sub.model(np.zeros(3))
        want = [abs(moved(frame.x0 + c) - base) for c in frame.complement.T]
        assert len(report.complement_probe_gaps) == 37
        np.testing.assert_allclose(
            report.complement_probe_gaps, want, rtol=0,
            atol=1e-13 * max(1.0, abs(base)),
        )


def _pointwise_gaps(full, sub, frame, probes, seed):
    """``(subspace_value_gap, orthogonal_value_gap, value_scale)`` from a
    per-probe loop of scalar model calls, drawing ``d`` then ``n - d``
    normals per probe."""
    full, sub = getattr(full, "model", full), getattr(sub, "model", sub)
    scale = 1.0
    if frame.dhat is not None and frame.dhat.shape[0]:
        scale = max(float(np.median(np.linalg.norm(frame.dhat, axis=1))),
                    1e-8)
    rng = np.random.default_rng(seed)
    comp = frame.complement
    on_gap = off_gap = 0.0
    value_scale = 1.0
    for _ in range(probes):
        xhat = scale * rng.standard_normal(frame.d)
        value = sub(xhat)
        value_scale = max(value_scale, abs(value))
        x = frame.x0 + frame.Q @ xhat
        on_gap = max(on_gap, abs(full(x) - value))
        if comp.shape[1]:
            v = comp @ (scale * rng.standard_normal(comp.shape[1]))
            off_gap = max(off_gap, abs(full(x + v) - value))
    base = sub(np.zeros(frame.d))
    for column in comp.T:
        off_gap = max(off_gap, abs(full(frame.x0 + column) - base))
    if not comp.shape[1]:
        off_gap = on_gap
    return on_gap, off_gap, value_scale


def _reanchored(model, x1):
    """The same quadratic as ``model``, anchored at ``x1``."""
    step = x1 - model.x0
    grad = model.g + linalg.sym_part(model.H) @ step
    return QuadraticModel(x1, model(x1), grad, model.H)


def _probe_case(case):
    """``(full, sub, frame)`` whose gaps are of order one."""
    rng = np.random.default_rng(401)
    if case == "full-dimensional":
        n = 4
        disp = rng.standard_normal((6, n))
        ss = SampleSet(np.zeros(n), disp, rng.standard_normal(7))
        basis, _ = linalg.orthonormal_columns(rng.standard_normal((n, n)))
        frame = SubspaceFrame(np.zeros(n), basis, dhat=disp @ basis)
        sub = fit_mn(hat_sampleset(ss, frame)).model
        full = fit_mn(ss).model
    else:
        full_set, frame = planted_instance(rng, n=8, d=3, m=5)
        fit = fit_lfu(hat_sampleset(full_set, frame), np.eye(3))
        sub, full = fit.model, lift_lfu(fit, frame, np.eye(8)).model
        if case == "sub anchored off the origin":
            sub = _reanchored(sub, np.array([0.4, 0.1, -0.2]))
    full = QuadraticModel(full.x0, full.c + 0.25, full.g, full.H)
    return full, sub, frame


class TestArrayProbes:
    """The report's probes are one draw and one product per probe set;
    they give the gaps of the per-probe loop of scalar model calls."""

    @pytest.mark.parametrize("probes", [0, 1, 16])
    @pytest.mark.parametrize("case", [
        "lift", "sub anchored off the origin", "full-dimensional",
    ])
    def test_matches_pointwise_loop(self, case, probes):
        full, sub, frame = _probe_case(case)
        report = coincidence_check(full, sub, frame, probes=probes, seed=7)
        on_gap, off_gap, value_scale = _pointwise_gaps(
            full, sub, frame, probes, 7
        )
        assert not probes or min(on_gap, off_gap) > 0.2
        got = (report.subspace_value_gap, report.orthogonal_value_gap,
               report.value_scale)
        np.testing.assert_allclose(
            got, (on_gap, off_gap, value_scale), rtol=1e-13,
            atol=1e-13 * value_scale,
        )
        if not probes:
            assert report.value_scale == 1.0

    @pytest.mark.parametrize("probes", [0, 1, 16])
    def test_evaluate_runs_at_most_once(self, monkeypatch, probes):
        calls = []
        evaluate = models.evaluate
        monkeypatch.setattr(
            models, "evaluate",
            lambda model, x: calls.append(1) or evaluate(model, x),
        )
        for case in ("lift", "sub anchored off the origin"):
            full, sub, frame = _probe_case(case)
            calls.clear()
            coincidence_check(full, sub, frame, probes=probes, seed=3)
            assert len(calls) <= 1

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu", "lfu, other frame"])
    def test_complement_probes_match_pointwise_values(self, kind):
        """A lift's unit complement probes, valued in one product, give
        the model's scalar values, also in a frame the lift was not built
        in."""
        rng = np.random.default_rng(402)
        n, d = 40, 3
        full_set, frame = planted_instance(rng, n=n, d=d, m=6)
        hatted = hat_sampleset(full_set, frame)
        if kind == "mn":
            lifted = lift_mn(fit_mn(hatted), frame)
        elif kind == "mfn":
            lifted = lift_mfn(fit_mfn(hatted), frame)
        else:
            href = linalg.sym_part(rng.standard_normal((n, n)))
            sub = fit_lfu(hatted, linalg.sym_part(frame.Q.T @ href @ frame.Q))
            lifted = lift_lfu(sub, frame, href)
        if kind.endswith("other frame"):
            basis, _ = linalg.orthonormal_columns(
                rng.standard_normal((n, d + 1))
            )
            frame = SubspaceFrame(frame.x0 + rng.standard_normal(n), basis)
        sub = restrict(lifted, frame)
        report = coincidence_check(lifted, sub, frame, probes=2)
        base = sub.model(np.zeros(frame.d))
        want = [abs(lifted.model(frame.x0 + c) - base)
                for c in frame.complement.T]
        assert len(report.complement_probe_gaps) == n - frame.d
        np.testing.assert_allclose(
            report.complement_probe_gaps, want, rtol=0,
            atol=1e-13 * max(1.0, abs(base)),
        )


class TestNonFiniteProbes:
    def test_overflowing_values_raise(self):
        """Probe values of ``c = 1e308`` models overflow; their gaps
        would be NaN, which a ``max`` fold reads as zero."""
        frame = SubspaceFrame(np.zeros(3), np.eye(3)[:, :2])
        full = QuadraticModel(np.zeros(3), 1e308, np.full(3, 1e308),
                              np.eye(3))
        sub = QuadraticModel(np.zeros(2), 1e308, np.full(2, 1e308),
                             np.eye(2))
        with pytest.raises(NonFiniteError):
            coincidence_check(full, sub, frame, probes=8)


class TestAnchors:
    """``restrict`` re-anchors at the frame's ``x0`` and a lift anchors at
    ``x0 + Q xhat0``, so the converted model agrees at frame points."""

    def _frame(self):
        rng = np.random.default_rng(403)
        basis, _ = linalg.orthonormal_columns(rng.standard_normal((6, 2)))
        return rng, SubspaceFrame(rng.standard_normal(6), basis)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_restrict_off_anchor_model(self, symmetric):
        rng, frame = self._frame()
        hess = rng.standard_normal((6, 6))
        if symmetric:
            hess = linalg.sym_part(hess)
        x1 = frame.x0 + frame.Q @ np.array([0.7, -0.3])
        model = QuadraticModel(x1, 1.5, rng.standard_normal(6), hess)
        result = ModelResult(model, GradientFamily(model.g, np.zeros((6, 0))),
                             "mn")
        for back in (restrict(model, frame), restrict(result, frame).model):
            for _ in range(5):
                xhat = rng.standard_normal(2)
                want = model(frame.x0 + frame.Q @ xhat)
                assert back(xhat) == pytest.approx(want, rel=1e-13, abs=1e-13)
        restricted = restrict(result, frame)
        np.testing.assert_array_equal(
            restricted.gradients.canonical, restricted.model.g
        )

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_lift_off_anchor_model(self, kind):
        rng, frame = self._frame()
        xhat0 = np.array([0.4, 0.1])
        ghat = rng.standard_normal(2)
        hhat = linalg.sym_part(rng.standard_normal((2, 2)))
        model = QuadraticModel(xhat0, 0.8, ghat, hhat)
        href = linalg.sym_part(rng.standard_normal((6, 6)))
        family = (GradientFamily(ghat, np.zeros((2, 0))) if kind == "mn"
                  else GradientFamily(ghat, np.zeros((2, 0)),
                                      np.eye(2)))
        sub = ModelResult(
            model, family, kind,
            reference_hessian=(linalg.sym_part(frame.Q.T @ href @ frame.Q)
                               if kind == "lfu" else None),
        )
        lift = {"mn": lift_mn, "mfn": lift_mfn,
                "lfu": lambda s, f: lift_lfu(s, f, href)}[kind]
        lifted = lift(sub, frame)
        np.testing.assert_allclose(lifted.model.x0,
                                   frame.x0 + frame.Q @ xhat0, rtol=1e-15)
        for _ in range(5):
            xhat = rng.standard_normal(2)
            got = lifted.model(frame.x0 + frame.Q @ xhat)
            assert got == pytest.approx(model(xhat), rel=1e-13, abs=1e-13)

    def test_agreeing_anchors_keep_their_bits(self):
        rng = np.random.default_rng(404)
        full_set, frame = planted_instance(rng, n=7, d=2, m=4)
        sub = fit_mfn(hat_sampleset(full_set, frame))
        lifted = lift_mfn(sub, frame)
        np.testing.assert_array_equal(lifted.model.x0, frame.x0)
        direct = fit_mfn(full_set)
        back = restrict(direct, frame)
        assert back.model.c == direct.model.c
        np.testing.assert_array_equal(back.model.g,
                                      frame.Q.T @ direct.model.g)
        np.testing.assert_array_equal(
            back.gradients.canonical, frame.Q.T @ direct.gradients.canonical
        )
        np.testing.assert_array_equal(
            back.model.H, frame.Q.T @ direct.model.H @ frame.Q
        )


def _zero_model(n):
    return QuadraticModel(np.zeros(n), 0.0, np.zeros(n), np.eye(n))


class TestDimensionChecks:
    """Every conversion raises ``DimensionMismatchError`` for an object of
    the wrong size for the frame (``d = 2`` in R^3)."""

    @pytest.mark.parametrize("call", [
        lambda frame: restrict(np.ones(4), frame),
        lambda frame: restrict(np.eye(4), frame),
        lambda frame: restrict(_zero_model(4), frame),
        lambda frame: lift_simplex(np.ones(3), frame),
        lambda frame: lift_simplex(np.eye(3), frame),
        lambda frame: lift_mn(ModelResult(
            _zero_model(3), GradientFamily(np.zeros(3), np.zeros((3, 0))),
            "mn",
        ), frame),
        lambda frame: coincidence_check(_zero_model(3), _zero_model(3),
                                        frame),
        lambda frame: hat_directions(np.ones((4, 1)), frame),
    ], ids=["restrict vector", "restrict matrix", "restrict model",
            "lift_simplex vector", "lift_simplex matrix", "sub result",
            "coincidence_check", "hat_directions"])
    def test_wrong_size_raises(self, call):
        with pytest.raises(DimensionMismatchError):
            call(axis_frame())
