"""Lifts hold their Hessian as factors ``(Q, Hhat, Href)``: the array they
materialize is ``sym(Q M Q^T) + Href`` by its bits, the factored products
agree with the dense ones to rounding, and no ``n x n`` array is built on
the way through lift, save, load and restrict."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subquad import io, linalg
from subquad.bridge import (
    CORRECTION_TOL,
    coincidence_check,
    lift_lfu,
    lift_mfn,
    lift_mn,
    restrict,
)
from subquad.cli import main
from subquad.geometry import SampleSet, SubspaceFrame, hat_sampleset
from subquad.models import (
    FactoredHessian,
    GradientFamily,
    ModelResult,
    QuadraticModel,
    dense_reference,
    evaluate,
    fit_lfu,
    fit_mfn,
    fit_mn,
    restricted_reference,
)

EPS = np.finfo(float).eps

HREFS = ("zero", "diagonal", "dense", "dense diagonal")


def _instance(rng, n, d, m):
    """``(sample set, frame)`` of a quadratic's values on ``m`` steps in a
    random ``d``-dimensional subspace of R^n."""
    basis, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
    dhat = rng.standard_normal((m, d))
    disp = dhat @ basis.T
    x0 = rng.standard_normal(n)
    grad = rng.standard_normal(n)
    hess = linalg.sym_part(rng.standard_normal((n, n)))
    values = 0.3 + np.concatenate([
        [0.0], disp @ grad + 0.5 * np.einsum("ij,jk,ik->i", disp, hess, disp)
    ])
    return SampleSet(x0, disp, values), SubspaceFrame(x0, basis, dhat=dhat)


def _reference(rng, spec, n):
    """A full-space reference of the given kind, as a lift is passed it."""
    if spec == "zero":
        return np.zeros(n)
    if spec == "diagonal":
        return rng.standard_normal(n)
    if spec == "dense diagonal":
        return np.diag(rng.standard_normal(n))
    return linalg.sym_part(rng.standard_normal((n, n)))


def _moved(sub, xhat0):
    """``sub`` with its model anchored at ``xhat0`` (the same quadratic)."""
    model = sub.model
    grad = model.g + model.H @ xhat0
    family = sub.gradients
    moved = GradientFamily(grad, family.explicit, family.complement_of)
    return ModelResult(
        QuadraticModel(xhat0, model(xhat0), grad, model.H), moved, sub.kind,
        reference_hessian=sub.reference_hessian,
    )


def _lift(kind, rng, n, d, spec, anchored):
    """``(sub, lift, frame, href)`` for a fit in the span, lifted."""
    sample_set, frame = _instance(rng, n, d, d + 2)
    hatted = hat_sampleset(sample_set, frame)
    href = None
    if kind == "mn":
        sub = fit_mn(hatted)
    elif kind == "mfn":
        sub = fit_mfn(hatted)
    else:
        href = _reference(rng, spec, n)
        held = href if href.ndim == 1 else linalg.sym_part(href)
        sub = fit_lfu(hatted, restricted_reference(held, frame.Q))
    if not anchored:
        sub = _moved(sub, rng.standard_normal(d))
    lift = {"mn": lambda: lift_mn(sub, frame),
            "mfn": lambda: lift_mfn(sub, frame),
            "lfu": lambda: lift_lfu(sub, frame, href)}[kind]()
    return sub, lift, frame, href


def _dense(result):
    """``result`` with its Hessian and reference materialized."""
    model = result.model
    href = result.reference_hessian
    return ModelResult(
        QuadraticModel(model.x0, model.c, model.g, model.H),
        result.gradients, result.kind,
        reference_hessian=None if href is None else dense_reference(href),
        correction_applied=result.correction_applied,
    )


def _correction(href, basis):
    """``Href - P Href P`` with ``P = Q Q^T``, as a dense array."""
    href = dense_reference(href)
    return href - basis @ (basis.T @ href @ basis) @ basis.T


def _expected_hessian(sub, frame, href):
    """The lifted Hessian ``sym(Q M Q^T) + Href``, ``M = sym(Hhat) -
    sym(Q^T Href Q)``, from dense arrays with no factor."""
    q = frame.Q
    middle = linalg.sym_part(sub.model.H)
    if href is None:
        return linalg.sym_part(q @ middle @ q.T)
    held = linalg.sym_part(dense_reference(href))
    middle = middle - linalg.sym_part(q.T @ held @ q)
    return linalg.sym_part(q @ middle @ q.T) + held


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


class TestMaterializedBits:
    """``model.H`` of a lift, in memory and loaded from its file, has the
    bits of ``sym(Q M Q^T) + Href`` on the lift's inputs; without a
    reference, or with a zero one, those of ``sym(Q Hhat Q^T)`` as
    before the factors."""

    @pytest.mark.parametrize("anchored", [True, False])
    @pytest.mark.parametrize("kind,spec", [
        ("mn", None), ("mfn", None),
        *[("lfu", spec) for spec in HREFS],
    ])
    def test_lift_and_file(self, tmp_path, kind, spec, anchored):
        rng = np.random.default_rng(500)
        sub, lift, frame, href = _lift(kind, rng, 60, 4, spec, anchored)
        assert lift.model.factored is not None
        want = _bits(_expected_hessian(sub, frame, href))
        np.testing.assert_array_equal(_bits(lift.model.H), want)
        if spec in (None, "zero"):
            np.testing.assert_array_equal(
                want, _bits(linalg.sym_part(frame.Q @ sub.model.H @ frame.Q.T))
            )
        assert lift.model.H is lift.model.H  # materialized once
        path = tmp_path / "lift.json"
        io.save_model(str(path), lift)
        loaded = io.load_model(str(path))
        assert loaded.model.factored is not None
        np.testing.assert_array_equal(_bits(loaded.model.H), want)

    def test_reference_is_held_as_its_diagonal(self):
        rng = np.random.default_rng(501)
        for spec in ("zero", "diagonal", "dense diagonal"):
            _, lift, _, href = _lift("lfu", rng, 30, 3, spec, True)
            assert lift.reference_hessian.shape == (30,)
            np.testing.assert_array_equal(
                _bits(np.diag(lift.reference_hessian)),
                _bits(dense_reference(href)),
            )
        _, lift, _, _ = _lift("lfu", rng, 30, 3, "dense", True)
        assert lift.reference_hessian.shape == (30, 30)


class TestOneHessianInterface:
    """``QuadraticModel``'s values operation is the one path to a model's
    values, for an array Hessian and for a factored one with no, a
    diagonal and a dense reference: ``evaluate`` is its one-row case, and
    ``coincidence_check``'s unit complement probes are one more row set."""

    HELD = ("array", "no reference", "diagonal", "dense")

    @staticmethod
    def _pair(held, seed):
        """``(lift, sub, frame)``: a lift holding its Hessian as ``held``
        says, of a subspace fit anchored off the frame origin."""
        rng = np.random.default_rng(seed)
        kind = "lfu" if held in ("diagonal", "dense") else "mfn"
        sub, lift, frame, _ = _lift(kind, rng, 40, 3, held, False)
        if held == "array":
            lift = _dense(lift)
        assert (lift.model.factored is None) == (held == "array")
        return lift, sub, frame

    @pytest.mark.parametrize("held", HELD)
    def test_evaluate_is_the_one_row_case(self, held):
        lift, sub, _ = self._pair(held, 504)
        rng = np.random.default_rng(505)
        for model in (lift.model, sub.model):
            for point in model.x0 + rng.standard_normal((4, model.n)):
                want = model.values(point[None])[0]
                assert _bits(evaluate(model, point)) == _bits(want)
                assert _bits(model(point)) == _bits(want)

    @pytest.mark.parametrize("held", HELD)
    def test_complement_probes_are_values(self, held):
        lift, sub, frame = self._pair(held, 506)
        report = coincidence_check(lift, sub, frame, probes=5, seed=3)
        points = frame.x0 + frame.complement.T
        want = np.abs(lift.model.values(points)
                      - sub.model.values(np.zeros((1, frame.d)))[0])
        np.testing.assert_allclose(
            report.complement_probe_gaps, want, rtol=0,
            atol=_ulps(lift.model, points),
        )

    @pytest.mark.parametrize("held", HELD)
    def test_sym_dot_of_a_matrix_is_its_columns(self, held):
        """``sym_dot`` of an ``n x k`` matrix is, column by column,
        ``sym_dot`` of each column, to rounding."""
        lift, _, _ = self._pair(held, 507)
        block = np.random.default_rng(508).standard_normal((lift.n, 3))
        got = lift.model.sym_dot(block)
        for j in range(3):
            want = lift.model.sym_dot(np.ascontiguousarray(block[:, j]))
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12,
                                       atol=1e-12)


def _ulps(model, points):
    """A few ulps of the terms ``|c|``, ``|g| |s|`` and ``|H|_F |s|^2``
    that the model's value at the farthest of ``points`` is summed from."""
    step = np.max(np.linalg.norm(points - model.x0, axis=1))
    hess = (model.hessian if model.factored is None
            else model.factored.dense())
    return 8.0 * EPS * (abs(model.c) + np.linalg.norm(model.g) * step
                        + np.linalg.norm(hess) * step ** 2)


class TestComplementFactors:
    """The Householder complement ``C = (E - Y Z) diag(s)`` of a random
    orthonormal ``Q``, with ``n >= d + 1``, is orthonormal, orthogonal to
    ``Q`` and sign-fixed; the unit probes valued from its factors are the
    values at ``x0 + C^T`` within a few ulps, for an array Hessian and a
    factored one with no, a diagonal and a dense reference, with the
    model anchored at the frame's ``x0`` and off it."""

    @given(
        held=st.sampled_from(TestOneHessianInterface.HELD),
        anchored=st.booleans(),
        n=st.integers(min_value=2, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, held, anchored, n, d, seed):
        d = min(d, n - 1)
        rng = np.random.default_rng(seed)
        kind = "lfu" if held in ("diagonal", "dense") else "mfn"
        _, lift, frame, _ = _lift(kind, rng, n, d, held, anchored)
        if held == "array":
            lift = _dense(lift)
        assert np.array_equal(lift.model.x0, frame.x0) is anchored

        comp = frame.complement
        assert comp.shape == (n, n - d)
        assert np.max(np.abs(comp.T @ comp - np.eye(n - d))) <= 8 * n * EPS
        assert np.max(np.abs(frame.Q.T @ comp)) <= 8 * n * EPS
        largest = comp[np.argmax(np.abs(comp), axis=0), np.arange(n - d)]
        assert (largest >= 0.0).all()

        model = lift.model
        points = frame.x0 + comp.T
        got = model.complement_values(frame.x0, frame.complement_factors)
        np.testing.assert_allclose(got, model.values(points), rtol=0,
                                   atol=_ulps(model, points))


def _bound(n, *scales):
    """Rounding allowed between the factored and the dense path: a few
    ``n eps`` of the sizes the two sums are made of."""
    return 64.0 * n * EPS * max(1.0, sum(scales))


class TestFactoredAgreesWithDense:
    """On mn, mfn and lfu lifts with zero, diagonal and dense references
    and with the sub model anchored at or off the frame origin, the
    factored ``evaluate``, ``restrict`` and ``coincidence_check`` give the
    dense path's numbers to rounding and the same ``correction_applied``."""

    @given(
        kind=st.sampled_from(["mn", "mfn", "lfu"]),
        spec=st.sampled_from(HREFS),
        anchored=st.booleans(),
        n=st.integers(min_value=2, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, kind, spec, anchored, n, d, seed):
        d = min(d, n)
        rng = np.random.default_rng(seed)
        sub, lift, frame, href = _lift(kind, rng, n, d, spec, anchored)
        dense = _dense(lift)
        model = lift.model
        h_scale = np.linalg.norm(sub.model.H)
        if href is not None:
            h_scale += np.linalg.norm(href)
            want = np.linalg.norm(_correction(
                dense.reference_hessian, frame.Q
            )) > CORRECTION_TOL * np.linalg.norm(dense.reference_hessian)
            assert lift.correction_applied is bool(want)

        for _ in range(4):
            point = model.x0 + rng.standard_normal(n)
            step = np.linalg.norm(point - model.x0)
            bound = _bound(n, abs(model.c), np.linalg.norm(model.g) * step,
                           h_scale * step ** 2)
            assert abs(model(point) - dense.model(point)) <= bound

        got, want = restrict(lift, frame), restrict(dense, frame)
        step = np.linalg.norm(frame.x0 - model.x0)
        bound = _bound(n, abs(model.c), np.linalg.norm(model.g) * (1 + step),
                       h_scale * (1 + step) ** 2)
        assert abs(got.model.c - want.model.c) <= bound
        for a, b in ((got.model.g, want.model.g),
                     (got.gradients.canonical, want.gradients.canonical),
                     (got.model.H, want.model.H)):
            assert np.max(np.abs(a - b)) <= bound
        if href is not None:
            assert np.max(np.abs(got.reference_hessian
                                 - want.reference_hessian)) <= bound
        assert got.gradients.dim == want.gradients.dim

        for full_sub in (sub, got):
            a = coincidence_check(lift, full_sub, frame, probes=3, seed=seed)
            b = coincidence_check(dense, full_sub, frame, probes=3, seed=seed)
            assert a.correction_applied is b.correction_applied
            scale = max(a.value_scale, b.value_scale)
            bound = _bound(n, scale, h_scale * (1 + step) ** 2)
            for field in ("gradient_gap", "subspace_value_gap",
                          "orthogonal_value_gap", "value_scale"):
                assert abs(getattr(a, field) - getattr(b, field)) <= bound
            assert abs(a.hessian_gap - b.hessian_gap) <= _bound(n, h_scale)
            np.testing.assert_allclose(a.complement_probe_gaps,
                                       b.complement_probe_gaps,
                                       rtol=0, atol=bound)


class TestFrobeniusGaps:
    """Frobenius gaps split into a ``2d x 2d`` part and the reference's
    part off the span, summed over row blocks (two at ``n = 500``); they
    match the dense norms to rounding."""

    @pytest.mark.parametrize("spec", [None, "zero", "diagonal", "dense"])
    def test_match_dense_norms(self, spec):
        rng = np.random.default_rng(503)
        n, d = 500, 4
        basis, _ = linalg.orthonormal_columns(rng.standard_normal((n, d)))
        other, _ = linalg.orthonormal_columns(rng.standard_normal((n, 3)))
        core = linalg.sym_part(rng.standard_normal((d, d)))
        inner = rng.standard_normal((3, 3))
        href = None if spec is None else _reference(rng, spec, n)
        hess = FactoredHessian(basis, core, href)
        dense = hess.dense()
        scale = np.linalg.norm(dense)
        got = hess.distances(other, (np.zeros((3, 3)), inner))
        got += hess.distances(basis, (hess.project(basis),))
        pairs = list(zip(got, (
            scale, np.linalg.norm(dense - other @ inner @ other.T),
            np.linalg.norm(_correction(dense, basis)),
        )))
        if href is not None:
            pairs.append((hess.correction_norm(), np.linalg.norm(
                _correction(hess.href, basis)
            )))
        for got, want in pairs:
            assert abs(got - want) <= _bound(n, scale)


class TestNoSquareArray:
    """Lift, save, load, restrict and compare at ``n = 2000`` allocate no
    array of ``n^2`` floats: the traced peak stays below one such array."""

    N = 2000

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        rng = np.random.default_rng(502)
        tmp = tmp_path_factory.mktemp("factored")
        sample_set, frame = _instance(rng, self.N, 6, 20)
        paths = {key: str(tmp / f"{key}.json")
                 for key in ("frame", "hat", "mn", "mfn", "lfu")}
        io.save_frame(paths["frame"], frame)
        hatted = hat_sampleset(sample_set, frame)
        io.save_sampleset(paths["hat"], hatted)
        io.save_model(paths["mn"], fit_mn(hatted))
        io.save_model(paths["mfn"], fit_mfn(hatted))
        io.save_model(paths["lfu"], fit_lfu(hatted, np.eye(6)))
        return paths

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["mn", "mfn", "lfu"])
    def test_library_path(self, files, tmp_path, kind):
        frame = io.load_frame(files["frame"])
        sub = io.load_model(files[kind])
        out = str(tmp_path / "lift.json")

        def run():
            if kind == "lfu":
                lift = lift_lfu(sub, frame, io.load_reference("I2000", 2000))
            else:
                lift = (lift_mn if kind == "mn" else lift_mfn)(sub, frame)
            io.save_model(out, lift)
            back = restrict(io.load_model(out), frame)
            io.save_model(str(tmp_path / "restrict.json"), back)

        assert self._peak(run) < 8 * self.N ** 2

    def test_compare(self, files, tmp_path):
        """``subspace compare`` of the lfu lift values its unit complement
        probes from the Householder factors: the ``n x (n - d)`` complement
        alone would be about ``8 n^2`` bytes."""
        lift, report = str(tmp_path / "lift.json"), str(tmp_path / "r.json")
        assert main(["subspace", "lift", "--model", files["lfu"],
                     "--frame", files["frame"], "--out", lift,
                     "--href", "I2000"]) == 0

        def run():
            assert main(["subspace", "compare", "--full", lift,
                         "--sub", files["lfu"], "--frame", files["frame"],
                         "--out", report]) == 0

        assert self._peak(run) < 8 * self.N ** 2
        gaps = io.read_document(report)["complement_probe_gaps"]
        assert len(gaps) == self.N - 6

    def test_cli_path(self, files, tmp_path):
        lift, back = str(tmp_path / "lift.json"), str(tmp_path / "back.json")

        def run():
            assert main(["subspace", "lift", "--model", files["lfu"],
                         "--frame", files["frame"], "--out", lift,
                         "--href", "I2000"]) == 0
            assert main(["subspace", "restrict", "--model", lift,
                         "--frame", files["frame"], "--out", back]) == 0

        assert self._peak(run) < 8 * self.N ** 2
        restricted = io.load_model(back)
        np.testing.assert_allclose(restricted.reference_hessian, np.eye(6),
                                   atol=1e-12)
