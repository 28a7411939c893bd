import numpy as np
import pytest

from subquad.geometry import SampleSet, SubspaceFrame


def unit_square_set() -> SampleSet:
    """Four points of ``f(x) = ||x||^2`` on the unit square in the
    (x1, x2)-plane of R^3: the running example for every fit."""
    displacements = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
    ])
    values = np.array([0.0, 1.0, 1.0, 2.0])
    return SampleSet(np.zeros(3), displacements, values)


def axis_frame() -> SubspaceFrame:
    """The (x1, x2)-plane of R^3 with the square's hat displacements."""
    q = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return SubspaceFrame(np.zeros(3), q, dhat=unit_square_set().displacements[:, :2])


@pytest.fixture
def square():
    return unit_square_set()


@pytest.fixture
def frame():
    return axis_frame()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_poised_set(rng, n, spread=1.0):
    """A poised determined sample set for a random quadratic in R^n.

    Regenerates until the interpolation matrix is comfortably conditioned
    so determined fits stay far from the rank decision.
    """
    from subquad.geometry import quadratic_constraint_matrix

    m = (n + 1) * (n + 2) // 2 - 1
    for _ in range(200):
        disp = spread * rng.standard_normal((m, n))
        sigma = np.linalg.svd(quadratic_constraint_matrix(disp), compute_uv=False)
        if sigma[-1] > 1e-3 * sigma[0]:
            return disp
    raise RuntimeError("could not draw a well-poised set")


def subspace_set(rng, n, d, m, values=None) -> SampleSet:
    """``m`` steps in a random ``d``-dimensional subspace of R^n, with the
    values of a smooth, non-quadratic function unless ``values`` is given."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, d)))
    disp = rng.standard_normal((m, d)) @ basis.T
    x0 = rng.standard_normal(n)
    if values is None:
        f = lambda x: float(np.sin(x).sum() + 0.5 * x @ x)
        values = np.array([f(x0)] + [f(x0 + row) for row in disp])
    return SampleSet(x0, disp, values)
