"""Seeded inputs for the benchmark workloads.

Everything here is drawn from the benchmark's own seed with plain NumPy and
does not call ``subquad.harness`` or ``subquad.functions``: a change to the
harness draws must not change what the benchmark measures.

An instance is a sample set whose displacements ``d_i = Q dhat_i`` lie in a
random ``d``-dimensional subspace ``col(Q)`` of R^n, with values of a seeded
quadratic or trigonometric function at ``x0`` and ``x0 + d_i``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Relative singular-value floor on the drawn displacement sets; the same
#: value the harness uses, applied here by the benchmark's own rejection loop.
RANK_FLOOR = 1e-4

FUNCTION_CLASSES = ("quadratic", "trig")

_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


@dataclass(frozen=True)
class Instance:
    """One fit request: where the samples lie and what was sampled."""

    n: int
    d: int
    m: int
    kind: str
    function_class: str
    x0: np.ndarray
    Q: np.ndarray
    dhat: np.ndarray
    values: np.ndarray
    href: np.ndarray | None = None

    @property
    def displacements(self) -> np.ndarray:
        return self.dhat @ self.Q.T

    @property
    def cell(self) -> tuple:
        return (self.n, self.d)


def rng_for(seed: int, *path) -> np.random.Generator:
    """Generator for one labelled draw; the same seed and path give the
    same stream regardless of what else was drawn before."""
    entropy = [int(seed) & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            entropy.append(zlib.crc32(part.encode()))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def constraint_matrix(dhat: np.ndarray) -> np.ndarray:
    """Rows ``[d_i, svec(d_i d_i^T / 2)]`` with the isometric ``svec``."""
    d = dhat.shape[1]
    iu, ju = np.triu_indices(d)
    weights = np.where(iu == ju, 0.5, 0.5 * np.sqrt(2.0))
    return np.hstack([dhat, dhat[:, iu] * dhat[:, ju] * weights])


def draw_basis(rng, n: int, d: int) -> np.ndarray:
    """Orthonormal ``n x d`` basis of a Gaussian block of full rank."""
    for _ in range(64):
        basis, upper = np.linalg.qr(rng.standard_normal((n, d)))
        diag = np.abs(np.diag(upper))
        if diag.min() > RANK_FLOOR * diag.max():
            return basis
    raise RuntimeError(f"could not draw a rank-{d} basis in R^{n}")


def draw_dhat(rng, m: int, d: int) -> np.ndarray:
    """Gaussian ``m x d`` displacements, redrawn until both the quadratic
    constraint matrix and the directions clear the rank floor."""
    for _ in range(256):
        candidate = rng.standard_normal((m, d))
        sigma = np.linalg.svd(constraint_matrix(candidate), compute_uv=False)
        if sigma[-1] <= RANK_FLOOR * sigma[0]:
            continue
        dirs = np.linalg.svd(candidate, compute_uv=False)
        if dirs[-1] > RANK_FLOOR * dirs[0]:
            return candidate
    raise RuntimeError(f"could not draw a well-posed set with m={m}, d={d}")


def function_values(rng, function_class: str, points: np.ndarray):
    """Values at each row of ``points`` of a seeded function of that class:
    ``c0 + b.x + x^T A x / 2``, plus three waves ``a_k sin(w_k . x)`` with
    ``0.2 <= ||w_k|| <= 2`` for the trigonometric class."""
    n = points.shape[1]
    raw = rng.standard_normal((n, n))
    hess = 0.5 * (raw + raw.T)
    grad = rng.standard_normal(n)
    c0 = rng.standard_normal()
    values = c0 + points @ grad + 0.5 * np.einsum(
        "ij,jk,ik->i", points, hess, points
    )
    if function_class == "trig":
        waves = rng.standard_normal((3, n))
        lengths = rng.uniform(0.2, 2.0, size=3)
        waves *= (lengths / np.linalg.norm(waves, axis=1))[:, None]
        values = values + np.sin(points @ waves.T) @ rng.standard_normal(3)
    return values


def stratified_m(cap: int, u: float) -> int:
    """Sample count in ``1..cap`` at quantile ``u`` of that range."""
    return 1 + min(cap - 1, int(u * cap))


def m_quantile(round_index: int, slot: int, slots: int) -> float:
    """Quantile of the sample-count range for one request.

    Requests of one ``(n, d)`` cell within a round sit ``1/slots`` apart,
    and each round moves on by the golden ratio, so the sample counts of a
    run cover ``1..cap`` evenly. The schedule is part of the workload's
    shape, like ``n`` and ``d``, and does not follow the seed: the cost of
    a full-space fit grows with ``m``, and a seeded ``m`` would move the
    throughput more than the code does.
    """
    return (round_index * _GOLDEN + (slot + 0.5) / slots) % 1.0


def draw_instance(rng, n: int, d: int, m: int, kind: str,
                  function_class: str, random_href: bool) -> Instance:
    """Draw ``Q``, ``x0``, the displacements, the function values and,
    when asked, a random symmetric ``n x n`` reference Hessian."""
    basis = draw_basis(rng, n, d)
    dhat = draw_dhat(rng, m, d)
    x0 = rng.standard_normal(n)
    points = np.vstack([x0, x0 + dhat @ basis.T])
    values = function_values(rng, function_class, points)
    href = None
    if random_href:
        raw = rng.standard_normal((n, n))
        href = 0.5 * (raw + raw.T)
    return Instance(n, d, m, kind, function_class, x0, basis, dhat, values,
                    href)
