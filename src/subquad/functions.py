"""Built-in test functions for fits and verification trials.

Each class is a plain callable ``f(x) -> float`` with enough structure
(exact gradients/Hessians where they exist) for tests to compare against.
``make_function`` resolves the names accepted by the command line:
``sphere``, ``quad:SEED``, ``cubic:SEED``, ``trig:SEED``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError

FUNCTION_CLASSES = ("quadratic", "cubic", "trig")


class Sphere:
    """The squared Euclidean norm ``f(x) = ||x||^2``."""

    name = "sphere"

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ x)

    def gradient(self, x) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float)

    def hessian(self, n: int) -> np.ndarray:
        return 2.0 * np.eye(n)


@dataclass(frozen=True)
class QuadraticFunction:
    """``f(x) = c0 + b . x + x^T A x / 2`` with symmetric ``A``."""

    c0: float
    b: np.ndarray
    A: np.ndarray

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.c0 + self.b @ x + 0.5 * x @ (self.A @ x))

    def gradient(self, x) -> np.ndarray:
        return self.b + self.A @ np.asarray(x, dtype=float)

    def hessian(self) -> np.ndarray:
        return self.A


@dataclass(frozen=True)
class CubicFunction:
    """A quadratic plus a few cubic ridge terms ``w_k (u_k . x)^3``."""

    quad: QuadraticFunction
    weights: np.ndarray
    ridges: np.ndarray  # one direction per row

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        ridge = self.ridges @ x
        return self.quad(x) + float(self.weights @ ridge**3)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ridge = self.ridges @ x
        return self.quad.gradient(x) + self.ridges.T @ (
            3.0 * self.weights * ridge**2
        )


@dataclass(frozen=True)
class TrigPolynomial:
    """A quadratic plus sine waves ``a_k sin(w_k . x)``, ``||w_k|| <= 2``."""

    quad: QuadraticFunction
    amplitudes: np.ndarray
    frequencies: np.ndarray  # one frequency vector per row

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        phases = self.frequencies @ x
        return self.quad(x) + float(self.amplitudes @ np.sin(phases))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phases = self.frequencies @ x
        return self.quad.gradient(x) + self.frequencies.T @ (
            self.amplitudes * np.cos(phases)
        )


def random_quadratic(n: int, rng) -> QuadraticFunction:
    mat = rng.standard_normal((n, n))
    return QuadraticFunction(
        c0=float(rng.standard_normal()),
        b=rng.standard_normal(n),
        A=0.5 * (mat + mat.T),
    )


def random_cubic(n: int, rng, terms: int = 3) -> CubicFunction:
    ridges = rng.standard_normal((terms, n))
    ridges /= np.linalg.norm(ridges, axis=1)[:, None]
    return CubicFunction(
        quad=random_quadratic(n, rng),
        weights=0.5 * rng.standard_normal(terms),
        ridges=ridges,
    )


def random_trig(n: int, rng, terms: int = 3) -> TrigPolynomial:
    raw = rng.standard_normal((terms, n))
    lengths = rng.uniform(0.2, 2.0, size=terms)
    frequencies = raw * (lengths / np.linalg.norm(raw, axis=1))[:, None]
    return TrigPolynomial(
        quad=random_quadratic(n, rng),
        amplitudes=rng.standard_normal(terms),
        frequencies=frequencies,
    )


def random_function(kind: str, n: int, rng):
    """Draw a function of the given class with the supplied generator."""
    if kind == "quadratic":
        return random_quadratic(n, rng)
    if kind == "cubic":
        return random_cubic(n, rng)
    if kind == "trig":
        return random_trig(n, rng)
    raise FileFormatError(
        f"unknown function class {kind!r}; expected one of {FUNCTION_CLASSES}"
    )


def make_function(spec: str, n: int):
    """Resolve a command-line function name.

    ``sphere`` is the squared norm; ``quad:SEED``, ``cubic:SEED`` and
    ``trig:SEED`` draw a seeded random member of the class (seed optional,
    defaulting to 0; a negative one raises :class:`FileFormatError`).
    """
    name, _, seed_text = spec.partition(":")
    name = name.strip().lower()
    if name == "sphere":
        if seed_text:
            raise FileFormatError("'sphere' takes no seed")
        return Sphere()
    aliases = {"quad": "quadratic", "quadratic": "quadratic",
               "cubic": "cubic", "trig": "trig"}
    if name not in aliases:
        raise FileFormatError(
            f"unknown function {spec!r}; expected 'sphere', 'quad[:SEED]', "
            "'cubic[:SEED]' or 'trig[:SEED]'"
        )
    try:
        seed = int(seed_text) if seed_text else 0
    except ValueError as exc:
        raise FileFormatError(f"bad function seed {seed_text!r}") from exc
    if seed < 0:
        raise FileFormatError(f"function seed {seed} is negative")
    rng = np.random.default_rng(seed)
    return random_function(aliases[name], n, rng)
