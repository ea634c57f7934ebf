"""Polynomials, dense square matrices, and the Perron stochastic normalization.

Everything downstream works with two objects: a polynomial stored as a dense
coefficient vector indexed by degree, and a positive matrix factored as
A = rho * D S D^{-1} with S positive row-stochastic. The factorization is the
reduction that lets membership searches range over (rho, S) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np


class NonPositiveInput(ValueError):
    """Raised when a strictly positive matrix is required but not supplied."""


class NoConvergence(RuntimeError):
    """Raised when the Perron iteration fails to reach the residual target."""


class BeyondFloatRange(ValueError):
    """Raised when a result is too large for a float."""


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; coeffs[d] is the coefficient of x^d.

    Stored length is always >= 1. Trailing zeros are permitted; degree()
    reports the last nonzero index (-1 for the zero polynomial).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float]):
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            cs = (0.0,)
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int:
        for d in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[d] != 0.0:
                return d
        return -1

    def is_zero(self) -> bool:
        return self.degree() == -1

    def trimmed(self) -> "Polynomial":
        d = self.degree()
        return Polynomial(self.coeffs[: d + 1] if d >= 0 else (0.0,))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0.0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return Polynomial(out)

    def scale(self, a: float) -> "Polynomial":
        return Polynomial(a * c for c in self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial((0.0,))
        prod = np.convolve(np.asarray(self.coeffs), np.asarray(other.coeffs))
        return Polynomial(prod)

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) == 1:
            return Polynomial((0.0,))
        return Polynomial(d * c for d, c in enumerate(self.coeffs) if d >= 1)

    def to_list(self) -> list[float]:
        """JSON text form: plain list of coefficients, lowest degree first."""
        return list(self.coeffs)


@dataclass(frozen=True)
class StochasticDecomposition:
    """Factorization A = rho * diag(d) @ s @ diag(d)^{-1}.

    rho is the dominant eigenvalue, s is positive row-stochastic (rows sum to
    one within 1e-12), d is the positive right eigenvector of A.
    """

    rho: float
    s: np.ndarray
    d: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.rho * (self.d[:, None] * self.s) / self.d[None, :]


def eval_scalar(p: Polynomial, x: float) -> float:
    """Evaluate p at a scalar in Horner order."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def eval_matrix(p: Union[Polynomial, np.ndarray], a: np.ndarray) -> np.ndarray:
    """Evaluate p at a square matrix, or at each matrix of a (..., n, n)
    stack; a^0 = identity, Horner order.

    p is one polynomial for every matrix, or a (..., d + 1) array holding one
    coefficient row per matrix, lowest degree first, whose leading shape
    broadcasts against the stack's. Each matrix goes through the same
    operations as it would alone with its own polynomial: a zero coefficient
    adds nothing, so zero padding at the top changes no bit. The tests check
    that stacked and per-matrix results agree bit for bit.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    assert a.ndim >= 2 and a.shape[-2] == n
    coeffs = np.asarray(p.coeffs if isinstance(p, Polynomial) else p,
                        dtype=float)
    acc = np.zeros(coeffs.shape[:-1] + (n, n))
    eye = _eye(n)
    # per degree: the coefficient of each matrix, and whether it is nonzero
    # for every matrix and for some; one row stays plain floats
    if coeffs.ndim == 1:
        cols = coeffs.tolist()
        every = some = [c != 0.0 for c in cols]
    else:
        # degree first, as a view: cols[d] holds each matrix's coefficient
        cols = coeffs.transpose(-1, *range(coeffs.ndim - 1))[..., None, None]
        nonzero = cols != 0.0
        flat = nonzero.reshape(len(cols), -1)
        every = flat.all(axis=1).tolist()
        some = flat.any(axis=1).tolist()
    for d in reversed(range(len(cols))):
        acc = acc @ a
        if every[d]:
            acc = acc + cols[d] * eye
        elif some[d]:
            acc = np.where(nonzero[d], acc + cols[d] * eye, acc)
    return acc


def min_entry(m: np.ndarray):
    """Smallest entry and its first position in row-major order; for a
    (..., n, n) stack, arrays holding these for each matrix."""
    m = np.asarray(m, dtype=float)
    lead, n = m.shape[:-2], m.shape[-1]
    flat = m.reshape(-1, m.shape[-2] * n)
    k = flat.argmin(axis=1)
    val = flat[np.arange(len(flat)), k].reshape(lead)
    i, j = np.divmod(k.reshape(lead), n)
    if m.ndim == 2:
        return float(val), int(i), int(j)
    return val, i, j


# Residual target for the Perron pair; row sums of s inherit this bound.
_PERRON_TOL = 1e-12
# shifted inverse steps after the power iteration; on 5,000 random positive
# matrices of orders 2 to 6, near-reducible ones included, at most 9 were used
_NODA_STEPS = 30


def perron_normalize(a: np.ndarray) -> StochasticDecomposition:
    """Factor a positive matrix as rho * D S D^{-1} with S row-stochastic.

    Power iteration from the all-ones vector; positivity guarantees
    convergence to the dominant pair. It runs on a scaled by the power of
    two that brings its largest entry into [1/2, 1), so that no sum
    overflows, and rho is scaled back; BeyondFloatRange when rho is too
    large for a float. Power iteration stalls when the second eigenvalue is
    close to rho, so after 100 * n steps it turns into Noda's inverse
    iteration, shifted just above the Collatz-Wielandt bound max(Av / v):
    that bound exceeds rho, so the shifted inverse is positive and so is
    every iterate, and the error shrinks quadratically; NoConvergence after
    _NODA_STEPS more.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or not np.all(np.isfinite(a)):
        raise ValueError("square matrix with finite entries required")
    if np.any(a <= 0.0):
        raise NonPositiveInput("all entries must be strictly positive")
    if n == 1:
        rho = float(a[0, 0])
        return StochasticDecomposition(rho, np.array([[1.0]]), np.array([1.0]))
    e = math.frexp(float(a.max()))[1]
    scaled = np.ldexp(a, -e)
    v = np.ones(n)
    for step in range(100 * n + _NODA_STEPS):
        w = scaled @ v
        ratios = w / v
        hi = float(ratios.max())
        lo = float(ratios.min())
        if hi - lo <= _PERRON_TOL * hi:
            try:
                rho = math.ldexp(0.5 * (hi + lo), e)
            except OverflowError:
                raise BeyondFloatRange(
                    f"the Perron root is about 2^{math.log2(hi) + e:.1f}, "
                    "beyond the float range") from None
            s = (a * v[None, :]) / (rho * v[:, None])
            return StochasticDecomposition(rho, s, v)
        if step < 100 * n:
            v = w / w.sum()
            continue
        # the margin keeps the shift above rho where hi rounds onto it
        shift = hi + (hi - lo) / 256
        try:
            w = np.linalg.solve(shift * _eye(n) - scaled, v)
        except np.linalg.LinAlgError:
            break
        if not (np.all(w > 0.0) and math.isfinite(w.sum())):
            break
        v = w / w.sum()
    raise NoConvergence("the Perron iteration did not reach the residual "
                       "target")


def sample_stochastic(n: int, rng: np.random.Generator,
                      concentration: float = 1.0) -> np.ndarray:
    """Random positive row-stochastic matrix, rows ~ symmetric Dirichlet.

    Entries are clamped below at 1e-12 and rows renormalized, so every
    output is strictly positive with unit row sums.
    """
    assert n >= 1
    if n == 1:
        return np.array([[1.0]])
    rows = rng.dirichlet(np.full(n, concentration), size=n)
    rows = np.clip(rows, 1e-12, None)
    return rows / rows.sum(axis=1, keepdims=True)
