"""Generative samplers for the null and planted hypotheses.

Under the null, X (n x d) and Y (n x m) are independent Gaussian matrices.
Under the planted law, Y = (P X Q + sigma * Z) / sqrt(1 + sigma^2) with P a
uniform row permutation, Q Haar on the d x m Stiefel manifold, and Z
Gaussian noise, all independent.  The permutation is applied by an index
gather; the n x n matrix is never materialized.

The reduced k-row models drop the permutation: they are the k-row laws
whose chi-square divergence bounds the low-degree advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import randmat

HYPOTHESES = ("null", "planted")


def _check_dims(row_name: str, rows: int, d: int, m: int, sigma: float) -> None:
    if rows < 1:
        raise ValueError(f"need {row_name} >= 1, got {rows}")
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    if not sigma >= 0:
        raise ValueError(f"need sigma >= 0, got {sigma}")


@dataclass(frozen=True)
class ModelParams:
    """Problem dimensions (n rows, d predictors, m responses) and noise."""

    n: int
    d: int
    m: int
    sigma: float

    def __post_init__(self) -> None:
        _check_dims("n", self.n, self.d, self.m, self.sigma)


@dataclass(frozen=True)
class ReducedParams:
    """Row count k plus (d, m, sigma) for the permutation-free models."""

    k: int
    d: int
    m: int
    sigma: float

    def __post_init__(self) -> None:
        _check_dims("k", self.k, self.d, self.m, self.sigma)


@dataclass(frozen=True)
class Latent:
    """Hidden variables of a planted draw.

    ``perm`` is the row-gather map: row i of the permuted design is
    ``X[perm[i]]``.
    """

    perm: np.ndarray
    Q: np.ndarray
    Z: np.ndarray


@dataclass(frozen=True)
class Instance:
    """An observed pair (X, Y) with optional latents for planted draws."""

    X: np.ndarray
    Y: np.ndarray
    hypothesis: str
    latent: Latent | None = None

    @property
    def shape(self) -> tuple[int, int, int]:
        n, d = self.X.shape
        m = self.Y.shape[1]
        return n, d, m


def planted_response(
    XP: np.ndarray, Q: np.ndarray, Z: np.ndarray, sigma: float
) -> np.ndarray:
    """Y = (XP @ Q + sigma * Z) / sqrt(1 + sigma^2), XP the row-gathered design P X.

    Broadcasts over leading batch axes of XP, Q and Z.
    """
    return (XP @ Q + sigma * Z) / np.sqrt(1.0 + sigma**2)


def sample_null(params: ModelParams, rng: np.random.Generator) -> Instance:
    X = randmat.gaussian_matrix(params.n, params.d, rng)
    Y = randmat.gaussian_matrix(params.n, params.m, rng)
    return Instance(X=X, Y=Y, hypothesis="null")


def sample_planted(
    params: ModelParams, rng: np.random.Generator, keep_latent: bool = False
) -> Instance:
    X = randmat.gaussian_matrix(params.n, params.d, rng)
    perm = randmat.uniform_permutation(params.n, rng)
    Q = randmat.stiefel(params.d, params.m, rng)
    Z = randmat.gaussian_matrix(params.n, params.m, rng)
    Y = planted_response(X[perm], Q, Z, params.sigma)
    latent = Latent(perm=perm, Q=Q, Z=Z) if keep_latent else None
    return Instance(X=X, Y=Y, hypothesis="planted", latent=latent)


def sample_reduced(
    params: ReducedParams, hypothesis: str, rng: np.random.Generator
) -> Instance:
    """k-row instance without the permutation layer."""
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    X = randmat.gaussian_matrix(params.k, params.d, rng)
    if hypothesis == "null":
        Y = randmat.gaussian_matrix(params.k, params.m, rng)
        return Instance(X=X, Y=Y, hypothesis="null")
    Q = randmat.stiefel(params.d, params.m, rng)
    Z = randmat.gaussian_matrix(params.k, params.m, rng)
    Y = planted_response(X, Q, Z, params.sigma)
    return Instance(X=X, Y=Y, hypothesis="planted")


def sample_null_batch(
    params: ModelParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """size independent null draws, stacked as (size, n, d) and (size, n, m)."""
    X = rng.standard_normal((size, params.n, params.d))
    Y = rng.standard_normal((size, params.n, params.m))
    return X, Y


def sample_planted_batch(
    params: ModelParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """size independent planted draws, stacked as (size, n, d) and (size, n, m)."""
    n, d, m, sigma = params.n, params.d, params.m, params.sigma
    X = rng.standard_normal((size, n, d))
    perms = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
    Q = randmat.stiefel_batch(d, m, size, rng)
    Z = rng.standard_normal((size, n, m))
    Xp = np.take_along_axis(X, perms[:, :, None], axis=1)
    return X, planted_response(Xp, Q, Z, sigma)
