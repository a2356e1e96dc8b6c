"""Generative samplers for the null and planted hypotheses.

Under the null, X (n x d) and Y (n x m) are independent Gaussian matrices.
Under the planted law, Y = (P X Q + sigma * Z) / sqrt(1 + sigma^2) with P a
uniform row permutation, Q Haar on the d x m Stiefel manifold, and Z
Gaussian noise, all independent.  The permutation is applied by an index
gather; the n x n matrix is never materialized.  The batch samplers draw
stacks of independent instances; ``sample_null`` and ``sample_planted``
are their size-1 draws.  The one planted sampler, ``sample_planted_batches``,
draws consecutive batches in stream order and plants them in one pass; the
other planted samplers are its one-batch case.

The reduced k-row models drop the permutation: they are the k-row laws
whose chi-square divergence bounds the low-degree advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import randmat

HYPOTHESES = ("null", "planted")


def _check_dims(row_name: str, rows: int, d: int, m: int, sigma: float) -> None:
    if rows < 1:
        raise ValueError(f"need {row_name} >= 1, got {rows}")
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"need finite sigma >= 0, got {sigma}")


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


def sample_null_batch(
    params: ModelParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """size independent null draws, stacked as (size, n, d) and (size, n, m)."""
    X = rng.standard_normal((size, params.n, params.d))
    Y = rng.standard_normal((size, params.n, params.m))
    return X, Y


def sample_planted_batches(
    params: ModelParams, sizes: list[int], rng: np.random.Generator, permute: bool = True
) -> tuple[np.ndarray, ...]:
    """Planted draws of consecutive batches, concatenated as stacks (X, Y, perm, Q, Z).

    Each batch draws X, perm, Q's Gaussian and Z in turn, as one
    ``sample_planted_batch`` call would; one sign-fixed QR, gather and
    response then serve all batches.  perm is None when not permuting.
    """
    n, d, m = params.n, params.d, params.m
    parts = []
    for size in sizes:
        X = rng.standard_normal((size, n, d))
        perm = randmat.permutation_batch(n, size, rng) if permute else None
        G = rng.standard_normal((size, d, m))
        parts.append((X, perm, G, rng.standard_normal((size, n, m))))
    # one batch is used as drawn: a copy would add its size to the peak
    X, perm, G, Z = (
        p[0] if len(p) == 1 or p[0] is None else np.concatenate(p) for p in zip(*parts)
    )
    Q = randmat.qr_sign_fixed(G)
    XP = X if perm is None else np.take_along_axis(X, perm[:, :, None], axis=1)
    return X, planted_response(XP, Q, Z, params.sigma), perm, Q, Z


def sample_planted_batch(
    params: ModelParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """size independent planted draws, stacked as (size, n, d) and (size, n, m)."""
    X, Y, *_ = sample_planted_batches(params, [size], rng)
    return X, Y


def sample_null(params: ModelParams, rng: np.random.Generator) -> Instance:
    """One null draw: the size-1 stack of ``sample_null_batch``."""
    X, Y = sample_null_batch(params, 1, rng)
    return Instance(X=X[0], Y=Y[0], hypothesis="null")


def sample_planted(
    params: ModelParams, rng: np.random.Generator, keep_latent: bool = False
) -> Instance:
    """One planted draw: the size-1 stack of ``sample_planted_batch``, latents kept on request."""
    X, Y, perm, Q, Z = sample_planted_batches(params, [1], rng)
    latent = Latent(perm=perm[0], Q=Q[0], Z=Z[0]) if keep_latent else None
    return Instance(X=X[0], Y=Y[0], hypothesis="planted", latent=latent)


def sample_reduced(
    params: ReducedParams, hypothesis: str, rng: np.random.Generator
) -> Instance:
    """k-row instance without the permutation layer (reference sampler of the reduced law)."""
    if hypothesis not in HYPOTHESES:
        raise ValueError(f"hypothesis must be one of {HYPOTHESES}, got {hypothesis!r}")
    rows = ModelParams(n=params.k, d=params.d, m=params.m, sigma=params.sigma)
    if hypothesis == "null":
        return sample_null(rows, rng)
    X, Y, *_ = sample_planted_batches(rows, [1], rng, permute=False)
    return Instance(X=X[0], Y=Y[0], hypothesis="planted")
