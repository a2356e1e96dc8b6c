"""Generative samplers for the null and planted hypotheses.

Under the null, X (n x d) and Y (n x m) are independent Gaussian matrices.
Under the planted law, Y = (P X Q + sigma * Z) / sqrt(1 + sigma^2) with P a
uniform row permutation, Q Haar on the d x m Stiefel manifold (the
sign-fixed QR of a d x m Gaussian, ``randmat.qr_sign_fixed``), and Z
Gaussian noise, all independent.  The permutation is applied by an index
gather; the n x n matrix is never materialized.  The batch samplers draw
stacks of independent instances; ``sample_null`` and ``sample_planted``
are their size-1 draws.  The advantage estimator draws no instances: it
integrates the permutation and the noise out given (X, Q) (``advantage``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import randmat
from .common import as_integer, check_sigma


@dataclass(frozen=True)
class ModelParams:
    """Problem dimensions (n rows, d predictors, m responses) and noise.

    n, d and m must be integral; a value such as 2.0 is stored as the int 2.
    Construction checks n >= 1, 1 <= m <= d and sigma (``common.check_sigma``).
    """

    n: int
    d: int
    m: int
    sigma: float

    def __post_init__(self) -> None:
        for name in ("n", "d", "m"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 1 <= self.m <= self.d:
            raise ValueError(f"need 1 <= m <= d, got m={self.m}, d={self.d}")
        check_sigma(self.sigma)


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


def sample_planted_batch(
    params: ModelParams, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """size independent planted draws, stacked as (X, Y, perm, Q, Z).

    X is (size, n, d), Y and Z (size, n, m), perm (size, n) and Q (size, d, m).
    The stream gives X, the permutations, Q's Gaussian and Z in turn.
    """
    n, d, m = params.n, params.d, params.m
    X = rng.standard_normal((size, n, d))
    perm = randmat.permutation_batch(n, size, rng)
    Q = randmat.qr_sign_fixed(rng.standard_normal((size, d, m)))
    Z = rng.standard_normal((size, n, m))
    XP = np.take_along_axis(X, perm[:, :, None], axis=1)
    return X, planted_response(XP, Q, Z, params.sigma), perm, Q, Z


def sample_null(params: ModelParams, rng: np.random.Generator) -> Instance:
    """One null draw: the size-1 stack of ``sample_null_batch``."""
    X, Y = sample_null_batch(params, 1, rng)
    return Instance(X=X[0], Y=Y[0], hypothesis="null")


def sample_planted(
    params: ModelParams, rng: np.random.Generator, keep_latent: bool = False
) -> Instance:
    """One planted draw: the size-1 stack of ``sample_planted_batch``, latents kept on request."""
    X, Y, perm, Q, Z = sample_planted_batch(params, 1, rng)
    latent = Latent(perm=perm[0], Q=Q[0], Z=Z[0]) if keep_latent else None
    return Instance(X=X[0], Y=Y[0], hypothesis="planted", latent=latent)
