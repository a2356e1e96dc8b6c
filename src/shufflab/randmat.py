"""Seedable samplers for the Haar, Stiefel, permutation and sphere priors.

The matrix samplers draw a stack of ``size`` independent draws in one call;
a single draw is the size-1 stack.  Gaussian matrices need no sampler of
their own: they are ``rng.standard_normal(shape)``.  All samplers are pure
functions of their arguments and the supplied generator: a fixed stream
reproduces bit-identical output on the same build.  ``qr_sign_fixed`` of a
Gaussian stack, QR with the R-diagonal signs normalized to positive, gives
the exact Haar law: on O(d) for square (d, d) matrices
(``haar_orthogonal_batch``), and on the Stiefel manifold for (d, m) ones,
which is how ``model.sample_planted_batches`` draws Q.  Where only the
spectrum of a Haar draw matters, ``haar_verblunsky_batch`` draws O(d) numbers
in place of a QR.
"""

from __future__ import annotations

import numpy as np


def _require_positive(**dims: int) -> None:
    for name, value in dims.items():
        if int(value) != value or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def qr_sign_fixed(g: np.ndarray) -> np.ndarray:
    """Reduced QR with the R diagonal forced positive (batch-aware, each matrix on its own).

    Sign fixing makes the factorization unique, which turns QR of a
    Gaussian matrix into an exact Haar sample on the orthogonal group /
    Stiefel manifold.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0.0] = 1.0  # measure-zero guard
    return q * np.sign(diag)[..., None, :]


def haar_orthogonal_batch(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """size x d x d stack of independent Haar orthogonal draws."""
    _require_positive(d=d, size=size)
    return qr_sign_fixed(rng.standard_normal((size, d, d)))


def haar_verblunsky_batch(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """size x d real Verblunsky coefficients of Haar orthogonal draws (Killip-Nenciu, IMRN 2004).

    Row s holds alpha_0..alpha_{d-1} of the spectral measure of e_1 under a
    Haar Q on O(d).  They are independent: alpha_j = 2 Beta((d-j-1)/2, (d-j-1)/2) - 1
    for j <= d - 2, the first coordinate of a uniform point on the sphere in
    R^{d-j}, and alpha_{d-1} is a fair sign, det Q = (-1)^{d-1} alpha_{d-1}.
    Stream order: the (size, d-1) Beta block, then the size signs.
    """
    _require_positive(d=d, size=size)
    half = (d - 1 - np.arange(d - 1)) / 2.0
    betas = 2.0 * rng.beta(half, half, size=(size, d - 1)) - 1.0
    return np.column_stack([betas, 2.0 * rng.integers(0, 2, size) - 1.0])


def permutation_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """size x n stack of independent uniform permutations of [0, n) (Fisher-Yates per row)."""
    _require_positive(n=n, size=size)
    return rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)


def uniform_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit sphere in R^d, as a length-d vector."""
    _require_positive(d=d)
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 0.0:  # astronomically unlikely to loop
            return g / norm

