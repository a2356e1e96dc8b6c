"""Seedable samplers for the Haar, Stiefel and permutation priors.

The matrix samplers draw a stack of ``size`` independent draws in one call;
a single draw is the size-1 stack.  Gaussian matrices need no sampler of
their own: they are ``rng.standard_normal(shape)``.  All samplers are pure
functions of their arguments and the supplied generator: a fixed stream
reproduces bit-identical output on the same build.  ``qr_sign_fixed`` of a
Gaussian stack, QR with the R-diagonal signs normalized to positive, gives
the exact Haar law: on O(d) for square (d, d) matrices, and on the Stiefel
manifold for (d, m) ones, which is how ``model.sample_planted_batch`` and the
advantage estimator draw Q.  A stack with m <= min(d, 2) columns skips
LAPACK: the sign-fixed factor is Gram-Schmidt in closed form, q_1 = g_1 /
|g_1| and q_2 the normalized residual of g_2 after two projections out of
q_1, which rounds differently from Householder QR but draws the same law.
It works on component rows, one length-``size`` array per matrix entry, so
every dot product and squared norm is a left-to-right sum over the d rows.
Where only the spectrum of a Haar draw matters, ``haar_verblunsky_batch``
draws O(d) numbers in place of a QR: Verblunsky coefficients by Gaussian
stick-breaking from one row-major block of normals, so each draw is one
contiguous stretch of the stream and a stack of a + b draws is a stack of a
draws on top of one of b.
"""

from __future__ import annotations

import numpy as np

from .common import as_integer


def _require_positive(**dims: int) -> None:
    for name, value in dims.items():
        if as_integer(name, value) < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def qr_sign_fixed(g: np.ndarray) -> np.ndarray:
    """Reduced QR with the R diagonal forced positive (batch-aware, each matrix on its own).

    Sign fixing makes the factorization unique, which turns QR of a
    Gaussian matrix into an exact Haar sample on the orthogonal group /
    Stiefel manifold.  Inputs with m <= min(d, 2) columns, square ones
    included, take the closed-form Gram-Schmidt (module docstring); the rest
    take LAPACK, as does any matrix whose first column or residual has a
    squared norm that is 0 or not finite, so none gives NaN.  The closed
    form sums over the d rows left to right; up to d = 7 that is the order
    of numpy's ``add.reduce`` too, while from d = 8 on numpy sums pairwise,
    so a Q drawn with d >= 8 differs from such a reduction in the last bit.
    The result is C-contiguous, (..., d, m) like the input.
    """
    g = np.asarray(g, dtype=float)
    d, m = g.shape[-2:]
    if m > 2 or m > d:
        return _lapack_sign_fixed(g)
    to_rows = (g.ndim - 2, g.ndim - 1, *range(g.ndim - 2))
    c = np.ascontiguousarray(g.transpose(to_rows))  # c[i, j]: entry (i, j) of every matrix
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        norm_sq = _row_dot(c[:, 0], c[:, 0])
        ok = (norm_sq > 0.0) & (norm_sq < np.inf)
        cols = [c[:, 0] / np.sqrt(norm_sq)]
        if m == 2:
            q1 = cols[0]
            v = c[:, 1] - q1 * _row_dot(q1, c[:, 1])
            v -= q1 * _row_dot(q1, v)  # re-orthogonalise once
            norm_sq = _row_dot(v, v)
            ok &= (norm_sq > 0.0) & (norm_sq < np.inf)
            cols.append(v / np.sqrt(norm_sq))
    q = np.empty(g.shape)
    rows = q.transpose(to_rows)
    for j, col in enumerate(cols):
        for i in range(d):  # 1-D copies: one (d, ...) copy would loop over d innermost
            rows[i, j] = col[i]
    if not ok.all():  # a zero or overflowing norm: LAPACK's answer, matrix by matrix
        q[~ok] = _lapack_sign_fixed(g[~ok])
    return q


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] * b[i] over the leading axis, left to right."""
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total += a[i] * b[i]
    return total


def _lapack_sign_fixed(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0.0] = 1.0  # measure-zero guard
    return q * np.sign(diag)[..., None, :]


def haar_verblunsky_batch(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """size x d real Verblunsky coefficients of Haar orthogonal draws (Killip-Nenciu, IMRN 2004).

    Row s holds alpha_0..alpha_{d-1} of the spectral measure of e_1 under a
    Haar Q on O(d).  They are independent: alpha_j = 2 Beta((d-j-1)/2, (d-j-1)/2) - 1
    for j <= d - 2, the first coordinate of a uniform point on the sphere in
    R^{d-j}, and alpha_{d-1} is a fair sign, det Q = (-1)^{d-1} alpha_{d-1}.

    Drawn by Gaussian stick-breaking from one row-major (size, d) block g of
    standard normals: alpha_j = g_j / sqrt(g_j^2 + ... + g_{d-1}^2) for
    j <= d - 2 and alpha_{d-1} = copysign(1, g_{d-1}).  A Gaussian vector's
    direction is uniform and independent of its norm, so each normalised
    tail (g_j..g_{d-1}) / |.| is uniform on the sphere in R^{d-j} and
    independent of alpha_0..alpha_{j-1}; its first coordinate has the law
    above.  The tail sums run from the right, T_j = g_j^2 + T_{j+1}, so
    T_j >= g_j^2 and sqrt(g^2) = |g| in round-to-nearest keep |alpha_j| <= 1
    without a clip.  Row s is the stream's normals s*d..s*d + d - 1, so a
    draw of a + b rows equals a draw of a rows stacked on one of b.
    """
    _require_positive(d=d, size=size)
    g = rng.standard_normal((size, d))
    tails = np.square(g)
    np.cumsum(tails[:, ::-1], axis=1, out=tails[:, ::-1])
    np.sqrt(tails, out=tails)
    tails[:, -1] = 1.0  # alpha_{d-1} = sign / 1, even where g_{d-1} = 0
    np.copysign(1.0, g[:, -1], out=g[:, -1])
    return np.divide(g, tails, out=g)


def permutation_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """size x n stack of independent uniform permutations of [0, n) (Fisher-Yates per row)."""
    _require_positive(n=n, size=size)
    return rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)

