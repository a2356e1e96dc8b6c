"""Chi-square divergence between the reduced k-row planted and null laws.

Two noiseless closed forms (products of Wishart normalizing constants) and
one Monte Carlo evaluator for the square case m = d with noise cover the
regimes where the divergence is tractable; ``evaluate`` picks the evaluator
for a regime and method.  The Haar determinant integral behind the m = d
Monte Carlo lives here too; the analytic moments that check the samplers
(sphere monomials, Gaussian exponential moments, orthogonal submatrix
density, Haar determinant moments) live in ``oracles``.

The determinant integral forms no d x d matrix: the spectral measure of e_1
under a Haar Q on O(d) has independent real Verblunsky coefficients alpha_j
(Killip and Nenciu, "Matrix models for circular ensembles", IMRN 2004; laws in
``randmat.haar_verblunsky_batch``), and Szego's recursion Phi_{j+1} = z Phi_j -
alpha_j Phi*_j, Phi*_{j+1} = Phi*_j - alpha_j z Phi_j gives det(I - z Q) = Phi*_d(z).
At z = -eps, with r_j = Phi_j / Phi*_j and r_0 = 1, log det(I + eps Q) is
sum_{j<d} log1p(-alpha_j z r_j) with r_{j+1} = (z r_j - alpha_j) / (1 - alpha_j z r_j):
O(d) per draw, and each factor is >= 1 - |eps| > 0, so it is stable as |eps| -> 1.

The case-1 likelihood-ratio Monte Carlo forms no k x d design either: the
null sees X only through A = X X^T ~ Wishart_k(d, I), and by Bartlett's
decomposition (Bartlett 1933; Muirhead, "Aspects of Multivariate Statistical
Theory", Thm 3.2.14) A = L L^T with L lower triangular, independent
L_ii = sqrt(chi^2(d - i)) for i = 0..k-1 and L_ij ~ N(0, 1) below the
diagonal: O(k^2) numbers per draw.  The likelihood ratio needs A only through
log det A = 2 sum_i log L_ii and the eigenvalues of (A^{-1/2} Y)(A^{-1/2} Y)^T;
since A^{-1/2} = O L^{-1} with O = A^{-1/2} L orthogonal, those are the
eigenvalues of M M^T with M = L^{-1} Y, found by forward substitution.

All normalizing constants and determinants are handled in log space: the
raw constants overflow double precision once d reaches the low hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import MomentEstimate, UnsupportedRegimeError, draw_chunked
from .randmat import haar_verblunsky_batch

ZETA_SLACK = 1e-12
HEAVY_TAIL_SIGMA = 1.0

REGIME_CASE1 = "case1_sigma0"
REGIME_CASE2 = "case2_sigma0"
REGIME_M_EQ_D = "m_eq_d"

_MC_CHUNK = 4096


@dataclass(frozen=True)
class ChiSquareReport:
    """One chi-square evaluation with its regime and method metadata."""

    regime: str
    value: float
    method: str  # "closed_form" | "monte_carlo"
    d: int
    m: int
    k: int
    sigma: float
    stderr: float | None = None
    samples: int | None = None
    warning: str = ""


def log_wishart_constant(s: int, t: int) -> float:
    """log of the Wishart normalizing constant omega(s, t).

    1/omega(s, t) = pi^{t(t-1)/4} * 2^{st/2} * prod_{j=1..t} Gamma((s-j+1)/2).
    """
    if not s >= t >= 1:
        raise ValueError(f"need s >= t >= 1, got s={s}, t={t}")
    from scipy.special import gammaln  # here, so importing the CLI loads no SciPy

    js = np.arange(1, t + 1)
    return -float(
        (t * (t - 1) / 4.0) * math.log(math.pi)
        + (s * t / 2.0) * math.log(2.0)
        + gammaln((s - js + 1) / 2.0).sum()
    )


def wishart_ratio_exact(d: int, k: int) -> float:
    """The 2k-step Wishart constant ratio as an exact telescoping product.

    Returns 2^{k^2} * prod_{j=1..k} prod_{i=1..k} ((d - j + 1)/2 - i),
    evaluated in log space.  Under this module's omega convention this is
    omega(d - 2k, k) / omega(d, k); it grows like d^{k^2}.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if d <= 3 * k:
        raise ValueError(f"need d > 3k for positive factors, got d={d}, k={k}")
    log_val = k * k * math.log(2.0)
    for j in range(1, k + 1):
        for i in range(1, k + 1):
            factor = (d - j + 1) / 2.0 - i
            if factor <= 0:
                raise ValueError(f"nonpositive factor at (i={i}, j={j}) for d={d}, k={k}")
            log_val += math.log(factor)
    return math.exp(log_val)


def chisq_case1_closed(d: int, m: int, k: int) -> ChiSquareReport:
    """Noiseless closed form for k <= m (wide-response case).

    value = [omega(d-m, k)/omega(d, k)] * [omega(d-k-1, k)/omega(d-m-k-1, k)].

    Derivation sketch: condition on the row Gram A = X X^T, integrate the
    squared likelihood ratio over (A, Y) with the substitutions
    Y = A^{1/2} Z and A = (I - Z Z^T)^{-1/2} B (I - Z Z^T)^{-1/2}.  The
    second substitution acts on symmetric k x k matrices, whose Jacobian is
    det(I - Z Z^T)^{-(k+1)/2}; the two evaluators below (exact likelihood
    ratio Monte Carlo, and an exact quadrature identity at m = 1) pin this
    exponent down.  At k = 1 the formula coincides with the regrouped
    product [omega(d-m, 1)/omega(d-m-2, 1)] * [omega(d-2, 1)/omega(d, 1)].
    """
    if not 1 <= k <= m <= d:
        raise UnsupportedRegimeError(f"case1 needs 1 <= k <= m <= d, got d={d}, m={m}, k={k}")
    if d - m - 2 * k < k:
        raise UnsupportedRegimeError(
            f"case1 needs d - m - 2k >= k, got d={d}, m={m}, k={k}"
        )
    log_val = (
        log_wishart_constant(d - m, k)
        - log_wishart_constant(d, k)
        + log_wishart_constant(d - k - 1, k)
        - log_wishart_constant(d - m - k - 1, k)
    )
    return ChiSquareReport(
        regime=REGIME_CASE1, value=math.exp(log_val), method="closed_form",
        d=d, m=m, k=k, sigma=0.0,
    )


def chisq_case2_closed(d: int, m: int, k: int) -> ChiSquareReport:
    """Noiseless closed form for m <= k (tall-pattern case).

    value = [omega(d-k, m)^2/omega(d, m)^2] * [omega(d, k)/omega(d-m, k)]
            * [omega(d-k-1, m)/omega(d-2k-1, m)].

    Same derivation as case 1 with the roles of the Gram sides swapped; the
    final factor again carries the symmetric-space Jacobian exponent.  The
    two cases agree at their overlap k = m, and at m = 1 the value equals
    the exact sphere-overlap quadrature E[(1 - <q, q'>)^{-k}].
    """
    if not 1 <= m <= k:
        raise UnsupportedRegimeError(f"case2 needs 1 <= m <= k, got m={m}, k={k}")
    if d - 3 * k < m:
        raise UnsupportedRegimeError(f"case2 needs d - 3k >= m, got d={d}, m={m}, k={k}")
    log_val = (
        2.0 * (log_wishart_constant(d - k, m) - log_wishart_constant(d, m))
        + log_wishart_constant(d, k)
        - log_wishart_constant(d - m, k)
        + log_wishart_constant(d - k - 1, m)
        - log_wishart_constant(d - 2 * k - 1, m)
    )
    return ChiSquareReport(
        regime=REGIME_CASE2, value=math.exp(log_val), method="closed_form",
        d=d, m=m, k=k, sigma=0.0,
    )


# ---------------------------------------------------------------------------
# Monte Carlo: the case-1 likelihood ratio, and the Haar determinant integral at m = d


def _reduced_log_likelihood(L: np.ndarray, Y: np.ndarray, d: int) -> np.ndarray:
    """log density ratio of the noiseless reduced planted law to the null.

    L: (..., k, k) lower-triangular Cholesky factor of the row Gram A = L L^T,
    Y: (..., k, m).  Batched; -inf outside the support.  The normalizing
    constant is omega(d-m, k)/omega(d, k) for k <= m and omega(d-k, m)/omega(d, m)
    otherwise (the orthogonal-block density swaps its constant roles when
    the block is taller than wide); everything else is shared.
    """
    k = L.shape[-1]
    m = Y.shape[-1]
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    M = np.empty(Y.shape)
    for i in range(k):  # forward substitution: M = L^{-1} Y
        row = Y[..., i, :]
        for j in range(i):
            row = row - L[..., i, j, None] * M[..., j, :]
        M[..., i, :] = row / diag[..., i, None]
    gram = M @ np.swapaxes(M, -2, -1)
    eigs = np.linalg.eigvalsh(gram)
    inside = eigs[..., -1] <= 1.0 + ZETA_SLACK
    clipped = np.clip(eigs, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logdet_gap = np.log1p(-clipped).sum(axis=-1)
    if k <= m:
        log_const = log_wishart_constant(d - m, k) - log_wishart_constant(d, k)
    else:
        log_const = log_wishart_constant(d - k, m) - log_wishart_constant(d, m)
    tr_yy = np.einsum("...ij,...ij->...", Y, Y)
    log_l = (
        log_const
        + 0.5 * tr_yy
        + 0.5 * (d - k - m - 1) * logdet_gap
        - m * np.log(diag).sum(axis=-1)  # 0.5 m log det A
    )
    return np.where(inside, log_l, -np.inf)


def _bartlett_factor(d: int, k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, k, k) lower-triangular L with L L^T ~ Wishart_k(d, I) (module docstring).

    Stream order: a (size, k) block of chi-square draws with d, d-1, ...,
    d-k+1 degrees of freedom (the squared diagonal), then a (size, k(k-1)/2)
    block of normals for the entries below it, row by row.
    """
    L = np.zeros((size, k, k))
    idx = np.arange(k)
    L[:, idx, idx] = np.sqrt(rng.chisquare(d - idx, size=(size, k)))
    rows, cols = np.tril_indices(k, -1)
    L[:, rows, cols] = rng.standard_normal((size, rows.size))
    return L


def _case1_lr_power(
    d: int, m: int, k: int, samples: int, rng: np.random.Generator, power: float
) -> np.ndarray:
    """Draws of L^power under the null, L the case-1 likelihood ratio (0 off support).

    Per chunk of at most ``_MC_CHUNK`` draws the stream gives the chunk's
    Bartlett factors (its diagonal chi-squares, then its below-diagonal
    normals; ``_bartlett_factor``), then its (b, k, m) block of Y.  The
    power is taken per chunk, so no full-length log array is kept.
    """

    def draw(b: int) -> np.ndarray:
        L = _bartlett_factor(d, k, b, rng)
        Y = rng.standard_normal((b, k, m))
        return np.exp(power * _reduced_log_likelihood(L, Y, d))  # exp(-inf) = 0 off support

    return draw_chunked(draw, samples, _MC_CHUNK)


def chisq_case1_mc(
    d: int, m: int, k: int, samples: int, rng: np.random.Generator
) -> ChiSquareReport:
    """Monte Carlo E[L^2] under the null, cross-checking the case-1 closed form.

    Refuses, before any draw, the cells the closed form refuses
    (d - m - 2k < k), where the second moment is not known to be finite; at
    k = 1 it diverges for d < m + 2.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if d - m - 2 * k < k:
        raise UnsupportedRegimeError(
            f"case1 needs d - m - 2k >= k, got d={d}, m={m}, k={k}"
        )
    est = MomentEstimate.from_values(_case1_lr_power(d, m, k, samples, rng, 2.0))
    return ChiSquareReport(
        regime=REGIME_CASE1, value=est.value, method="monte_carlo",
        d=d, m=m, k=k, sigma=0.0, stderr=est.stderr, samples=samples,
    )


def likelihood_ratio_case1_mc_mean(
    d: int, m: int, k: int, samples: int, rng: np.random.Generator
) -> MomentEstimate:
    """Monte Carlo E[L] under the null; a likelihood ratio integrates to one.

    Refuses, before any draw, d - m < k, where the planted law has no density.
    """
    if d - m < k:
        raise UnsupportedRegimeError(
            f"case1 density needs d - m >= k, got d={d}, m={m}, k={k}"
        )
    return MomentEstimate.from_values(_case1_lr_power(d, m, k, samples, rng, 1.0))


def _verblunsky_log_det(alpha: np.ndarray, eps: float) -> np.ndarray:
    """log det(I + eps Q) per row of (size, d) Verblunsky coefficients, |eps| < 1."""
    z, r, logdet = -eps, 1.0, 0.0
    for a in alpha.T:
        t = a * z * r
        logdet = logdet + np.log1p(-t)
        r = (z * r - a) / (1.0 - t)
    return logdet


def det_integral_mc(
    d: int, eps: float, k: int, samples: int, rng: np.random.Generator
) -> MomentEstimate:
    """Monte Carlo E[det(I + eps Q)^k] over Haar orthogonal Q, O(d) per draw (module docstring)."""
    if not abs(eps) < 1:
        raise ValueError(f"need |eps| < 1, got {eps}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if eps == 0.0 or k == 0:
        return MomentEstimate(value=1.0, stderr=0.0, samples=0)

    def draw(b: int) -> np.ndarray:
        return np.exp(k * _verblunsky_log_det(haar_verblunsky_batch(d, b, rng), eps))

    return MomentEstimate.from_values(draw_chunked(draw, samples, _MC_CHUNK))


def chisq_m_eq_d_mc(
    d: int, k: int, sigma: float, samples: int, rng: np.random.Generator
) -> ChiSquareReport:
    """Monte Carlo chi-square for the square case via the Haar determinant integral.

    Averages det(I - Q/(1+sigma^2))^{-k} over Haar orthogonal Q, which is
    det_integral_mc at eps = -1/(1+sigma^2) and power -k.  Refuses
    sigma = 0 (the integrand is unbounded as the contraction factor
    approaches 1) and flags sigma < 1 as heavy-tailed.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if sigma == 0:
        raise UnsupportedRegimeError(
            "m = d Monte Carlo needs sigma > 0: the determinant integrand is unbounded"
        )
    if k == 0:
        return ChiSquareReport(
            regime=REGIME_M_EQ_D, value=1.0, method="closed_form",
            d=d, m=d, k=0, sigma=sigma,
        )
    est = det_integral_mc(d, -1.0 / (1.0 + sigma**2), -k, samples, rng)
    warning = ""
    if sigma < HEAVY_TAIL_SIGMA:
        warning = "heavy-tail: sigma < 1 makes the determinant integrand heavy-tailed"
    return ChiSquareReport(
        regime=REGIME_M_EQ_D, value=est.value, method="monte_carlo",
        d=d, m=d, k=k, sigma=sigma, stderr=est.stderr, samples=est.samples,
        warning=warning,
    )


def evaluate(
    d: int,
    m: int,
    k: int,
    sigma: float,
    method: str,
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ChiSquareReport:
    """Chi-square of the reduced k-row model by the evaluator for its regime.

    method "closed": the noiseless closed forms, case 1 for k <= m and
    case 2 otherwise.  method "mc": the case-1 likelihood-ratio Monte Carlo
    at sigma = 0 with k <= m, and the Haar determinant integral at m = d
    with noise; both need ``rng``.  Other regimes raise
    UnsupportedRegimeError.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"need finite sigma >= 0, got {sigma}")
    if method == "closed":
        if sigma != 0:
            raise UnsupportedRegimeError(
                f"no closed form for sigma={sigma} (closed forms need sigma = 0)"
            )
        if k <= m:
            return chisq_case1_closed(d, m, k)
        return chisq_case2_closed(d, m, k)
    if method != "mc":
        raise ValueError(f"method must be 'closed' or 'mc', got {method!r}")
    if sigma == 0 and k > m:
        raise UnsupportedRegimeError(
            f"no Monte Carlo evaluator for sigma=0 with k={k} > m={m}"
        )
    if sigma != 0 and m != d:
        raise UnsupportedRegimeError(
            f"no Monte Carlo evaluator for sigma={sigma} with m={m} != d={d}"
        )
    if rng is None:
        raise ValueError("rng is required for the Monte Carlo evaluators")
    if sigma == 0:
        return chisq_case1_mc(d, m, k, samples, rng)
    return chisq_m_eq_d_mc(d, k, sigma, samples, rng)
