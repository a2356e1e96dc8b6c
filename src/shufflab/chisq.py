"""Chi-square divergence between the reduced k-row planted and null laws.

``evaluate`` is the one entry point: it checks its inputs, owns every
regime's domain, picks the evaluator for a regime and method, and builds the
report.  Its private kernels are two noiseless closed forms (products of
Wishart normalizing constants) and the case-1 likelihood-ratio Monte Carlo;
the Haar determinant integral behind the m = d Monte Carlo with noise lives
here too.  The analytic moments that check the samplers
(sphere monomials, Gaussian exponential moments, orthogonal submatrix
density, Haar determinant moments) live in ``oracles``, as do the exact
product form of the Wishart constant ratio and the Monte Carlo mean of the
case-1 likelihood ratio.

The determinant integral forms no d x d matrix: the spectral measure of e_1
under a Haar Q on O(d) has independent real Verblunsky coefficients alpha_j
(Killip and Nenciu, "Matrix models for circular ensembles", IMRN 2004).
``randmat.haar_verblunsky_batch`` states their laws and draws them by Gaussian
stick-breaking, each draw one contiguous stretch of the stream, so the chunk
size moves no bit of the estimate.  Szego's recursion Phi_{j+1} = z Phi_j -
alpha_j Phi*_j, Phi*_{j+1} = Phi*_j - alpha_j z Phi_j gives det(I - z Q) = Phi*_d(z).
At z = -eps, with r_j = Phi_j / Phi*_j and r_0 = 1, det(I + eps Q) is the
product over j < d of 1 - alpha_j z r_j, with r_{j+1} = (z r_j - alpha_j) /
(1 - alpha_j z r_j): O(d) per draw, and |r_j| <= 1 keeps each factor in
[1 - |eps|, 1 + |eps|], so the product is stable as |eps| -> 1.

The last two coefficients are integrated out in closed form
(Rao-Blackwellization; Casella and Robert, Biometrika 1996): alpha_{d-1} = s
is a fair sign and alpha_{d-2} = cos(theta) with theta uniform on [0, pi],
independent of each other and of alpha_0..alpha_{d-3}.  With D = Phi*_{d-2}(z)
and r = r_{d-2}, the last two factors multiply to c0 - c1 cos(theta), where
c0 = 1 - s z^2 r and c1 = z (r - s), and rho^2 = (c0 - c1)(c0 + c1) =
(1 - z^2)(1 - z^2 r^2) for either sign.  Laplace's integrals for the Legendre
polynomials give E_theta (c0 - c1 cos theta)^p = rho^p P_p(c0 / rho) for every
integer p, with P_p = P_{-p-1} for p < 0.  So each draw of alpha_0..alpha_{d-3}
contributes D^k times the mean over s = +-1 of that, which is
E[det(I + eps Q)^k | alpha_0..alpha_{d-3}]: the estimate stays unbiased and
its variance can only fall.  At d <= 2 nothing is left to draw, and the value
is exact.

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

from .common import MomentEstimate, UnsupportedRegimeError, as_integer, draw_chunked
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


def _case1_closed(d: int, m: int, k: int) -> float:
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
    return math.exp(
        log_wishart_constant(d - m, k)
        - log_wishart_constant(d, k)
        + log_wishart_constant(d - k - 1, k)
        - log_wishart_constant(d - m - k - 1, k)
    )


def _case2_closed(d: int, m: int, k: int) -> float:
    """Noiseless closed form for m <= k (tall-pattern case).

    value = [omega(d-k, m)^2/omega(d, m)^2] * [omega(d, k)/omega(d-m, k)]
            * [omega(d-k-1, m)/omega(d-2k-1, m)].

    Same derivation as case 1 with the roles of the Gram sides swapped; the
    final factor again carries the symmetric-space Jacobian exponent.  The
    two cases agree at their overlap k = m, and at m = 1 the value equals
    the exact sphere-overlap quadrature E[(1 - <q, q'>)^{-k}].
    """
    return math.exp(
        2.0 * (log_wishart_constant(d - k, m) - log_wishart_constant(d, m))
        + log_wishart_constant(d, k)
        - log_wishart_constant(d - m, k)
        + log_wishart_constant(d - k - 1, m)
        - log_wishart_constant(d - 2 * k - 1, m)
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


def _legendre_mean(c0: np.ndarray, rho2: np.ndarray, p: int) -> np.ndarray:
    """E_theta (c0 - c1 cos theta)^p = rho^p P_p(c0 / rho), rho2 = c0^2 - c1^2 > 0.

    Laplace's integrals (module docstring), by Bonnet's recurrence in
    homogeneous form, Q_n = rho^n P_n(c0 / rho):
    (n + 1) Q_{n+1} = (2n + 1) c0 Q_n - n rho^2 Q_{n-1}, Q_0 = 1, Q_1 = c0.
    p >= 0 returns Q_p; p < 0 returns Q_n / rho^{2n+1} with n = -p - 1.
    """
    n = p if p >= 0 else -p - 1
    prev, q = 1.0, (c0 if n else 1.0)
    for j in range(1, n):
        prev, q = q, ((2 * j + 1) * c0 * q - j * rho2 * prev) / (j + 1)
    if p >= 0:
        return q
    return q / (rho2**n * np.sqrt(rho2))


def _conditional_det_power(head: np.ndarray, eps: float, k: int) -> np.ndarray:
    """E[det(I + eps Q)^k | alpha_0..alpha_{d-3}] per row of head = (size, d - 2) coefficients.

    Szego's product over alpha_0..alpha_{d-3}, then the last two coefficients
    integrated out in closed form (module docstring); |eps| < 1, integer k.
    """
    z = -eps
    D = r = np.ones(len(head))
    for a in head.T:
        zr = z * r
        t = 1.0 - a * zr
        D = D * t
        r = (zr - a) / t
    zr = z * r
    rho2 = (1.0 - z * z) * (1.0 - zr * zr)
    tail = _legendre_mean(1.0 - z * zr, rho2, k) + _legendre_mean(1.0 + z * zr, rho2, k)
    return 0.5 * tail * D**k


def det_integral_mc(
    d: int, eps: float, k: int, samples: int, rng: np.random.Generator
) -> MomentEstimate:
    """Rao-Blackwellized Monte Carlo E[det(I + eps Q)^k] over Haar orthogonal Q on O(d).

    Needs |eps| < 1, an integer d >= 1 and an integer k (ValueError before
    any draw otherwise).
    Each of ``samples`` draws takes one row of d normals from the stream
    (``randmat.haar_verblunsky_batch``) and contributes the exact conditional
    mean of det(I + eps Q)^k given alpha_0..alpha_{d-3}, O(d) per draw with no
    d x d matrix (module docstring).  Those conditional means are i.i.d. with
    the target as their mean, so the estimate is unbiased, and ``stderr`` is
    their sample standard deviation over sqrt(samples).  At eps = 0, k = 0
    or d <= 2 the value is exact: stderr 0, samples 0, and nothing is drawn.
    """
    if not abs(eps) < 1:
        raise ValueError(f"need |eps| < 1, got {eps}")
    d, k = as_integer("d", d), as_integer("k", k)
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if eps == 0.0 or k == 0:
        return MomentEstimate(value=1.0, stderr=0.0, samples=0)
    if d <= 2:  # nothing left to draw
        if d == 1:  # Q = alpha_0 = +-1
            value = ((1 + eps) ** k + (1 - eps) ** k) / 2
        else:
            value = float(_conditional_det_power(np.empty((1, 0)), eps, k)[0])
        return MomentEstimate(value=value, stderr=0.0, samples=0)

    def draw(b: int) -> np.ndarray:
        return _conditional_det_power(haar_verblunsky_batch(d, b, rng)[:, :-2], eps, k)

    return MomentEstimate.from_values(draw_chunked(draw, samples, _MC_CHUNK))


def evaluate(
    d: int,
    m: int,
    k: int,
    sigma: float,
    method: str,
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ChiSquareReport:
    """Chi-square of the reduced k-row model, by the one evaluator for its regime.

    ValueError unless d, m and k are integers (an integral value such as 2.0
    is taken as the int), k >= 1, 1 <= m <= d, sigma is finite and >= 0 and
    method is "closed" or "mc"; "mc" also needs ``rng`` and samples >= 1.
    The regime table below writes each regime's domain once:

    - case 1, sigma = 0 and k <= m: "closed" is the closed form, "mc" the
      mean of L^2 over ``samples`` null draws, L the likelihood ratio.  Its
      domain is where the second moment is known to be finite (at k = 1 it
      diverges for d < m + 2).
    - case 2, sigma = 0 and k > m: "closed" only.
    - m = d with sigma > 0: "mc" only, E det(I - Q/(1+sigma^2))^{-k} over
      Haar Q on O(d) by ``det_integral_mc`` (the integrand is unbounded at
      sigma = 0).  The value is exact at d <= 2 (stderr 0, samples 0), and a
      sampled estimate at sigma < 1 carries the heavy-tail warning.

    A cell outside its regime's domain or methods raises
    UnsupportedRegimeError naming d, m, k and sigma.  Every refusal comes
    before any draw.
    """
    d, m, k = as_integer("d", d), as_integer("m", m), as_integer("k", k)
    if not (k >= 1 and 1 <= m <= d):
        raise ValueError(f"need k >= 1 and 1 <= m <= d, got d={d}, m={m}, k={k}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"need finite sigma >= 0, got {sigma}")
    if method not in ("closed", "mc"):
        raise ValueError(f"method must be 'closed' or 'mc', got {method!r}")
    if sigma == 0 and k <= m:
        regime, methods, inside = REGIME_CASE1, ("closed", "mc"), d - m - 2 * k >= k
    elif sigma == 0:
        regime, methods, inside = REGIME_CASE2, ("closed",), d - 3 * k >= m
    else:
        regime, methods, inside = REGIME_M_EQ_D, ("mc",), m == d
    if method not in methods or not inside:
        why = f"{regime} has no {method} evaluator" if inside else f"outside the {regime} domain"
        raise UnsupportedRegimeError(f"d={d}, m={m}, k={k}, sigma={sigma}: {why}")
    if method == "closed":
        value = (_case1_closed if regime == REGIME_CASE1 else _case2_closed)(d, m, k)
        return ChiSquareReport(regime, value, "closed_form", d, m, k, 0.0)
    if rng is None:
        raise ValueError("rng is required for the Monte Carlo evaluators")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if regime == REGIME_CASE1:
        est = MomentEstimate.from_values(_case1_lr_power(d, m, k, samples, rng, 2.0))
        return ChiSquareReport(
            regime, est.value, "monte_carlo", d, m, k, 0.0, est.stderr, est.samples
        )
    est = det_integral_mc(d, -1.0 / (1.0 + sigma**2), -k, samples, rng)
    warning = ""
    if sigma < HEAVY_TAIL_SIGMA and est.samples:
        warning = "heavy-tail: sigma < 1 makes the determinant integrand heavy-tailed"
    return ChiSquareReport(
        regime, est.value, "monte_carlo", d, m, k, sigma, est.stderr, est.samples, warning
    )
