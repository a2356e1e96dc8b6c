"""Chi-square divergence between the reduced k-row planted and null laws.

``check_cell`` holds the input checks and every regime's domain, and does no
work; ``evaluate``, the one entry point, calls it first, then picks the
evaluator for the regime and method and builds the report.  Its private
kernels are two noiseless closed forms (products of ratios of Wishart
normalizing constants) and the case-1 likelihood-ratio Monte Carlo; the Haar
determinant integral behind the m = d Monte Carlo with noise lives here too.
The analytic moments that check the samplers (sphere monomials, Gaussian
exponential moments, orthogonal submatrix density, Haar determinant moments)
live in ``oracles``, as do the exact product form of the Wishart constant
ratio and the Monte Carlo mean of the case-1 likelihood ratio.

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

Each draw is used twice, at +eps and at -eps (antithetic variates; Hammersley
and Morton, Proc. Camb. Phil. Soc. 1956).  -I lies in O(d), so Haar measure
is invariant under Q -> -Q, and det(I - eps Q) has the law of det(I + eps Q).
The conditional mean above holds for any |eps| < 1, so at -eps it is
unbiased for E det(I - eps Q)^k, which is the same target, and so is the
mean of the pair.  The two sides are negatively correlated once eps is small
(sigma >= 1 in the chi-square), where most of the variance is.

Each draw then averages out alpha_{d-3} on a randomly shifted lattice
(Cranley and Patterson, SIAM J. Numer. Anal. 1976).  alpha_{d-3} is the
first coordinate of a uniform point on the sphere in R^3, so by Archimedes'
hat-box theorem it is uniform on [-1, 1], independent of alpha_0..alpha_{d-4}.
With u = (alpha_{d-3} + 1)/2, each of the M = 4 points a_i = 2 frac(u + i/M) - 1
is uniform on [-1, 1] and independent of alpha_0..alpha_{d-4} as well, so the
conditional mean above with a_i in place of alpha_{d-3} is unbiased for every
i, and so is the mean over i; the per-draw means stay i.i.d., and the draw
takes no more of the stream.  Szego's product over alpha_0..alpha_{d-4} is
formed once per sign of eps, then one step per point and the closed form for
the last two on all M points at once.  At d = 3 the lattice covers the one
sampled coefficient.  Against the pair mean with alpha_{d-3} used once, at
d = 40 and k = 2 with eps = -1/(1 + sigma^2) (200,000 draws), the variance
falls 1.98x at sigma = 0.5, 1.75x at 1, 1.64x at 2 and 1.62x at 4; below
sigma = 0.5 the sample variance is too heavy-tailed to give a ratio.

The case-1 likelihood-ratio Monte Carlo forms no k x d design either: the
null sees X only through A = X X^T ~ Wishart_k(d, I), and by Bartlett's
decomposition (Bartlett 1933; Muirhead, "Aspects of Multivariate Statistical
Theory", Thm 3.2.14) A = L L^T with L lower triangular, independent
L_ii = sqrt(chi^2(d - i)) for i = 0..k-1 and L_ij ~ N(0, 1) below the
diagonal: O(k^2) numbers per draw.  The likelihood ratio needs A only through
log det A = 2 sum_i log L_ii and the eigenvalues of (A^{-1/2} Y)(A^{-1/2} Y)^T;
since A^{-1/2} = O L^{-1} with O = A^{-1/2} L orthogonal, those are the
eigenvalues of M M^T with M = L^{-1} Y, found by forward substitution.

The Wishart normalizing constants omega(s, t) enter only as ratios
omega(s - h, t) / omega(s, t), and those are exact: every Gamma argument is
an integer or a half-integer, so each ratio telescopes to integers times
pi^(a/2) 2^(b/2) (``_wishart_ratio``).  In both closed forms the pi and 2
exponents cancel, so each value is an exact rational rounded once (to +inf
above the largest double, as IEEE round-to-nearest gives); the
likelihood ratio takes the log of its exact constant, once per Monte Carlo
call.  The raw constants, which overflow double precision once d reaches the
low hundreds, are never formed, and no large logs are summed to an O(1)
result.  Determinants are handled in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import MomentEstimate, UnsupportedRegimeError, as_integer, check_sigma, draw_chunked
from .randmat import haar_verblunsky_batch

ZETA_SLACK = 1e-12
HEAVY_TAIL_SIGMA = 1.0

REGIME_CASE1 = "case1_sigma0"
REGIME_CASE2 = "case2_sigma0"
REGIME_M_EQ_D = "m_eq_d"

_MC_CHUNK = 4096
_LATTICE = 4  # points of the shifted lattice in alpha_{d-3} per Verblunsky draw


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


def _wishart_ratio(*terms: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """prod over (s, h, t, e) of [omega(s - h, t) / omega(s, t)]^e exactly, as (p, q, a, b).

    The product is p / q * pi^(a/2) * 2^(b/2), p and q positive integers.
    With 1/omega(s, t) = pi^{t(t-1)/4} 2^{st/2} prod_{j=1..t} Gamma((s-j+1)/2),
    one ratio is 2^{ht/2} prod_{j=1..t} Gamma((s-j+1)/2) / Gamma((s-h-j+1)/2).
    Each Gamma argument n/2 is an integer or a half-integer, and
    Gamma(n) = (n-1)!, Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!) give
    Gamma(n/2) = sqrt(pi)^[n odd] prod_{v = n mod 2, 0 < v < n} v/2.
    So v/2 enters with the net exponent of the Gamma(n/2) with n > v of its
    parity: a run of v between two consecutive such n is one ``math.prod``,
    and the runs where the exponents cancel cost nothing.
    """
    net: dict[int, int] = {}  # n -> exponent of Gamma(n/2)
    b = 0
    for s, h, t, e in terms:
        if not (t >= 1 and h >= 0 and s - h >= t):
            raise ValueError(f"need t >= 1, h >= 0 and s - h >= t, got s={s}, h={h}, t={t}")
        b += e * h * t
        for j in range(1, t + 1):
            net[s - j + 1] = net.get(s - j + 1, 0) + e
            net[s - h - j + 1] = net.get(s - h - j + 1, 0) - e
    a = sum(e for n, e in net.items() if n % 2)
    p = q = 1
    for parity in (0, 1):
        tops = sorted((n for n, e in net.items() if e and n % 2 == parity), reverse=True)
        exponent = 0
        for top, low in zip(tops, tops[1:] + [2 - parity]):
            exponent += net[top]
            run = range(low, top, 2)  # v in [low, top) of top's parity
            if exponent and run:
                factor = math.prod(run) ** abs(exponent)
                p, q = (p * factor, q) if exponent > 0 else (p, q * factor)
                b -= 2 * exponent * len(run)
    return p, q, a, b


def log_wishart_ratio(s: int, h: int, t: int) -> float:
    """log of omega(s - h, t) / omega(s, t), omega the Wishart normalizing constant.

    1/omega(s, t) = pi^{t(t-1)/4} * 2^{st/2} * prod_{j=1..t} Gamma((s-j+1)/2)
    (Muirhead, Thm 3.2.14).  The ratio is exact (``_wishart_ratio``): a
    rational p/q times pi^(a/2) 2^(b/2).  p/q is rounded once after scaling
    by a power of two into (1/2, 2), so the log loses no digits to the size
    of the Gamma values.  Needs t >= 1, h >= 0 and s - h >= t.
    """
    p, q, a, b = _wishart_ratio((s, h, t, 1))
    shift = p.bit_length() - q.bit_length()
    x = p / (q << shift) if shift >= 0 else (p << -shift) / q
    return math.log(x) + (shift + b / 2) * math.log(2.0) + (a / 2) * math.log(math.pi)


def _rational_wishart_ratio(*terms: tuple[int, int, int, int]) -> float:
    """A product of Wishart constant ratios whose pi and 2 exponents cancel, rounded once."""
    p, q, a, b = _wishart_ratio(*terms)
    assert a == 0 and b % 2 == 0, f"irrational Wishart ratio product {terms}"
    try:
        return (p << max(b // 2, 0)) / (q << max(-b // 2, 0))  # int division rounds correctly
    except OverflowError:  # raised only where the rounded value is above the largest double
        return math.inf


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
    The value is rational: the two ratios' pi and 2 exponents cancel.
    """
    return _rational_wishart_ratio((d, m, k, 1), (d - k - 1, m, k, -1))


def _case2_closed(d: int, m: int, k: int) -> float:
    """Noiseless closed form for m <= k (tall-pattern case).

    value = [omega(d-k, m)^2/omega(d, m)^2] * [omega(d, k)/omega(d-m, k)]
            * [omega(d-k-1, m)/omega(d-2k-1, m)].

    Same derivation as case 1 with the roles of the Gram sides swapped; the
    final factor again carries the symmetric-space Jacobian exponent.  The
    two cases agree at their overlap k = m, and at m = 1 the value equals
    the exact sphere-overlap quadrature E[(1 - <q, q'>)^{-k}].  The value is
    rational, as in case 1.
    """
    return _rational_wishart_ratio((d, k, m, 2), (d, m, k, -1), (d - k - 1, k, m, -1))


# ---------------------------------------------------------------------------
# Monte Carlo: the case-1 likelihood ratio, and the Haar determinant integral at m = d


def _lr_log_const(d: int, m: int, k: int) -> float:
    """log of the likelihood ratio's normalizing constant.

    omega(d-m, k)/omega(d, k) for k <= m and omega(d-k, m)/omega(d, m)
    otherwise (the orthogonal-block density swaps its constant roles when
    the block is taller than wide).
    """
    return log_wishart_ratio(d, m, k) if k <= m else log_wishart_ratio(d, k, m)


def _reduced_log_likelihood(
    L: np.ndarray, Y: np.ndarray, d: int, log_const: float
) -> np.ndarray:
    """log density ratio of the noiseless reduced planted law to the null.

    L: (..., k, k) lower-triangular Cholesky factor of the row Gram A = L L^T,
    Y: (..., k, m), log_const = ``_lr_log_const(d, m, k)``.  Batched; -inf
    outside the support.
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
    eigs = gram[..., 0] if k == 1 else np.linalg.eigvalsh(gram)  # a 1 x 1 Gram is its eigenvalue
    inside = eigs[..., -1] <= 1.0 + ZETA_SLACK
    clipped = np.clip(eigs, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logdet_gap = np.log1p(-clipped).sum(axis=-1)
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
    block of normals for the entries below it, row by row.  At k = 1 the
    degrees of freedom go in as the scalar d, which draws the same bits as
    the length-1 array in less time.
    """
    L = np.zeros((size, k, k))
    idx = np.arange(k)
    L[:, idx, idx] = np.sqrt(rng.chisquare(d if k == 1 else d - idx, size=(size, k)))
    if k > 1:  # at k = 1 nothing lies below the diagonal
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
    log_const = _lr_log_const(d, m, k)

    def draw(b: int) -> np.ndarray:
        L = _bartlett_factor(d, k, b, rng)
        Y = rng.standard_normal((b, k, m))
        # exp(-inf) = 0 off support
        return np.exp(power * _reduced_log_likelihood(L, Y, d, log_const))

    return draw_chunked(draw, samples, _MC_CHUNK)


def _legendre_q(c0: np.ndarray, rho2: np.ndarray, n: int) -> np.ndarray:
    """Q_n = rho^n P_n(c0 / rho), rho2 = rho^2 > 0, by Bonnet's recurrence in homogeneous form.

    (n + 1) Q_{n+1} = (2n + 1) c0 Q_n - n rho^2 Q_{n-1}, Q_0 = 1, Q_1 = c0.
    """
    prev, q = 1.0, (c0 if n else 1.0)
    for j in range(1, n):
        prev, q = q, ((2 * j + 1) * c0 * q - j * rho2 * prev) / (j + 1)
    return q


def _szego_product(alphas: np.ndarray, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Szego's recursion at z through the rows of ``alphas`` = (steps, size) coefficients.

    Returns D, the product of the factors 1 - alpha_j z r_j, and the last r,
    from D = r = 1 (module docstring).  The loop works in place on four
    length-``size`` buffers.
    """
    size = alphas.shape[1]
    D, r, zr, t = np.ones(size), np.ones(size), np.empty(size), np.empty(size)
    for a in alphas:
        np.multiply(z, r, out=zr)
        np.multiply(a, zr, out=t)
        np.subtract(1.0, t, out=t)
        D *= t
        np.subtract(zr, a, out=r)
        r /= t
    return D, r


def _last_two_mean(D: np.ndarray, r: np.ndarray, z: float, k: int) -> np.ndarray:
    """D^k times the mean of the last two factors to the k over alpha_{d-2} and alpha_{d-1}.

    D = Phi*_{d-2}(z) and r = r_{d-2}.  With c0 = 1 - s c, c = z^2 r, the
    mean over theta is rho^k P_k(c0 / rho) (Laplace's integrals, module
    docstring), then the mean over s = +-1.
    """
    zr = z * r
    c = z * zr
    rho2 = (1.0 - z * z) * (1.0 - zr * zr)  # = c0^2 - c1^2 for either sign
    n = k if k >= 0 else -k - 1  # P_k = P_{-k-1}
    lo, hi = _legendre_q(1.0 - c, rho2, n), _legendre_q(1.0 + c, rho2, n)
    if k < 0:  # rho^k P_k = Q_n / rho^{2n+1}
        den = rho2**n * np.sqrt(rho2)
        lo, hi = lo / den, hi / den
    return 0.5 * (lo + hi) * D**k


def _conditional_det_power(head: np.ndarray, eps: float, k: int) -> np.ndarray:
    """E[det(I + eps Q)^k | alpha_0..alpha_{d-3}] per row of head = (size, d - 2) coefficients.

    Szego's product over alpha_0..alpha_{d-3}, then the last two coefficients
    integrated out in closed form (module docstring); |eps| < 1, integer k.
    """
    return _last_two_mean(*_szego_product(head.T, -eps), -eps, k)


def _lattice_points(alpha: np.ndarray) -> np.ndarray:
    """(M, size) points 2 frac(u + i/M) - 1, i = 0..M-1, u = (alpha + 1)/2, M = ``_LATTICE``.

    For alpha uniform on [-1, 1] each row is uniform on [-1, 1]: a randomly
    shifted lattice (module docstring).  The point is alpha + 2i/M, less 2
    where that reaches 1: the subtraction is exact, and a mask is cheaper
    than ``% 1.0`` or a ``where=``.
    """
    a = alpha + (np.arange(_LATTICE) * (2 / _LATTICE))[:, None]
    a -= 2.0 * (a >= 1.0)
    return a


def _lattice_det_power(head: np.ndarray, lattice: np.ndarray, eps: float, k: int) -> np.ndarray:
    """E[det(I + eps Q)^k | alpha_0..alpha_{d-4}, alpha_{d-3} = lattice[i]] for each point i.

    head = (size, d - 3) coefficients alpha_0..alpha_{d-4}: Szego's product
    over them once, then one step per lattice point and the closed form for
    the last two (module docstring).
    """
    z = -eps
    D, r = _szego_product(head.T, z)
    zr = z * r
    t = 1.0 - lattice * zr
    return _last_two_mean(D * t, (zr - lattice) / t, z, k)


def det_integral_mc(
    d: int, eps: float, k: int, samples: int, rng: np.random.Generator
) -> MomentEstimate:
    """Rao-Blackwellized Monte Carlo E[det(I + eps Q)^k] over Haar orthogonal Q on O(d).

    Needs |eps| < 1, an integer d >= 1 and an integer k (ValueError before
    any draw otherwise).
    Each of ``samples`` draws takes one row of d normals from the stream
    (``randmat.haar_verblunsky_batch``) and contributes the mean of 2M exact
    conditional means, of det(I + eps Q)^k and of det(I - eps Q)^k given
    alpha_0..alpha_{d-4} and alpha_{d-3} = a_i, over the M = ``_LATTICE``
    points a_i of the lattice that the drawn alpha_{d-3} shifts: O(d) per
    draw with no d x d matrix (module docstring).  Those per-draw means are
    i.i.d. with the target as their mean, so the estimate is unbiased and
    even in eps; ``samples`` counts draws, and ``stderr`` is the per-draw
    means' sample standard deviation over sqrt(samples).  At d = 40 and
    k = 2 with eps = -1/(1 + sigma^2), the antithetic pair divides the
    one-sided variance by 1.24 at sigma = 0.3, 1.81 at 0.5, 3.16 at 1, 15.1
    at 2 and 166 at 4, and the lattice divides the pair's by 1.98 at 0.5,
    1.75 at 1, 1.64 at 2 and 1.62 at 4.
    At eps = 0, k = 0 or d <= 2 the value is exact: stderr 0, samples 0,
    and nothing is drawn.
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
        alpha = haar_verblunsky_batch(d, b, rng)
        head, lattice = alpha[:, : d - 3], _lattice_points(alpha[:, d - 3])
        plus, minus = (_lattice_det_power(head, lattice, e, k).sum(axis=0) for e in (eps, -eps))
        return (plus + minus) / (2 * _LATTICE)

    return MomentEstimate.from_values(draw_chunked(draw, samples, _MC_CHUNK))


def check_cell(
    d: int, m: int, k: int, sigma: float, method: str, samples: int
) -> tuple[str, int, int, int]:
    """The regime of one cell for ``method``, with d, m and k as ints, before any work.

    ValueError unless d, m and k are integers (2.0 is taken as 2), k >= 1,
    1 <= m <= d, ``common.check_sigma`` passes and method is "closed" or
    "mc", with samples >= 1 for "mc".  The regime table writes each domain once:

    - case 1, sigma = 0 and k <= m: "closed" is the closed form, "mc" the
      mean of L^2 over ``samples`` null draws, L the likelihood ratio.  Its
      domain is where the second moment is known to be finite (at k = 1 it
      diverges for d < m + 2).
    - case 2, sigma = 0 and k > m: "closed" only.
    - m = d with sigma > 0: "mc" only, E det(I - Q/(1+sigma^2))^{-k} over
      Haar Q on O(d) by ``det_integral_mc``, the Rao-Blackwellized mean over
      Verblunsky draws of antithetic pairs, each averaged over a shifted
      4-point lattice in alpha_{d-3} (the integrand is unbounded at
      sigma = 0).  The value is exact at d <= 2 (stderr 0, samples 0), and a
      sampled estimate at sigma < 1 carries the heavy-tail warning.

    A cell outside its regime's domain or methods raises
    UnsupportedRegimeError naming d, m, k and sigma.
    """
    d, m, k = as_integer("d", d), as_integer("m", m), as_integer("k", k)
    if not (k >= 1 and 1 <= m <= d):
        raise ValueError(f"need k >= 1 and 1 <= m <= d, got d={d}, m={m}, k={k}")
    check_sigma(sigma)
    if method not in ("closed", "mc"):
        raise ValueError(f"method must be 'closed' or 'mc', got {method!r}")
    if method == "mc" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if sigma == 0 and k <= m:
        regime, methods, inside = REGIME_CASE1, ("closed", "mc"), d - m - 2 * k >= k
    elif sigma == 0:
        regime, methods, inside = REGIME_CASE2, ("closed",), d - 3 * k >= m
    else:
        regime, methods, inside = REGIME_M_EQ_D, ("mc",), m == d
    if method not in methods or not inside:
        why = f"{regime} has no {method} evaluator" if inside else f"outside the {regime} domain"
        raise UnsupportedRegimeError(f"d={d}, m={m}, k={k}, sigma={sigma}: {why}")
    return regime, d, m, k


def evaluate(
    d: int, m: int, k: int, sigma: float, method: str, samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ChiSquareReport:
    """Chi-square of the reduced k-row model, after ``check_cell``; "mc" also needs ``rng``."""
    regime, d, m, k = check_cell(d, m, k, sigma, method, samples)
    if method == "closed":
        value = (_case1_closed if regime == REGIME_CASE1 else _case2_closed)(d, m, k)
        return ChiSquareReport(regime, value, "closed_form", d, m, k, 0.0)
    if rng is None:
        raise ValueError("rng is required for the Monte Carlo evaluators")
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
