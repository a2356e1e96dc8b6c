"""Self-test oracles: analytic identities checked against Monte Carlo.

The analytic moment references live here: sphere monomial moments, as
exact rationals and rounded once to floating point, Gaussian exponential and
quadratic-form moments, Haar determinant moments with the per-draw
determinant from Verblunsky coefficients and its conditional mean given all
but the last two, and the density of a block of a Haar orthogonal matrix.
So do two chi-square references: the Wishart constant ratio as an exact
product, and the Monte Carlo mean of the case-1 likelihood ratio, which
must be 1.  So do the Hermite references: the
basis functions evaluated on full instances (``phi_batch``), the
inner-product expansion and the joint coefficients for one response
column, in closed form and by Monte Carlo.  The detector statistic f on
full sampled instances lives here too, as the reference for the detector's
exact law, and the advantage estimate from full planted draws is the
reference for the Rao-Blackwellized estimator.  No production route calls
them; tests and the checks below do.  SciPy is imported inside the
functions that use it, so importing this module (as the CLI's ``oracle``
command does) loads none of it.

Each check compares an implemented closed form against an independent
numerical route (Monte Carlo sampling, quadrature, or a pointwise
identity) and returns a CheckResult.  Scalar comparisons use the
3-standard-error rule.  Families of many simultaneous 3-sigma comparisons
cannot demand zero exceedances (a correct implementation of K comparisons
produces about 0.27% of them beyond 3 sigma), so families larger than
FAMILY_STRICT_LIMIT pass when the exceedance count stays within the
3-sigma binomial envelope of that rate and no single z-score exceeds
Z_HARD_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import chisq as chisq_mod
from .advantage import AdvantageEstimate, PatternBreakdown, batch_sizes, jackknife_estimate
from .chisq import ZETA_SLACK, log_wishart_ratio
from .common import MomentEstimate, UnsupportedRegimeError, draw_chunked
from .hermite import (
    PatternStack, hermite_table, multiindex_enumerate, pattern_pairs, slot_products, slot_table,
)
from .model import ModelParams, planted_response, sample_null_batch, sample_planted_batch
from .randmat import qr_sign_fixed
from .rng import make_rng

FAMILY_STRICT_LIMIT = 100
FAMILY_P3 = 0.0027  # two-sided 3-sigma exceedance rate
FAMILY_RATE_CAP = 0.005
Z_HARD_CAP = 6.0
PSD_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
PHI_BLOCK_BYTES = 1 << 19  # phi_batch's per-block product; larger blocks fall out of cache


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    tolerance: float
    detail: str


def family_gate(z: np.ndarray) -> tuple[bool, str]:
    """Pass rule for a family of |z|-scores checked at the 3-sigma level.

    A correct implementation of K comparisons produces roughly 0.27% of
    them beyond 3 sigma, drifting mildly upward for heavy-tailed products
    and fluctuating between seeds well beyond binomial noise because the
    comparisons share samples.  Large families therefore pass when the
    exceedance rate stays under FAMILY_RATE_CAP (about twice the drifted
    nominal rate; any real normalization or law defect produces tens of
    percent) and no single score breaches Z_HARD_CAP.
    """
    z = np.abs(np.asarray(z, dtype=float))
    k = z.size
    viol = int((z > 3.0).sum())
    zmax = float(z.max(initial=0.0))
    if k <= FAMILY_STRICT_LIMIT:
        passed = viol == 0
        detail = f"{k} comparisons, {viol} beyond 3*stderr, max |z|={zmax:.2f}"
        return passed, detail
    allowed = math.floor(k * FAMILY_RATE_CAP)
    passed = viol <= allowed and zmax <= Z_HARD_CAP
    detail = (
        f"{k} comparisons, {viol} beyond 3*stderr "
        f"(nominal {k * FAMILY_P3:.0f}, cap {allowed}), "
        f"max |z|={zmax:.2f} (cap {Z_HARD_CAP})"
    )
    return passed, detail


def _zscore(mean: float, target: float, stderr: float) -> float:
    if stderr == 0.0:
        return 0.0 if mean == target else float("inf")
    return (mean - target) / stderr


# ---------------------------------------------------------------------------
# analytic moment references


def sphere_moment(gamma: Sequence[int], d: int) -> float:
    """E[q^gamma] for q uniform on the unit sphere in R^d: ``sphere_moment_exact`` rounded once."""
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != d:
        raise ValueError(f"gamma has {len(gamma)} parts, expected d={d}")
    if any(g < 0 for g in gamma):
        raise ValueError("gamma parts must be nonnegative")
    return float(sphere_moment_exact(gamma, d))


def sphere_moment_exact(gamma: Sequence[int], d: int) -> Fraction:
    """E[q^gamma] exactly: prod (g_i-1)!! / prod_{j<|g|/2} (d+2j), or 0 if a part is odd."""
    gamma = tuple(int(g) for g in gamma)
    if any(g % 2 for g in gamma):
        return Fraction(0)
    num = 1
    for g in gamma:
        for odd in range(1, g, 2):
            num *= odd
    den = 1
    for j in range(sum(gamma) // 2):
        den *= d + 2 * j
    return Fraction(num, den)


def gaussian_exp_moment(lam: float, A: np.ndarray) -> float:
    """E[exp(-lam ||Z||_F^2 + <A, Z>)] for Z a Gaussian matrix shaped like A.

    Equals (1+2 lam)^{-dm/2} * exp(||A||_F^2 / (2 (1+2 lam))).
    """
    if not lam > 0:
        raise ValueError(f"need lam > 0, got {lam}")
    A = np.asarray(A, dtype=float)
    dm = A.size
    fro2 = float((A * A).sum())
    return float((1.0 + 2.0 * lam) ** (-dm / 2.0) * math.exp(fro2 / (2.0 * (1.0 + 2.0 * lam))))


def gaussian_quadform_moment(A: np.ndarray, k: int) -> float:
    """E[exp(-tr(Z^T A Z))] for Z d x k Gaussian and A symmetric PSD.

    Equals det(I + 2A)^{-k/2}, evaluated through the eigenvalues of A.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if np.max(np.abs(A - A.T)) > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(A)))):
        raise ValueError("A must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] < -PSD_REL_TOL * max(float(eigs[-1]), 0.0):
        raise ValueError(f"A must be PSD, smallest eigenvalue {eigs[0]}")
    eigs = np.clip(eigs, 0.0, None)
    return float(math.exp(-0.5 * k * np.log1p(2.0 * eigs).sum()))


def submatrix_density(Z: np.ndarray, d: int) -> float:
    """Density of the upper-left p x q block of a Haar d x d orthogonal matrix.

    For p >= q (roles are swapped internally otherwise):
    omega(d-p, q) / (omega(d, q) (2 pi)^{pq/2})
        * det(I_q - Z^T Z)^{(d-p-q-1)/2}
    on the set where every eigenvalue of Z^T Z lies in [0, 1]; zero outside.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2:
        raise ValueError(f"Z must be 2-d, got shape {Z.shape}")
    p, q = Z.shape
    if p < q:
        Z = Z.T
        p, q = q, p
    if p + q > d:
        raise UnsupportedRegimeError(f"need p + q <= d, got p={p}, q={q}, d={d}")
    eigs = np.linalg.eigvalsh(Z.T @ Z)
    if eigs[-1] > 1.0 + ZETA_SLACK or eigs[0] < -ZETA_SLACK:
        return 0.0
    clipped = np.clip(eigs, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logdet_gap = float(np.log1p(-clipped).sum())
    log_dens = (
        log_wishart_ratio(d, p, q)
        - (p * q / 2.0) * math.log(2.0 * math.pi)
        + 0.5 * (d - p - q - 1) * logdet_gap
    )
    return float(math.exp(log_dens))


def haar_det_moment(d: int, eps: float, k: int) -> float:
    """Exact E[det(I + eps Q)^k] over Haar Q on O(d), |eps| < 1; ValueError where unknown.

    k <= 0 with |k| <= d: (1 - eps^2)^{-|k|(|k|+1)/2}, by Cauchy's identity, the
    O(d) integral of s_lambda (1{lambda even} for at most d rows) and Littlewood's
    identity; Q and -Q share a law, so the sign of eps does not matter.  k in {1, 2}:
    sum_{j <= (k-1) d} eps^{2j}, by Cauchy's dual identity with lambda = (2^j).
    """
    if int(d) != d or d < 1 or not abs(eps) < 1:
        raise ValueError(f"need an integer d >= 1 and |eps| < 1, got d={d!r}, eps={eps}")
    if int(k) == k and -d <= k <= 0:
        return float((1.0 - eps * eps) ** (-k * (k - 1) / 2))
    if k in (1, 2):
        return float(sum(eps ** (2 * j) for j in range((k - 1) * d + 1)))
    raise ValueError(f"no exact Haar determinant moment for k={k} at d={d}")


def _verblunsky_log_det(alpha: np.ndarray, eps: float) -> np.ndarray:
    """log det(I + eps Q) per row of (size, d) Verblunsky coefficients, |eps| < 1.

    Szego's recursion over all d coefficients, one draw of Q per row: the
    per-draw reference for ``_conditional_det_power``, which integrates the
    last two coefficients out (``chisq`` module docstring).
    """
    z, r, logdet = -eps, 1.0, 0.0
    for a in alpha.T:
        t = a * z * r
        logdet = logdet + np.log1p(-t)
        r = (z * r - a) / (1.0 - t)
    return logdet


def _conditional_det_power(head: np.ndarray, eps: float, k: int) -> np.ndarray:
    """E[det(I + eps Q)^k | alpha_0..alpha_{d-3}] per row of head = (size, d - 2) coefficients.

    Szego's product over alpha_0..alpha_{d-3}, then the last two coefficients
    integrated out in closed form (``chisq`` module docstring); |eps| < 1,
    integer k.  The reference for ``chisq._lattice_det_power``, which puts
    each lattice point in place of alpha_{d-3}.
    """
    return chisq_mod._last_two_mean(*chisq_mod._szego_product(head.T, -eps), -eps, k)


# ---------------------------------------------------------------------------
# chi-square references


def wishart_ratio_exact(d: int, k: int) -> float:
    """The 2k-step Wishart constant ratio as an exact telescoping product.

    Returns 2^{k^2} * prod_{j=1..k} prod_{i=1..k} ((d - j + 1)/2 - i),
    evaluated in log space.  Under ``chisq``'s omega convention this is
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
    return MomentEstimate.from_values(chisq_mod._case1_lr_power(d, m, k, samples, rng, 1.0))


# ---------------------------------------------------------------------------
# basis functions on full instances, and joint coefficients for one response column

MultiIndex = Sequence[int]


def multinomial_exact(total: int, alpha: MultiIndex) -> int:
    """total! / prod(alpha_i!) as an exact integer; requires |alpha| = total."""
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out


def sqrt_multinomial(total: int, alpha: MultiIndex) -> float:
    """sqrt(total!/prod(alpha_i!)), the exact integer rounded once by the square root."""
    return math.sqrt(multinomial_exact(total, alpha))


def phi_batch(patterns: PatternStack, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate a stack of basis functions on a stack of instances.

    X has shape (S, n, d) and Y (S, n, m); the result is a C-contiguous (S, K)
    array, one column per pattern in stack order: ``slot_products`` of the
    patterns' slot degrees on the ``slot_table`` of (X, Y), over sample
    blocks whose (K, block) product stays in cache.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if patterns.A.shape[1:] != X.shape[1:] or patterns.B.shape[1:] != Y.shape[1:]:
        raise ValueError(f"pattern shapes do not match instance shapes {X.shape}/{Y.shape}")
    degs = patterns.slot_degrees
    table = slot_table(X, Y, int(degs.max(initial=0)))
    S = table.shape[2]
    out = np.empty((S, len(patterns)))  # C order: numpy sums a contiguous axis pairwise
    step = max(1, PHI_BLOCK_BYTES // (8 * len(patterns)))
    for lo in range(0, S, step):
        out[lo : lo + step] = slot_products(degs, table[:, :, lo : lo + step]).T
    return out


@dataclass
class CoeffTable:
    """Sparse coefficient table keyed by multi-index."""

    dimension: int
    entries: dict[tuple[int, ...], float]

    def l2_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.entries.values()))

    def evaluate(self, x: Sequence[float]) -> float:
        """Sum of coeff(alpha) * h_alpha(x), h_alpha the product of h_{alpha_i}(x_i)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"x must have shape ({self.dimension},), got {x.shape}")
        table = hermite_table(x, max(map(sum, self.entries), default=0))
        cols = np.arange(self.dimension)
        return float(sum(c * math.prod(table[alpha, cols]) for alpha, c in self.entries.items()))


def expand_inner_product(y: Sequence[float], degree: int) -> CoeffTable:
    """Hermite expansion of z -> h_degree(<x, y>) for a unit vector y.

    Returns the table {alpha: sqrt(degree!/prod alpha_i!) * y^alpha} over
    |alpha| = degree, so that h_degree(<x, y>) = sum coeff(alpha) h_alpha(x)
    for every x.  The coefficient vector has unit l2 norm for every unit y.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    d = len(y)
    entries = {
        tuple(alpha): lambda_m1_closed(alpha, degree, y)
        for alpha in multiindex_enumerate(d, degree)
        if sum(alpha) == degree
    }
    return CoeffTable(dimension=d, entries=entries)


def lambda_m1_closed(alpha: MultiIndex, beta: int, q: Sequence[float]) -> float:
    """Closed-form joint coefficient for one response column, zero noise.

    Equals 1{|alpha| = beta} * sqrt(multinomial(beta, alpha)) * q^alpha for a
    unit vector q.
    """
    q = np.asarray(q, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != q.shape[0]:
        raise ValueError("dimension mismatch between alpha and q")
    if abs(np.linalg.norm(q) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"q must be a unit vector, got norm {np.linalg.norm(q)!r}")
    if sum(alpha) != beta:
        return 0.0
    return sqrt_multinomial(beta, alpha) * float(np.prod(q ** np.asarray(alpha)))


def lambda_mc_pairs(
    pairs: Sequence[tuple[MultiIndex, MultiIndex]],
    Q: np.ndarray,
    sigma: float,
    samples: int,
    rng: np.random.Generator,
) -> list[MomentEstimate]:
    """Joint coefficients E[h_alpha(U) h_beta((UQ + sigma V)/sqrt(1+sigma^2))].

    All pairs share one (U, V) sample batch (common random numbers), which
    keeps cross-pair comparisons low-variance while each estimate stays
    unbiased.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    Q = np.asarray(Q, dtype=float)
    d, m = Q.shape
    A = np.array([alpha for alpha, _ in pairs], dtype=int)
    B = np.array([beta for _, beta in pairs], dtype=int)
    if A.shape != (len(pairs), d) or B.shape != (len(pairs), m):
        raise ValueError(f"pair dims do not match Q shape {(d, m)}")
    patterns = PatternStack(A[:, None, :], B[:, None, :])
    U = rng.standard_normal((samples, d))
    V = rng.standard_normal((samples, m))
    W = planted_response(U, Q, V, sigma)
    vals = phi_batch(patterns, U[:, None, :], W[:, None, :])
    return [
        MomentEstimate(value=1.0, stderr=0.0, samples=0)
        if degree == 0
        else MomentEstimate.from_values(vals[:, j])
        for j, degree in enumerate(patterns.degrees)
    ]


# ---------------------------------------------------------------------------
# the detector statistic on full instances

_INSTANCE_CHUNK = 512


def statistic_f(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(||Y||_F^2 - ||X||_F^2)^2 over the last two axes: one value per instance of a stack."""
    diff = np.einsum("...ij,...ij->...", Y, Y) - np.einsum("...ij,...ij->...", X, X)
    return diff**2


def sample_f_instances(
    params: ModelParams, hypothesis: str, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """f on ``trials`` full instances from the model's batch samplers.

    The reference route for ``detect._sample_f``, which draws f from its
    exact law in three chi-squares instead of building X and Y.
    """
    sampler = sample_null_batch if hypothesis == "null" else sample_planted_batch
    return draw_chunked(
        lambda b: statistic_f(*sampler(params, b, rng)[:2]), trials, _INSTANCE_CHUNK
    )


# ---------------------------------------------------------------------------
# the advantage on full planted draws


def advantage_sq_planted_mc(
    params: ModelParams, D: int, samples: int, rng: np.random.Generator
) -> tuple[AdvantageEstimate, PatternBreakdown]:
    """The squared degree-D advantage averaged over full planted draws.

    The reference route for ``advantage.advantage_sq_with_patterns``: each
    jackknife batch draws X, the permutation, Q and the noise by
    ``model.sample_planted_batch`` and evaluates every pattern on (X, Y) by
    ``phi_batch``, with no conditional mean taken.  The per-pattern
    means estimate the same planted means, so the two routes agree in
    expectation; this one has the larger variance.  Memory holds one batch's
    (batch size, K) basis matrix.
    """
    if samples < 3:
        raise ValueError(f"samples must be >= 3, got {samples}")
    patterns = pattern_pairs(params.n, params.d, params.m, D)
    sizes = batch_sizes(samples)
    sums = np.empty((len(sizes), 2, len(patterns)))
    for b, size in enumerate(sizes):
        X, Y, *_ = sample_planted_batch(params, size, rng)
        vals = phi_batch(patterns, X, Y)
        sums[b] = vals.sum(axis=0), (vals * vals).sum(axis=0)
    return jackknife_estimate(D, patterns.degrees, sums, sizes, np.arange(len(patterns)))


# ---------------------------------------------------------------------------
# individual checks


def check_inner_expansion(seed: int = 0) -> CheckResult:
    """Pointwise identity: h_deg(<x, y>) equals its Hermite expansion in x."""
    rng = make_rng(seed, 0)
    tol = 1e-9
    worst = 0.0
    for d in (2, 3):
        for deg in range(1, 6):
            for _ in range(100):
                g = rng.standard_normal(d)
                y = g / np.linalg.norm(g)
                x = rng.standard_normal(d)
                lhs = float(hermite_table(x @ y, deg)[deg])
                rhs = expand_inner_product(y, deg).evaluate(x)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return CheckResult(
        name="inner-expansion",
        passed=worst <= tol,
        observed=worst,
        tolerance=tol,
        detail="max relative error over 100 points per (d, degree) in {2,3}x{1..5}",
    )


def check_sphere(seed: int = 0, draws: int = 100_000, max_weight: int = 6) -> CheckResult:
    """Uniform-sphere monomial moments vs the closed form, d in {2, 3, 8}."""
    zs = []
    for stream, d in enumerate((2, 3, 8)):
        rng = make_rng(seed, stream)
        pts = rng.standard_normal((draws, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        powers = [np.ones((draws,))]
        pow_table = [
            np.stack([pts[:, c] ** e for e in range(max_weight + 1)], axis=1)
            for c in range(d)
        ]
        for gamma in multiindex_enumerate(d, max_weight):
            if sum(gamma) == 0:
                continue
            vals = powers[0]
            for c, e in enumerate(gamma):
                if e:
                    vals = vals * pow_table[c][:, e]
            est = MomentEstimate.from_values(vals)
            zs.append(_zscore(est.value, sphere_moment(gamma, d), est.stderr))
    passed, detail = family_gate(np.asarray(zs))
    return CheckResult(
        name="sphere",
        passed=passed,
        observed=float(np.max(np.abs(zs))),
        tolerance=3.0,
        detail=detail,
    )


def _submatrix_density_1x1(d: int):
    def dens(z: float) -> float:
        return submatrix_density(np.array([[z]]), d)

    return dens


def check_submatrix_density(seed: int = 0, draws: int = 5000) -> CheckResult:
    """Haar entry law vs the 1 x 1 submatrix density: KS and normalization."""
    from scipy.integrate import cumulative_trapezoid, quad

    d = 10
    # normalization by quadrature
    norm_err = 0.0
    for dd in (4, 10):
        integral, _ = quad(_submatrix_density_1x1(dd), -1.0, 1.0, limit=200)
        norm_err = max(norm_err, abs(integral - 1.0))
    # KS distance of sampled Q[0, 0] against the quadrature CDF
    rng = make_rng(seed, 0)
    samples = np.sort(qr_sign_fixed(rng.standard_normal((draws, d, d)))[:, 0, 0])
    grid = np.linspace(-1.0, 1.0, 20001)
    pdf = np.array([_submatrix_density_1x1(d)(z) for z in grid])
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    f_at = np.interp(samples, grid, cdf)
    i = np.arange(1, draws + 1)
    ks = float(np.max(np.maximum(np.abs(i / draws - f_at), np.abs((i - 1) / draws - f_at))))
    ks_tol, norm_tol = 0.03, 1e-6
    passed = ks <= ks_tol and norm_err <= norm_tol
    return CheckResult(
        name="submatrix-density",
        passed=passed,
        observed=ks,
        tolerance=ks_tol,
        detail=f"KS({draws} draws, d={d})={ks:.4f}; normalization error={norm_err:.2e}",
    )


def check_gaussian_exp(seed: int = 0, draws: int = 200_000) -> CheckResult:
    """Gaussian exponential-moment closed form vs Monte Carlo."""
    rng = make_rng(seed, 0)
    d, m, lam = 2, 2, 0.3
    A = rng.standard_normal((d, m))
    target = gaussian_exp_moment(lam, A)
    Z = rng.standard_normal((draws, d, m))
    vals = np.exp(-lam * np.einsum("sij,sij->s", Z, Z) + np.einsum("ij,sij->s", A, Z))
    est = MomentEstimate.from_values(vals)
    z = _zscore(est.value, target, est.stderr)
    return CheckResult(
        name="gauss-exp",
        passed=abs(z) <= 3.0,
        observed=abs(z),
        tolerance=3.0,
        detail=f"mc={est.value:.6f} closed={target:.6f} stderr={est.stderr:.2e}",
    )


def check_gaussian_quad(seed: int = 0, draws: int = 200_000) -> CheckResult:
    """Gaussian quadratic-form moment closed form vs Monte Carlo."""
    rng = make_rng(seed, 0)
    d, k = 3, 2
    G = rng.standard_normal((d, d))
    A = G @ G.T / d
    target = gaussian_quadform_moment(A, k)
    Z = rng.standard_normal((draws, d, k))
    vals = np.exp(-np.einsum("sik,ij,sjk->s", Z, A, Z))
    est = MomentEstimate.from_values(vals)
    z = _zscore(est.value, target, est.stderr)
    return CheckResult(
        name="gauss-quad",
        passed=abs(z) <= 3.0,
        observed=abs(z),
        tolerance=3.0,
        detail=f"mc={est.value:.6f} closed={target:.6f} stderr={est.stderr:.2e}",
    )


def check_det_integral(seed: int = 0, draws: int = 100_000) -> CheckResult:
    """Haar determinant integral vs its exact value, inside the 2*eps*k envelope of 1."""
    d, eps, k = 50, 0.1, 2
    est = chisq_mod.det_integral_mc(d, eps, k, draws, make_rng(seed, 0))
    exact = haar_det_moment(d, eps, k)
    z = abs(_zscore(est.value, exact, est.stderr))
    z_tol, envelope = 4.0, 2.0 * eps * k
    dev = abs(est.value - 1.0)
    return CheckResult(
        name="det-integral",
        passed=z <= z_tol and dev <= envelope,
        observed=z,
        tolerance=z_tol,
        detail=f"estimate={est.value:.5f} stderr={est.stderr:.2e} exact={exact:.6f}; "
        f"|estimate - 1|={dev:.2e} (envelope {envelope:g}) at (d={d}, eps={eps}, k={k})",
    )


def orthonormality_gram(seed: int, samples: int = 1_000_000) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo null Gram matrix, with stderrs, of the degree <= 4 basis at n=2, d=m=2."""
    n, d, m, chunk = 2, 2, 2, 20_000
    patterns = pattern_pairs(n, d, m, 4)
    K = len(patterns)
    rng = make_rng(seed, 0)
    G = np.zeros((K, K))
    M2 = np.zeros((K, K))
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        X = rng.standard_normal((b, n, d))
        Y = rng.standard_normal((b, n, m))
        vals = phi_batch(patterns, X, Y)
        G += vals.T @ vals
        sq = vals * vals
        M2 += sq.T @ sq
        done += b
    G /= samples
    M2 /= samples
    var = np.maximum(M2 - G * G, 0.0)
    stderr = np.sqrt(var / samples)
    return G, stderr


def check_orthonormality(seed: int = 0, samples: int = 1_000_000) -> CheckResult:
    """Null Gram matrix of the degree <= 4 basis at n=2, d=m=2 is the identity."""
    G, stderr = orthonormality_gram(seed, samples=samples)
    K = G.shape[0]
    dev = G - np.eye(K)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, dev / stderr, np.where(dev == 0.0, 0.0, np.inf))
    passed, detail = family_gate(z.ravel())
    return CheckResult(
        name="orthonormality",
        passed=passed,
        observed=float(np.max(np.abs(z))),
        tolerance=3.0,
        detail=f"{K}x{K} Gram, max |G - I|={np.max(np.abs(dev)):.2e}; " + detail,
    )


ORACLE_CHECKS = {
    "inner-expansion": check_inner_expansion,
    "sphere": check_sphere,
    "submatrix-density": check_submatrix_density,
    "gauss-exp": check_gaussian_exp,
    "gauss-quad": check_gaussian_quad,
    "det-integral": check_det_integral,
    "orthonormality": check_orthonormality,
}


def run_checks(names: list[str], seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        if name not in ORACLE_CHECKS:
            raise KeyError(name)
        results.append(ORACLE_CHECKS[name](seed=seed))
    return results
