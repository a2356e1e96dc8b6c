"""Self-test oracles: analytic identities checked against Monte Carlo.

The analytic moment references live here: sphere monomial moments, in
floating point and as exact rationals, Gaussian exponential and
quadratic-form moments, Haar determinant moments, and the density of a
block of a Haar orthogonal matrix.  The detector statistic f on full
sampled instances lives here too, as the reference for the detector's
exact law.  No production route calls them; tests and the checks below do.  SciPy is
imported inside the functions that use it, so importing this module (as
the CLI does to list the checks) loads none of it.

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
from .chisq import ZETA_SLACK, log_wishart_constant
from .common import MomentEstimate, UnsupportedRegimeError, draw_chunked
from .hermite import (
    expand_inner_product, hermite_table, multiindex_enumerate, pattern_pairs, phi_batch,
)
from .model import ModelParams, sample_null_batch, sample_planted_batch
from .randmat import haar_orthogonal_batch, uniform_sphere
from .rng import make_rng

FAMILY_STRICT_LIMIT = 100
FAMILY_P3 = 0.0027  # two-sided 3-sigma exceedance rate
FAMILY_RATE_CAP = 0.005
Z_HARD_CAP = 6.0
PSD_REL_TOL = 1e-10
SYMMETRY_TOL = 1e-10


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


def _log_double_factorial_odd(g: int) -> float:
    """log((g-1)!!) for even g >= 0, via (2s-1)!! = (2s)!/(2^s s!)."""
    from scipy.special import gammaln

    s = g // 2
    return float(gammaln(2 * s + 1) - s * math.log(2.0) - gammaln(s + 1))


def sphere_moment(gamma: Sequence[int], d: int) -> float:
    """E[q^gamma] for q uniform on the unit sphere in R^d.

    Zero when any part is odd; otherwise
    Gamma(d/2) * prod (gamma_i - 1)!! / (Gamma((d+|gamma|)/2) * 2^{|gamma|/2}).
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != d:
        raise ValueError(f"gamma has {len(gamma)} parts, expected d={d}")
    if any(g < 0 for g in gamma):
        raise ValueError("gamma parts must be nonnegative")
    if any(g % 2 for g in gamma):
        return 0.0
    from scipy.special import gammaln

    w = sum(gamma)
    log_val = (
        gammaln(d / 2.0)
        - gammaln((d + w) / 2.0)
        - (w / 2.0) * math.log(2.0)
        + sum(_log_double_factorial_odd(g) for g in gamma)
    )
    return float(math.exp(log_val))


def sphere_moment_exact(gamma: Sequence[int], d: int) -> Fraction:
    """Exact rational value of sphere_moment: prod (g_i-1)!! / prod_{j<|g|/2} (d+2j)."""
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
        log_wishart_constant(d - p, q)
        - log_wishart_constant(d, q)
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
        lambda b: statistic_f(*sampler(params, b, rng)), trials, _INSTANCE_CHUNK
    )


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
                y = uniform_sphere(d, rng)
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
    samples = np.sort(haar_orthogonal_batch(d, draws, rng)[:, 0, 0])
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
