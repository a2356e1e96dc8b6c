import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_within_nse, mean_and_stderr
from scipy.stats import ks_2samp

from shufflab import chisq, make_rng
from shufflab.chisq import (
    _MC_CHUNK,
    _bartlett_factor,
    _case1_lr_power,
    _case2_closed,
    _conditional_det_power,
    _LATTICE,
    _lattice_det_power,
    _lattice_points,
    _lr_log_const,
    _reduced_log_likelihood,
    REGIME_CASE1,
    REGIME_CASE2,
    REGIME_M_EQ_D,
    check_cell,
    det_integral_mc,
    evaluate,
    log_wishart_ratio,
)
from shufflab.common import MomentEstimate, UnsupportedRegimeError, draw_chunked
from shufflab.oracles import (
    _verblunsky_log_det,
    gaussian_exp_moment,
    gaussian_quadform_moment,
    haar_det_moment,
    likelihood_ratio_case1_mc_mean,
    sphere_moment,
    submatrix_density,
    wishart_ratio_exact,
)
from shufflab.randmat import haar_verblunsky_batch, qr_sign_fixed

# ---------------------------------------------------------------------------
# Wishart constants


def test_log_wishart_ratio_values():
    # omega(48, 1) / omega(50, 1) = 2 Gamma(25) / Gamma(24) = 48
    assert math.isclose(log_wishart_ratio(50, 2, 1), math.log(48.0), rel_tol=1e-15)
    # omega(1, 1) / omega(2, 1) = 2 / sqrt(2 pi): one half-integer Gamma left over
    assert math.isclose(log_wishart_ratio(2, 1, 1), 0.5 * math.log(2 / math.pi), rel_tol=1e-15)
    assert log_wishart_ratio(7, 0, 3) == 0.0
    assert math.isfinite(log_wishart_ratio(10_000, 3, 3))


def test_log_wishart_ratio_validation():
    for s, h, t in ((3, 2, 2), (5, 1, 0), (5, -1, 1)):
        with pytest.raises(ValueError, match="need t >= 1, h >= 0 and s - h >= t"):
            log_wishart_ratio(s, h, t)


def test_wishart_ratio_exact_small():
    assert math.isclose(wishart_ratio_exact(10, 1), 8.0, rel_tol=1e-12)


def test_wishart_ratio_product_matches_exact_log_ratio():
    # the product oracle equals omega(d - 2k, k) / omega(d, k)
    for d, k in ((10, 1), (30, 2), (100, 5), (2000, 2), (5000, 3)):
        via_log = math.exp(log_wishart_ratio(d, 2 * k, k))
        assert math.isclose(wishart_ratio_exact(d, k), via_log, rel_tol=1e-12)


def test_wishart_ratio_asymptotics():
    d, k = 2000, 2
    assert abs(wishart_ratio_exact(d, k) / d ** (k * k) - 1.0) <= 0.02


def test_wishart_ratio_validation():
    with pytest.raises(ValueError):
        wishart_ratio_exact(6, 2)  # d <= 3k


# ---------------------------------------------------------------------------
# closed forms


def test_case1_exact_value():
    report = evaluate(50, 2, 1, 0.0, "closed")
    assert report.value == 24 / 23
    assert report.regime == "case1_sigma0" and report.method == "closed_form"


def test_case2_exact_value():
    report = evaluate(40, 1, 2, 0.0, "closed")
    assert report.value == 38 / 35
    assert report.regime == "case2_sigma0" and report.method == "closed_form"


def _gamma_half(n: int) -> tuple[Fraction, int]:
    """Gamma(n/2) = value * sqrt(pi)^odd, from factorials."""
    if n % 2 == 0:
        return Fraction(math.factorial(n // 2 - 1)), 0
    j = n // 2  # Gamma(j + 1/2) = (2j)! sqrt(pi) / (4^j j!)
    return Fraction(math.factorial(2 * j), 4**j * math.factorial(j)), 1


def _omega_exact(*factors: tuple[int, int, int]) -> Fraction:
    """prod over (s, t, e) of omega(s, t)^e, exactly; its pi and 2 exponents must cancel.

    1/omega(s, t) = pi^{t(t-1)/4} 2^{st/2} prod_{j=1..t} Gamma((s-j+1)/2), Gamma by Gamma.
    """
    value, pi_quarters, two_halves = Fraction(1), 0, 0
    for s, t, e in factors:
        inverse, pi_exp = Fraction(1), t * (t - 1)
        for j in range(1, t + 1):
            gamma, odd = _gamma_half(s - j + 1)
            inverse, pi_exp = inverse * gamma, pi_exp + 2 * odd
        value = value / inverse**e
        pi_quarters, two_halves = pi_quarters - e * pi_exp, two_halves - e * s * t
    assert pi_quarters == 0 and two_halves % 2 == 0
    return value * Fraction(2) ** (two_halves // 2)


def _omega_product(*factors: tuple[int, int, int]) -> float:
    """``_omega_exact`` rounded once."""
    return float(_omega_exact(*factors))


def _case2_exact(d: int, m: int, k: int) -> Fraction:
    # [omega(d-k, m)/omega(d, m)]^2 * [omega(d, k)/omega(d-m, k)]
    #     * [omega(d-k-1, m)/omega(d-2k-1, m)]
    return _omega_exact(
        (d - k, m, 2), (d, m, -2), (d, k, 1), (d - m, k, -1),
        (d - k - 1, m, 1), (d - 2 * k - 1, m, -1),
    )


@pytest.mark.parametrize("d, m, k", [
    (10, 1, 1), (11, 2, 1), (12, 3, 2), (50, 2, 1), (51, 3, 3), (300, 4, 2),
    (1001, 5, 3), (5000, 2, 2), (9999, 3, 2), (10_000, 1, 1), (10_000, 2, 1), (10_001, 2, 1),
])
def test_case1_closed_is_the_rounded_rational(d, m, k):
    # [omega(d-m, k)/omega(d, k)] * [omega(d-k-1, k)/omega(d-m-k-1, k)]
    want = _omega_product((d - m, k, 1), (d, k, -1), (d - k - 1, k, 1), (d - m - k - 1, k, -1))
    assert evaluate(d, m, k, 0.0, "closed").value == want


@pytest.mark.parametrize("d, m, k", [
    (10, 1, 2), (40, 1, 2), (41, 2, 3), (100, 1, 4), (999, 2, 5), (5000, 3, 4),
    (10_000, 1, 2), (10_001, 2, 3), (620, 10, 200),  # 9.9023002645879202e+219
])
def test_case2_closed_is_the_rounded_rational(d, m, k):
    assert evaluate(d, m, k, 0.0, "closed").value == float(_case2_exact(d, m, k))


def _log_omega(s: int, t: int) -> float:
    """log omega(s, t) by math.lgamma, a route apart from the exact ratios."""
    gammas = sum(math.lgamma((s - j + 1) / 2) for j in range(1, t + 1))
    return -(t * (t - 1) / 4 * math.log(math.pi) + s * t / 2 * math.log(2.0) + gammas)


@pytest.mark.parametrize("d, m, k", [(620, 20, 200), (1210, 10, 400), (2405, 5, 800)])
def test_closed_form_above_the_largest_double_reads_inf(d, m, k):
    # inside case 2's domain (d - 3k = m), with a value near 2**1500, far above the largest
    # double: IEEE round-to-nearest gives +inf, where int / int raises OverflowError
    assert d - 3 * k == m
    log_value = (
        2 * _log_omega(d - k, m) - 2 * _log_omega(d, m) + _log_omega(d, k) - _log_omega(d - m, k)
        + _log_omega(d - k - 1, m) - _log_omega(d - 2 * k - 1, m)
    )
    assert log_value > 1400 * math.log(2.0)
    if d == 620:  # the smallest cell, exactly: past the midpoint of the largest double and 2**1024
        assert _case2_exact(d, m, k) >= 2**1024 - 2**970
    report = evaluate(d, m, k, 0.0, "closed")
    assert report.value == math.inf and report.regime == REGIME_CASE2


def test_case1_asymptotic_form():
    d, m, k = 5000, 2, 1
    target = (d / (d - m)) ** (k * k)
    assert abs(evaluate(d, m, k, 0.0, "closed").value / target - 1.0) <= 1e-3


def test_case1_monotone_to_one_in_d():
    values = [evaluate(d, 2, 1, 0.0, "closed").value for d in (50, 100, 1000, 10_000)]
    assert all(v > 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    assert values[-1] - 1.0 < 1e-3


def test_case1_regime_validation():
    assert evaluate(50, 1, 2, 0.0, "closed").regime == REGIME_CASE2  # k > m is case 2
    for method in ("closed", "mc"):
        with pytest.raises(UnsupportedRegimeError):
            evaluate(6, 4, 1, 0.0, method, 100, make_rng(0))  # d - m - 2k < k


def test_case2_asymptotic_form():
    d, m, k = 5000, 1, 2
    target = (d * d / ((d - m) * (d - 3 * k))) ** (m * k / 2)
    report = evaluate(d, m, k, 0.0, "closed")
    assert report.value >= 1.0
    assert abs(report.value / target - 1.0) <= 5e-3


def test_case2_regime_validation():
    assert evaluate(50, 3, 2, 0.0, "closed").regime == REGIME_CASE1  # m > k is case 1
    with pytest.raises(UnsupportedRegimeError):
        evaluate(6, 1, 2, 0.0, "closed")  # d - 3k < m


def test_case2_matches_sphere_overlap_quadrature():
    # independent oracle at m = 1, zero noise: summing the squared basis
    # means over all patterns telescopes, per row, into a geometric series
    # in the overlap of two independent sphere draws q, q', giving
    # chi^2(k rows) = E[(1 - <q, q'>)^{-k}], a one-dimensional integral.
    from scipy.integrate import quad as _quad

    for d, k in ((8, 2), (12, 2), (12, 3), (20, 2), (50, 1)):
        norm, _ = _quad(lambda t: (1 - t * t) ** ((d - 3) / 2), -1, 1)
        oracle, err = _quad(
            lambda t: (1 - t) ** (-k) * (1 - t * t) ** ((d - 3) / 2) / norm,
            -1, 1, limit=400,
        )
        got = evaluate(d, 1, k, 0.0, "closed").value
        assert math.isclose(got, oracle, rel_tol=1e-7), (d, k, got, oracle)


def test_case2_mc_dual_route():
    # E_Q[L^2] for the tall case (m < k) via the shared likelihood kernel
    d, m, k, samples = 30, 1, 2, 200_000
    rng = make_rng(71)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        b = min(8192, samples - done)
        X = rng.standard_normal((b, k, d))
        Y = rng.standard_normal((b, k, m))
        A = X @ np.swapaxes(X, -2, -1)
        log_l = _reduced_log_likelihood(np.linalg.cholesky(A), Y, d, _lr_log_const(d, m, k))
        vals[done : done + b] = np.where(np.isneginf(log_l), 0.0, np.exp(2.0 * log_l))
        done += b
    closed = evaluate(d, m, k, 0.0, "closed").value
    assert_within_nse(vals.mean(), vals.std(ddof=1) / math.sqrt(samples), closed,
                      label="case2 (30,1,2)")


def test_case_overlap_at_k_eq_m():
    # both closed forms are the same rational at k = m, each rounded once
    for d in (30, 50, 200):
        v1 = evaluate(d, 1, 1, 0.0, "closed").value
        v2 = _case2_closed(d, 1, 1)  # evaluate routes k = m to case 1
        assert v1 == v2
    assert evaluate(200, 3, 3, 0.0, "closed").value == _case2_closed(200, 3, 3)


# ---------------------------------------------------------------------------
# likelihood ratio and Monte Carlo cross-checks


def test_likelihood_ratio_outside_support_is_zero():
    A = np.eye(1)
    Y = np.array([[2.0, 0.0]])  # Y^T A^{-1} Y has eigenvalue 4 > 1
    L = np.linalg.cholesky(A)[None]
    log_l = _reduced_log_likelihood(L, Y[None], 50, _lr_log_const(50, 2, 1))
    assert np.exp(log_l[0]) == 0.0


def _eigh_log_likelihood(A: np.ndarray, Y: np.ndarray, d: int) -> np.ndarray:
    """Reference: the likelihood kernel on A itself, through eigh(A) and A^{-1/2}.

    This is the route _reduced_log_likelihood took before it worked on the
    Cholesky factor of A.
    """
    k = A.shape[-1]
    m = Y.shape[-1]
    w, v = np.linalg.eigh(A)
    inv_sqrt = (v * (w[..., None, :] ** -0.5)) @ np.swapaxes(v, -2, -1)
    M = inv_sqrt @ Y
    eigs = np.linalg.eigvalsh(M @ np.swapaxes(M, -2, -1))
    inside = eigs[..., -1] <= 1.0 + 1e-12
    with np.errstate(divide="ignore"):
        logdet_gap = np.log1p(-np.clip(eigs, 0.0, 1.0)).sum(axis=-1)
    log_l = (
        _lr_log_const(d, m, k)
        + 0.5 * np.einsum("...ij,...ij->...", Y, Y)
        + 0.5 * (d - k - m - 1) * logdet_gap
        - 0.5 * m * np.log(w).sum(axis=-1)
    )
    return np.where(inside, log_l, -np.inf)


def _xxt_draw(d: int, m: int, k: int, size: int, rng: np.random.Generator):
    """Reference: (A, Y) from a full k x d Gaussian design, A = X X^T, as the
    case-1 Monte Carlo drew them before Bartlett factors (X block, then Y block)."""
    X = rng.standard_normal((size, k, d))
    Y = rng.standard_normal((size, k, m))
    return X @ np.swapaxes(X, -2, -1), Y


def _xxt_lr_power(d, m, k, samples, rng, power):
    def draw(b):
        log_l = _eigh_log_likelihood(*_xxt_draw(d, m, k, b, rng), d)
        return np.where(np.isneginf(log_l), 0.0, np.exp(power * log_l))

    return draw_chunked(draw, samples, _MC_CHUNK)


def test_xxt_reference_is_the_former_route():
    # the case-1 Monte Carlo at (d, m, k) = (50, 2, 2), 5000 draws on make_rng(97),
    # before Bartlett factors, with the exact likelihood-ratio constant
    est = MomentEstimate.from_values(_xxt_lr_power(50, 2, 2, 5000, make_rng(97), 2.0))
    assert (est.value, est.stderr) == (1.1110368111108022, 0.01413808294390738)


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
def test_cholesky_kernel_matches_eigh_route(k, m):
    rng = make_rng(98, 10 * k + m)
    d, n = 12 + 3 * k + m, 400
    G = rng.standard_normal((n, k, k))
    A = G @ np.swapaxes(G, -2, -1) + 4.0 * np.eye(k)
    Y = 1.2 / math.sqrt(m) * rng.standard_normal((n, k, m))
    want = _eigh_log_likelihood(A, Y, d)
    got = _reduced_log_likelihood(np.linalg.cholesky(A), Y, d, _lr_log_const(d, m, k))
    assert 0 < np.isneginf(want).sum() < n  # both sides of the support are hit
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    # 1e-12 relative, absolute near log L = 0; log(1 - eig) near the support edge amplifies rounding
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_cholesky_kernel_outside_support_is_zero():
    A = np.array([[4.0, 1.0], [1.0, 2.0]])
    Y = np.array([[3.0, 0.0], [0.0, 0.1]])  # (A^{-1/2} Y)(A^{-1/2} Y)^T has eigenvalue > 1
    assert _eigh_log_likelihood(A, Y, 20) == -np.inf
    L = np.linalg.cholesky(A)[None]
    log_l = _reduced_log_likelihood(L, Y[None], 20, _lr_log_const(20, 2, 2))
    assert np.exp(log_l[0]) == 0.0


@pytest.mark.parametrize("d, k, m", [(50, 1, 2), (50, 2, 2), (10, 3, 3)])
def test_bartlett_law_matches_xxt_route(d, k, m):
    # two-sample KS of log det A and of log L (ties at -inf off the support)
    n = 3000
    rng = make_rng(99, 100 * d + k)
    L = _bartlett_factor(d, k, n, rng)
    Y = rng.standard_normal((n, k, m))
    fast_logdet = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    fast_log_l = _reduced_log_likelihood(L, Y, d, _lr_log_const(d, m, k))
    A, Y = _xxt_draw(d, m, k, n, make_rng(100, 100 * d + k))
    slow_logdet = np.linalg.slogdet(A)[1]
    slow_log_l = _eigh_log_likelihood(A, Y, d)
    assert ks_2samp(fast_logdet, slow_logdet).pvalue >= 1e-3
    assert ks_2samp(fast_log_l, slow_log_l).pvalue >= 1e-3


def test_bartlett_factor_wishart_moments():
    # A = L L^T ~ Wishart_k(d, I): E[A] = d I, and E[A_ij^2] = d off the diagonal
    d, k, n = 10, 3, 20_000
    L = _bartlett_factor(d, k, n, make_rng(101))
    assert np.array_equal(L, np.tril(L)) and (np.diagonal(L, axis1=1, axis2=2) > 0).all()
    A = L @ np.swapaxes(L, -2, -1)
    for i in range(k):
        for j in range(k):
            mean, se = mean_and_stderr(A[:, i, j])
            assert_within_nse(mean, se, d if i == j else 0.0, n=4.0, label=f"E[A_{i}{j}]")
            if i != j:
                mean, se = mean_and_stderr(A[:, i, j] ** 2)
                assert_within_nse(mean, se, d, n=4.0, label=f"E[A_{i}{j}^2]")


def test_case1_mc_k1_takes_no_eigendecomposition(monkeypatch):
    # a 1 x 1 Gram is its own eigenvalue; the bits are those of the former eigvalsh route
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a 1 x 1 Gram")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    report = evaluate(50, 2, 1, 0.0, "mc", 5000, make_rng(71))
    want = ("0x1.07d25d48e891ap+0", "0x1.9f426c8e97d10p-8")
    assert (report.value.hex(), report.stderr.hex()) == want


def test_case1_mc_stream_spans_two_chunks():
    # per chunk: the (b, k) diagonal chi-squares, the (b, 1) below-diagonal
    # normals, then the (b, k, m) block of Y
    d, m, k, samples = 20, 3, 2, _MC_CHUNK + 3
    rng = make_rng(102)
    parts = []
    for b in (_MC_CHUNK, 3):
        L = np.zeros((b, k, k))
        chi2 = rng.chisquare([d, d - 1], size=(b, k))
        L[:, 0, 0], L[:, 1, 1] = np.sqrt(chi2[:, 0]), np.sqrt(chi2[:, 1])
        L[:, 1, 0] = rng.standard_normal((b, 1))[:, 0]
        Y = rng.standard_normal((b, k, m))
        parts.append(np.exp(2.0 * _reduced_log_likelihood(L, Y, d, _lr_log_const(d, m, k))))
    want = np.concatenate(parts)
    got = _case1_lr_power(d, m, k, samples, make_rng(102), 2.0)
    assert np.array_equal(got, want)
    report = evaluate(d, m, k, 0.0, "mc", samples, make_rng(102))
    assert report.value == MomentEstimate.from_values(want).value


def case1_mc(d, m, k, samples, rng):
    return evaluate(d, m, k, 0.0, "mc", samples, rng)


@pytest.mark.parametrize(
    "estimator, d, m, k",
    [
        (case1_mc, 2, 2, 1),  # no density: d - m < k
        (case1_mc, 3, 2, 1),  # E[L^2] diverges at k = 1, d < m + 2
        (case1_mc, 7, 2, 2),  # d - m - 2k < k, outside the closed form
        (likelihood_ratio_case1_mc_mean, 2, 2, 1),
        (likelihood_ratio_case1_mc_mean, 3, 2, 2),
    ],
)
def test_case1_mc_rejects_out_of_domain_before_any_draw(estimator, d, m, k):
    rng = make_rng(103)
    before = rng.bit_generator.state
    with pytest.raises(UnsupportedRegimeError):
        estimator(d, m, k, 100, rng)
    assert rng.bit_generator.state == before


def test_likelihood_ratio_integrates_to_one():
    for d, k, m, seed in ((30, 1, 1, 60), (50, 2, 2, 61)):
        est = likelihood_ratio_case1_mc_mean(d, m, k, 60_000, make_rng(seed))
        assert_within_nse(est.value, est.stderr, 1.0, label=f"E[L] at (d={d},k={k},m={m})")


def test_case1_mc_matches_closed_form():
    closed = evaluate(50, 2, 1, 0.0, "closed").value
    mc = evaluate(50, 2, 1, 0.0, "mc", 100_000, make_rng(62))
    assert_within_nse(mc.value, mc.stderr, closed, label="case1 (50,2,1)")
    assert mc.value >= 1.0 - 3 * mc.stderr

    closed22 = evaluate(50, 2, 2, 0.0, "closed").value
    mc22 = evaluate(50, 2, 2, 0.0, "mc", 100_000, make_rng(63))
    assert_within_nse(mc22.value, mc22.stderr, closed22, label="case1 (50,2,2)")


def test_case1_mc_stderr_shrinks_like_sqrt_samples():
    small = evaluate(50, 2, 1, 0.0, "mc", 1000, make_rng(64))
    large = evaluate(50, 2, 1, 0.0, "mc", 100_000, make_rng(64))
    ratio = small.stderr / large.stderr
    assert 5.0 <= ratio <= 20.0  # ideal sqrt(100) = 10


@pytest.mark.xfail(
    strict=True,
    reason="case-1 MC stderr under-covers near the domain edge and no row says so "
    "(CHANGES.md FOUND entry on chisq_case1_mc; the ROADMAP item on Monte Carlo health "
    "diagnostics)",
)
def test_case1_mc_flags_heavy_tail_near_domain_edge():
    # 1.57 +- 0.048 against the closed form 2.0 (z = -8.8): the L^2 draws are heavy-tailed
    report = evaluate(6, 2, 1, 0.0, "mc", 20_000, make_rng(0))
    assert report.warning


def test_m_eq_d_mc_limits_and_validation():
    rng = make_rng(65)
    report = evaluate(20, 20, 2, 100.0, "mc", 20_000, rng)
    assert abs(report.value - 1.0) < 1e-3
    assert report.warning == ""

    with pytest.raises(ValueError):
        evaluate(20, 20, 0, 3.0, "mc", 10, rng)  # k = 0 is outside every regime's input range
    with pytest.raises(UnsupportedRegimeError):
        evaluate(20, 20, 2, 0.0, "mc", 10, rng)

    heavy = evaluate(8, 8, 1, 0.5, "mc", 1000, rng)
    assert "heavy-tail" in heavy.warning


def test_m_eq_d_mc_nonincreasing_in_sigma():
    values = []
    for sigma in (1.0, 2.0, 4.0, 8.0, 16.0):
        rep = evaluate(16, 16, 2, sigma, "mc", 20_000, make_rng(66))  # common random numbers
        assert rep.value >= 1.0 - 3 * rep.stderr
        values.append((rep.value, rep.stderr))
    for (v1, s1), (v2, s2) in zip(values, values[1:]):
        assert v2 <= v1 + 3 * math.hypot(s1, s2)


_ESTIMATORS = {
    "case1_mc": lambda n, rng: evaluate(10, 3, 2, 0.0, "mc", n, rng),
    "lr_mean": lambda n, rng: likelihood_ratio_case1_mc_mean(10, 3, 2, n, rng),
    "m_eq_d_mc": lambda n, rng: evaluate(5, 5, 2, 1.5, "mc", n, rng),
    "det_integral_mc": lambda n, rng: det_integral_mc(5, 0.3, 2, n, rng),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_mc_estimators_at_one_and_zero_samples(name):
    estimator = _ESTIMATORS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimator(1, make_rng(69))
    assert math.isfinite(est.value) and est.stderr == math.inf and est.samples == 1

    rng = make_rng(69)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        estimator(0, rng)
    assert rng.bit_generator.state == before  # rejected before any draw


# ---------------------------------------------------------------------------
# regime dispatcher


# supported rows: (regime, method, value.hex(), stderr.hex() or None, samples, warning),
# each value and stderr taken from the per-regime evaluators this dispatcher replaced,
# the closed forms since then exact: 24/23 and 38/35, rounded once, and the m = d row
# since then the mean of antithetic pairs over the same draws, each averaged over the
# shifted lattice in alpha_{d-3}
@pytest.mark.parametrize(
    "d, m, k, sigma, method, expected",
    [
        (50, 2, 1, 0.0, "closed",
         (REGIME_CASE1, "closed_form", "0x1.0b21642c8590bp+0", None, None, "")),
        (40, 1, 2, 0.0, "closed",
         (REGIME_CASE2, "closed_form", "0x1.15f15f15f15f1p+0", None, None, "")),
        (16, 16, 1, 1.0, "closed", UnsupportedRegimeError),
        (10, 3, 2, 0.0, "mc",
         (REGIME_CASE1, "monte_carlo", "0x1.1740890547078p+1", "0x1.605257ed38a30p-2", 200, "")),
        (40, 1, 2, 0.0, "mc", UnsupportedRegimeError),
        (50, 2, 1, 0.0, "mc",
         (REGIME_CASE1, "monte_carlo", "0x1.131e8a6fc3690p+0", "0x1.a9a7bef17abdap-6", 200, "")),
        (5, 5, 2, 1.5, "mc",
         (REGIME_M_EQ_D, "monte_carlo", "0x1.53c062e711c37p+0", "0x1.4949fc835354ep-7", 200, "")),
        (16, 8, 1, 1.0, "mc", UnsupportedRegimeError),
        (3, 2, 1, 0.0, "mc", UnsupportedRegimeError),
        (2, 2, 1, 0.0, "mc", UnsupportedRegimeError),
    ],
    ids=[
        "closed-sigma0-case1", "closed-sigma0-case2", "closed-noisy",
        "mc-sigma0-case1", "mc-sigma0-case1-k1", "mc-sigma0-k-gt-m", "mc-m-eq-d",
        "mc-noisy-m-lt-d",
        "mc-sigma0-case1-l2-diverges", "mc-sigma0-case1-no-density",
    ],
)
def test_evaluate_regime_table(d, m, k, sigma, method, expected):
    rng = make_rng(70)
    if isinstance(expected, type):
        before = rng.bit_generator.state
        with pytest.raises(expected) as err:
            evaluate(d, m, k, sigma, method, 200, rng)
        assert rng.bit_generator.state == before
        assert f"d={d}, m={m}, k={k}, sigma={sigma}" in str(err.value)
        return
    report = evaluate(d, m, k, sigma, method, 200, rng)
    stderr = None if report.stderr is None else report.stderr.hex()
    got = (report.regime, report.method, report.value.hex(), stderr, report.samples, report.warning)
    assert got == expected
    assert (report.d, report.m, report.k, report.sigma) == (d, m, k, sigma)


@pytest.mark.parametrize(
    "d, m, k, sigma, method",
    [
        (5, 2, 0, 0.0, "closed"), (5, 2, 0, 0.0, "mc"),
        (3, 3, 0, 1.0, "closed"), (3, 3, 0, 1.0, "mc"),
        (5, 2, -1, 0.0, "closed"), (5, 2, -1, 0.0, "mc"),
        (3, 3, -1, 1.0, "closed"), (3, 3, -1, 1.0, "mc"),
        (5, 0, 1, 0.0, "closed"), (5, 0, 1, 0.0, "mc"),
        (5, 6, 1, 0.0, "closed"), (5, 6, 1, 1.0, "mc"),
    ],
)
def test_evaluate_rejects_k_or_m_out_of_range_before_any_draw(d, m, k, sigma, method):
    # an out-of-range k or m is a bad input under either method, not a regime without an evaluator
    rng = make_rng(71)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="need k >= 1 and 1 <= m <= d"):
        evaluate(d, m, k, sigma, method, 100, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "d, m, k, sigma, method",
    [
        (50, 2, 1.5, 0.0, "closed"), (50, 2, 1.5, 0.0, "mc"), (50.5, 2, 1, 0.0, "closed"),
        (50, 2.5, 1, 0.0, "mc"), (16, 16, 1.5, 1.0, "mc"), (16.5, 16.5, 1, 1.0, "mc"),
        (50, 2, math.nan, 0.0, "closed"), (math.inf, 2, 1, 0.0, "closed"),
    ],
)
def test_evaluate_rejects_non_integer_dimensions_before_any_draw(d, m, k, sigma, method):
    # a fractional k or d must not reach the Wishart ratios' integer arithmetic
    rng = make_rng(73)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be an integer"):
        evaluate(d, m, k, sigma, method, 100, rng)
    assert rng.bit_generator.state == before


def test_evaluate_takes_integral_floats_as_ints():
    report = evaluate(50.0, 2.0, np.int64(1), 0.0, "closed")
    assert report.value == evaluate(50, 2, 1, 0.0, "closed").value
    assert all(type(v) is int for v in (report.d, report.m, report.k))
    mc = evaluate(16.0, 16.0, 2.0, 1.0, "mc", 200, make_rng(74))
    assert mc.value == evaluate(16, 16, 2, 1.0, "mc", 200, make_rng(74)).value


@pytest.mark.parametrize(
    "d, m, k, sigma, samples",
    [(2, 2, 1, 1.0, 0), (1, 1, 1, 1.0, -3), (5, 5, 2, 1.5, 0), (10, 3, 2, 0.0, -1)],
)
def test_evaluate_mc_rejects_samples_below_one_in_every_regime(d, m, k, sigma, samples):
    # the exact d <= 2 cells draw nothing, yet they refuse the same sample counts
    rng = make_rng(72)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples must be >= 1"):
        evaluate(d, m, k, sigma, "mc", samples, rng)
    assert rng.bit_generator.state == before
    if d <= 2:
        report = evaluate(d, m, k, sigma, "mc", 1, rng)
        assert (report.stderr, report.samples) == (0.0, 0)
        assert rng.bit_generator.state == before


def test_evaluate_mc_needs_rng():
    with pytest.raises(ValueError, match="rng is required"):
        evaluate(10, 3, 2, 0.0, "mc", 200)
    with pytest.raises(ValueError, match="rng is required"):
        evaluate(5, 5, 2, 1.5, "mc", 200)


@pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf, 1.35e154])
def test_evaluate_rejects_bad_sigma_before_any_draw(sigma):
    # 1.35e154 is finite, but its square is not: sqrt of the largest double is 1.3408e154
    rng = make_rng(75)
    before = rng.bit_generator.state
    for method in ("closed", "mc"):
        with pytest.raises(ValueError, match="need finite sigma >= 0"):
            evaluate(3, 3, 1, sigma, method, 100, rng)
    assert rng.bit_generator.state == before


def test_check_cell_gives_the_regime_and_does_no_work():
    assert check_cell(50.0, 2.0, np.int64(1), 0.0, "closed", 0) == (REGIME_CASE1, 50, 2, 1)
    assert all(type(v) is int for v in check_cell(50.0, 2.0, np.int64(1), 0.0, "closed", 0)[1:])
    assert check_cell(40, 1, 2, 0.0, "closed", 0) == (REGIME_CASE2, 40, 1, 2)
    assert check_cell(16, 16, 3, 1.0, "mc", 1) == (REGIME_M_EQ_D, 16, 16, 3)
    # a sample count matters to "mc" only, and is checked before the regime table
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_cell(16, 8, 1, 1.0, "mc", 0)
    with pytest.raises(UnsupportedRegimeError, match="outside the m_eq_d domain"):
        check_cell(16, 8, 1, 1.0, "mc", 1)


# ---------------------------------------------------------------------------
# analytic moments


def test_sphere_moment_values():
    assert math.isclose(sphere_moment((2, 0, 0, 0, 0), 5), 1 / 5, rel_tol=1e-12)
    assert math.isclose(sphere_moment((4, 0, 0), 3), 0.2, rel_tol=1e-12)
    assert sphere_moment((3, 0), 2) == 0.0
    with pytest.raises(ValueError):
        sphere_moment((2, 0), 3)


def test_det_integral_exact_cases():
    assert det_integral_mc(10, 0.0, 3, 10, make_rng(67)).value == 1.0
    assert det_integral_mc(10, 0.5, 0, 10, make_rng(67)).value == 1.0
    with pytest.raises(ValueError):
        det_integral_mc(10, 1.0, 1, 10, make_rng(67))


def test_det_integral_near_one():
    est = det_integral_mc(50, 0.1, 2, 30_000, make_rng(68))
    assert abs(est.value - 1.0) <= 0.2


def _slogdet_log_det(d: int, eps: float, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Oracle: log det(I + eps Q) from a full Haar draw, QR and slogdet, O(d^3) per draw.

    This is the route det_integral_mc took before it drew Verblunsky
    coefficients, with the same chunks on the stream.
    """
    eye = np.eye(d)

    def draw(b: int) -> np.ndarray:
        return np.linalg.slogdet(eye + eps * qr_sign_fixed(rng.standard_normal((b, d, d))))[1]

    return draw_chunked(draw, samples, _MC_CHUNK)


def test_slogdet_oracle_is_the_former_route():
    # det_integral_mc(5, -0.5, -2, 5000, make_rng(95)) before Verblunsky draws
    est = MomentEstimate.from_values(np.exp(-2 * _slogdet_log_det(5, -0.5, 5000, make_rng(95))))
    assert (est.value, est.stderr) == (2.4068263764220634, 0.04813310490524923)


def test_haar_det_moment_values():
    assert haar_det_moment(1, 0.5, 2) == 1.25
    assert haar_det_moment(3, 0.5, 2) == 1.328125
    assert haar_det_moment(7, 0.3, 1) == 1.0
    assert haar_det_moment(4, 0.3, 0) == 1.0
    assert math.isclose(haar_det_moment(40, -0.5, -2), 0.75**-3, rel_tol=1e-15)
    assert haar_det_moment(3, 0.5, -3) == haar_det_moment(3, -0.5, -3)
    for d, eps, k in ((2, 0.5, -3), (5, 0.5, 3), (5, 1.0, 2), (0, 0.5, 1), (5, 0.5, 1.5)):
        with pytest.raises(ValueError):
            haar_det_moment(d, eps, k)


def test_haar_det_moment_hand_cases():
    # d = 1: Q = +-1 with equal odds; d = 2, k = -1 by the arcsine law of cos(theta)
    for eps, k in ((0.5, 2), (0.5, -1), (-0.3, 1)):
        assert math.isclose(haar_det_moment(1, eps, k),
                            ((1 + eps) ** k + (1 - eps) ** k) / 2, rel_tol=1e-15)
    eps = 0.4
    rotation = 1 / math.sqrt((1 + eps * eps) ** 2 - 4 * eps * eps)  # E (1 + 2 eps cos + eps^2)^-1
    assert math.isclose(haar_det_moment(2, eps, -1),
                        (rotation + 1 / (1 - eps * eps)) / 2, rel_tol=1e-14)


def _last_two_integrated(alpha: np.ndarray, eps: float, k: int, nodes: int) -> np.ndarray:
    """Per row: the mean of exp(k log det) over alpha_{d-1} = +-1 and an N-node
    Gauss-Chebyshev rule in alpha_{d-2} = cos(theta), alpha_0..alpha_{d-3} held fixed."""
    cos = np.cos((2 * np.arange(nodes) + 1) * np.pi / (2 * nodes))
    out = np.empty(len(alpha))
    for i, row in enumerate(alpha):
        grid = np.tile(row, (2 * nodes, 1))
        grid[:, -2] = np.tile(cos, 2)
        grid[:, -1] = np.repeat([1.0, -1.0], nodes)
        out[i] = np.mean(np.exp(k * _verblunsky_log_det(grid, eps)))
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 40])
def test_det_integral_matches_exact_moments(d):
    # eps = -1/(1 + sigma^2), the chi-square sign; z-tests from d = 3 on, where
    # alpha_0..alpha_{d-3} are drawn; at d <= 2 the value is exact and draws nothing
    powers = [k for k in (-1, -2, -3) if -k <= d] + [2]
    zs = {}
    for i, (sigma, k) in enumerate((s, k) for s in (0.5, 1.0, 2.0) for k in powers):
        eps = -1.0 / (1.0 + sigma**2)
        rng = make_rng(90, 100 * d + i)
        before = rng.bit_generator.state
        est = det_integral_mc(d, eps, k, 100_000, rng)
        exact = haar_det_moment(d, eps, k)
        if d <= 2:
            assert math.isclose(est.value, exact, rel_tol=1e-14), (sigma, k, est, exact)
            assert (est.stderr, est.samples) == (0.0, 0)
            assert rng.bit_generator.state == before
        else:
            zs[(sigma, k)] = (est.value - exact) / est.stderr
    if d <= 2:
        for eps, k in ((-0.8, -3), (0.6, -3), (0.5, 3), (-0.9, 1)):
            # no haar_det_moment here: average the per-draw determinant over the
            # signs alpha_{d-1} = +-1, and at d = 2 over the rule in alpha_0 too
            if d == 1:
                want = np.mean(np.exp(k * _verblunsky_log_det(np.array([[1.0], [-1.0]]), eps)))
            else:
                want = _last_two_integrated(np.zeros((1, 2)), eps, k, nodes=1024)[0]
            est = det_integral_mc(d, eps, k, 10, make_rng(90))
            assert math.isclose(est.value, want, rel_tol=1e-12), (eps, k, est, want)
            assert (est.stderr, est.samples) == (0.0, 0)
        return
    assert max(abs(z) for z in zs.values()) <= 4.0, zs


@pytest.mark.parametrize("d", [3, 7, 40])
def test_conditional_det_power_integrates_last_two_coefficients(d):
    # the rule is exact for k > 0 and converges geometrically for k < 0; at
    # |eps| = 0.9 the pole of (c0 - c1 x)^k sits about 0.006 outside [-1, 1]
    alpha = haar_verblunsky_batch(d, 12, make_rng(97, d))
    alpha[0, d - 3] = 1.0  # r_{d-2} = -1: rho^2 = (1 - eps^2)^2, its least value
    alpha[1, :-2] = 0.0  # D = 1 and r_{d-2} = (-eps)^{d-2}
    for k in (-3, -2, -1, 1, 2):
        for eps in (0.5, -0.5, 0.9, -0.9):
            got = _conditional_det_power(alpha[:, :-2], eps, k)
            want = _last_two_integrated(alpha, eps, k, nodes=1024)
            np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"k={k}, eps={eps}")


@pytest.mark.parametrize("k", [1.5, -0.5, math.nan, math.inf])
def test_det_integral_rejects_non_integer_power(k):
    rng = make_rng(98)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="integer"):
        det_integral_mc(5, -0.5, k, 100, rng)
    assert rng.bit_generator.state == before
    want = det_integral_mc(5, -0.5, -2, 100, make_rng(98))
    assert det_integral_mc(5, -0.5, -2.0, 100, rng) == want  # an integral float is accepted


@pytest.mark.parametrize("d", [3, 7, 40])
def test_det_integral_log_det_law_matches_qr_route(d):
    # two-sample KS of log det(I + eps Q); d = 2 is left out because its
    # reflection atom at log(1 - eps^2) rounds differently on the two routes
    eps, n = -0.5, 20_000
    fast = _verblunsky_log_det(haar_verblunsky_batch(d, n, make_rng(91, d)), eps)
    slow = _slogdet_log_det(d, eps, n, make_rng(92, d))
    assert ks_2samp(fast, slow).pvalue >= 0.001


def test_det_integral_mc_bits_do_not_depend_on_chunk(monkeypatch):
    # each draw is one contiguous stretch of the stream, so the chunk size moves no bit
    d, eps, k, samples = 7, -0.4, -2, _MC_CHUNK + 905
    want = det_integral_mc(d, eps, k, samples, make_rng(96))
    monkeypatch.setattr(chisq, "_MC_CHUNK", 1000)
    assert det_integral_mc(d, eps, k, samples, make_rng(96)) == want


@pytest.mark.parametrize("d", [3, 7, 40])
def test_det_integral_mc_is_even_in_eps(d):
    # each draw is used at +eps and at -eps, and the pair sum commutes bit for bit
    for eps, k in ((0.4, -2), (-0.7, 3)):
        assert det_integral_mc(d, eps, k, 3000, make_rng(99, d)) == det_integral_mc(
            d, -eps, k, 3000, make_rng(99, d)
        )


def _pair_and_lattice_means(d, eps, k, n, rng):
    """Per draw: the +-eps pair mean of _conditional_det_power, and the
    estimator's lattice mean, on the same Verblunsky draws."""
    alpha = haar_verblunsky_batch(d, n, rng)
    head = alpha[:, :-2]
    pair = 0.5 * (_conditional_det_power(head, eps, k) + _conditional_det_power(head, -eps, k))
    lattice = _lattice_points(alpha[:, d - 3])
    plus, minus = (_lattice_det_power(alpha[:, : d - 3], lattice, e, k).mean(axis=0)
                   for e in (eps, -eps))
    return pair, 0.5 * (plus + minus), plus


def test_det_integral_mc_antithetic_pair_shrinks_stderr():
    # sigma = 2, k = 2 of the chi-square; the two sides correlate at about -0.87
    d, eps, k, n = 40, -0.2, -2, 20_000
    est = det_integral_mc(d, eps, k, n, make_rng(100))
    _, lattice_mean, plus = _pair_and_lattice_means(d, eps, k, n, make_rng(100))  # the same draws
    assert est == MomentEstimate.from_values(lattice_mean)
    assert est.stderr <= 0.3 * MomentEstimate.from_values(plus).stderr


@pytest.mark.parametrize("d, eps, k, ratio", [(40, -0.5, -2, 0.85), (3, -0.5, -1, 0.3)])
def test_det_integral_mc_lattice_shrinks_stderr(d, eps, k, ratio):
    # sigma = 1 of the chi-square at k = 2 (d = 40) and k = 1 (d = 3); against
    # the +-eps pair mean with alpha_{d-3} drawn once, on the same stream
    est = det_integral_mc(d, eps, k, 20_000, make_rng(102, d))
    pair, lattice_mean, _ = _pair_and_lattice_means(d, eps, k, 20_000, make_rng(102, d))
    assert est == MomentEstimate.from_values(lattice_mean)
    assert est.stderr <= ratio * MomentEstimate.from_values(pair).stderr


def test_lattice_points_are_a_shifted_lattice():
    alpha = np.concatenate([[-1.0, 0.0, 0.5, 1.0 - 2**-53, 1.0],
                            haar_verblunsky_batch(3, 1000, make_rng(103))[:, 0]])
    lattice = _lattice_points(alpha)
    assert lattice.shape == (_LATTICE, len(alpha))
    assert np.all((lattice >= -1.0) & (lattice < 1.0))
    u = (alpha + 1.0) / 2.0
    for i, row in enumerate(lattice):  # 2 frac(u + i/M) - 1, up to rounding on the circle
        gap = (row - (2.0 * ((u + i / _LATTICE) % 1.0) - 1.0) + 1.0) % 2.0 - 1.0
        np.testing.assert_allclose(gap, 0.0, rtol=0, atol=1e-15)
    gaps = np.diff(np.sort(lattice, axis=0), axis=0)  # M points 2/M apart
    np.testing.assert_allclose(gaps, 2.0 / _LATTICE, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [3, 4, 40])
def test_lattice_det_power_substitutes_each_point(d):
    # the vectorised tail at point i is the conditional mean with alpha_{d-3} = lattice[i]
    alpha = haar_verblunsky_batch(d, 500, make_rng(104, d))
    lattice = _lattice_points(alpha[:, d - 3])
    for k in (-3, -2, -1, 1, 2):
        for eps in (0.5, -0.5, -0.9):
            got = _lattice_det_power(alpha[:, : d - 3], lattice, eps, k)
            assert got.shape == lattice.shape
            for point, row in zip(lattice, got):
                head = alpha[:, :-2].copy()
                head[:, -1] = point
                np.testing.assert_allclose(row, _conditional_det_power(head, eps, k), rtol=1e-14)


def test_det_integral_d1_draws_are_one_plus_or_minus_eps():
    eps, k = 0.35, -3
    alpha = haar_verblunsky_batch(1, 1000, make_rng(93))
    log_det = _verblunsky_log_det(alpha, eps)
    assert set(np.unique(alpha[:, 0])) == {-1.0, 1.0}
    assert np.array_equal(log_det, np.log1p(eps * alpha[:, 0]))
    np.testing.assert_allclose(np.exp(k * log_det), (1 + eps * alpha[:, 0]) ** k, rtol=1e-14)


def test_det_integral_d2_rotations_and_reflections():
    # alpha_1 = -1: rotation by theta with cos(theta) = alpha_0; alpha_1 = +1: reflection
    eps, k = -0.6, -2
    alpha = haar_verblunsky_batch(2, 2000, make_rng(94))
    draws = np.exp(k * _verblunsky_log_det(alpha, eps))
    reflection = alpha[:, 1] == 1.0
    assert 0 < reflection.sum() < len(alpha)
    np.testing.assert_allclose(draws[reflection], (1 - eps * eps) ** k, rtol=1e-14)
    rot = alpha[~reflection, 0]
    np.testing.assert_allclose(draws[~reflection], (1 + 2 * eps * rot + eps * eps) ** k, rtol=1e-14)


def test_det_integral_forms_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("det_integral_mc formed a d x d matrix")

    for name in ("qr", "slogdet", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    est = det_integral_mc(40, 0.2, 2, 5000, make_rng(96))
    assert math.isfinite(est.value) and est.samples == 5000


def test_gaussian_exp_moment_values():
    assert math.isclose(gaussian_exp_moment(0.5, np.zeros((1, 1))), 1 / math.sqrt(2), rel_tol=1e-14)
    assert math.isclose(gaussian_exp_moment(1e-12, np.zeros((2, 3))), 1.0, rel_tol=1e-9)
    with pytest.raises(ValueError):
        gaussian_exp_moment(0.0, np.zeros((1, 1)))


def test_gaussian_exp_moment_vs_mc():
    from shufflab.oracles import check_gaussian_exp

    res = check_gaussian_exp(seed=69)
    assert res.passed, res.detail


def test_gaussian_quadform_moment_values():
    assert gaussian_quadform_moment(np.zeros((3, 3)), 2) == 1.0
    assert math.isclose(gaussian_quadform_moment(np.eye(2), 2), 1 / 9, rel_tol=1e-14)
    with pytest.raises(ValueError):
        gaussian_quadform_moment(-np.eye(2), 1)
    with pytest.raises(ValueError):
        gaussian_quadform_moment(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


def test_gaussian_quadform_moment_vs_mc():
    from shufflab.oracles import check_gaussian_quad

    res = check_gaussian_quad(seed=70)
    assert res.passed, res.detail


def test_submatrix_density_values():
    # 1 x 1 block of a 3 x 3 Haar matrix is uniform on [-1, 1]
    assert math.isclose(submatrix_density(np.array([[0.0]]), 3), 0.5, rel_tol=1e-12)
    assert submatrix_density(np.array([[1.5]]), 10) == 0.0
    with pytest.raises(UnsupportedRegimeError):
        submatrix_density(np.zeros((2, 2)), 3)


def test_submatrix_density_normalizes():
    from scipy.integrate import quad as _quad

    for d in (4, 10):
        integral, _ = _quad(lambda z: submatrix_density(np.array([[z]]), d), -1, 1, limit=200)
        assert abs(integral - 1.0) < 1e-6


def test_submatrix_density_swaps_roles_when_needed():
    z = np.full((1, 2), 0.1)
    assert math.isclose(submatrix_density(z, 6), submatrix_density(z.T, 6), rel_tol=1e-12)
