import math
import warnings

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
    _reduced_log_likelihood,
    REGIME_CASE1,
    REGIME_CASE2,
    REGIME_M_EQ_D,
    det_integral_mc,
    evaluate,
    log_wishart_constant,
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


def test_log_wishart_constant_values():
    assert math.isclose(log_wishart_constant(2, 1), -math.log(2.0), rel_tol=1e-15)
    # omega(1, 1) = 1 / (sqrt(2) Gamma(1/2)) = 1 / sqrt(2 pi)
    assert math.isclose(log_wishart_constant(1, 1), -0.5 * math.log(2 * math.pi), rel_tol=1e-14)
    assert math.isfinite(log_wishart_constant(10_000, 3))


def test_log_wishart_constant_validation():
    with pytest.raises(ValueError):
        log_wishart_constant(1, 2)
    with pytest.raises(ValueError):
        log_wishart_constant(5, 0)


def test_wishart_ratio_exact_small():
    assert math.isclose(wishart_ratio_exact(10, 1), 8.0, rel_tol=1e-12)


def test_wishart_ratio_matches_gammaln_path():
    # the exact product equals omega(d - 2k, k) / omega(d, k)
    for d, k in ((10, 1), (30, 2), (100, 5), (2000, 2), (5000, 3)):
        via_logs = math.exp(log_wishart_constant(d - 2 * k, k) - log_wishart_constant(d, k))
        assert math.isclose(wishart_ratio_exact(d, k), via_logs, rel_tol=1e-9)


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
    assert math.isclose(report.value, 24 / 23, rel_tol=1e-12)
    assert report.regime == "case1_sigma0" and report.method == "closed_form"


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
        log_l = _reduced_log_likelihood(np.linalg.cholesky(A), Y, d)
        vals[done : done + b] = np.where(np.isneginf(log_l), 0.0, np.exp(2.0 * log_l))
        done += b
    closed = evaluate(d, m, k, 0.0, "closed").value
    assert_within_nse(vals.mean(), vals.std(ddof=1) / math.sqrt(samples), closed,
                      label="case2 (30,1,2)")


def test_case_overlap_at_k_eq_m():
    for d in (30, 50, 200):
        v1 = evaluate(d, 1, 1, 0.0, "closed").value
        v2 = _case2_closed(d, 1, 1)  # evaluate routes k = m to case 1
        assert math.isclose(v1, v2, rel_tol=1e-9)
    v1 = evaluate(200, 3, 3, 0.0, "closed").value
    v2 = _case2_closed(200, 3, 3)
    assert math.isclose(v1, v2, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# likelihood ratio and Monte Carlo cross-checks


def test_likelihood_ratio_outside_support_is_zero():
    A = np.eye(1)
    Y = np.array([[2.0, 0.0]])  # Y^T A^{-1} Y has eigenvalue 4 > 1
    assert np.exp(_reduced_log_likelihood(np.linalg.cholesky(A)[None], Y[None], 50)[0]) == 0.0


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
    if k <= m:
        log_const = log_wishart_constant(d - m, k) - log_wishart_constant(d, k)
    else:
        log_const = log_wishart_constant(d - k, m) - log_wishart_constant(d, m)
    log_l = (
        log_const
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
    # before Bartlett factors
    est = MomentEstimate.from_values(_xxt_lr_power(50, 2, 2, 5000, make_rng(97), 2.0))
    assert (est.value, est.stderr) == (1.111036811110822, 0.014138082943907636)


@pytest.mark.parametrize("k, m", [(1, 1), (1, 3), (2, 2), (2, 4), (3, 3), (3, 5)])
def test_cholesky_kernel_matches_eigh_route(k, m):
    rng = make_rng(98, 10 * k + m)
    d, n = 12 + 3 * k + m, 400
    G = rng.standard_normal((n, k, k))
    A = G @ np.swapaxes(G, -2, -1) + 4.0 * np.eye(k)
    Y = 1.2 / math.sqrt(m) * rng.standard_normal((n, k, m))
    want = _eigh_log_likelihood(A, Y, d)
    got = _reduced_log_likelihood(np.linalg.cholesky(A), Y, d)
    assert 0 < np.isneginf(want).sum() < n  # both sides of the support are hit
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    # 1e-12 relative, absolute near log L = 0; log(1 - eig) near the support edge amplifies rounding
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_cholesky_kernel_outside_support_is_zero():
    A = np.array([[4.0, 1.0], [1.0, 2.0]])
    Y = np.array([[3.0, 0.0], [0.0, 0.1]])  # (A^{-1/2} Y)(A^{-1/2} Y)^T has eigenvalue > 1
    assert _eigh_log_likelihood(A, Y, 20) == -np.inf
    assert np.exp(_reduced_log_likelihood(np.linalg.cholesky(A)[None], Y[None], 20)[0]) == 0.0


@pytest.mark.parametrize("d, k, m", [(50, 1, 2), (50, 2, 2), (10, 3, 3)])
def test_bartlett_law_matches_xxt_route(d, k, m):
    # two-sample KS of log det A and of log L (ties at -inf off the support)
    n = 3000
    rng = make_rng(99, 100 * d + k)
    L = _bartlett_factor(d, k, n, rng)
    Y = rng.standard_normal((n, k, m))
    fast_logdet = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    fast_log_l = _reduced_log_likelihood(L, Y, d)
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
        parts.append(np.exp(2.0 * _reduced_log_likelihood(L, Y, d)))
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
    "(CHANGES.md FOUND entry on chisq_case1_mc; ROADMAP item 7, Monte Carlo health "
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
# each value and stderr taken from the per-regime evaluators this dispatcher replaced
@pytest.mark.parametrize(
    "d, m, k, sigma, method, expected",
    [
        (50, 2, 1, 0.0, "closed",
         (REGIME_CASE1, "closed_form", "0x1.0b21642c8593cp+0", None, None, "")),
        (40, 1, 2, 0.0, "closed",
         (REGIME_CASE2, "closed_form", "0x1.15f15f15f160ep+0", None, None, "")),
        (16, 16, 1, 1.0, "closed", UnsupportedRegimeError),
        (10, 3, 2, 0.0, "mc",
         (REGIME_CASE1, "monte_carlo", "0x1.1740890547078p+1", "0x1.605257ed38a30p-2", 200, "")),
        (40, 1, 2, 0.0, "mc", UnsupportedRegimeError),
        (5, 5, 2, 1.5, "mc",
         (REGIME_M_EQ_D, "monte_carlo", "0x1.599cea6e7da5cp+0", "0x1.27db44031e0b1p-5", 200, "")),
        (16, 8, 1, 1.0, "mc", UnsupportedRegimeError),
        (3, 2, 1, 0.0, "mc", UnsupportedRegimeError),
        (2, 2, 1, 0.0, "mc", UnsupportedRegimeError),
    ],
    ids=[
        "closed-sigma0-case1", "closed-sigma0-case2", "closed-noisy",
        "mc-sigma0-case1", "mc-sigma0-k-gt-m", "mc-m-eq-d", "mc-noisy-m-lt-d",
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
    # a fractional k or d would reach log_wishart_constant's arange and return a value
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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 40])
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
