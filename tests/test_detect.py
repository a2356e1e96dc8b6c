import math
import warnings

import numpy as np
import pytest
from conftest import assert_within_nse, mean_and_stderr
from scipy.stats import chi2 as chi2_dist
from scipy.stats import ks_2samp

from shufflab import make_rng
from shufflab.detect import _TRIAL_CHUNK, DetectionReport, _sample_f, default_threshold, run_test
from shufflab.model import ModelParams, sample_planted
from shufflab.oracles import sample_f_instances, statistic_f

PARAMS = ModelParams(n=256, d=16, m=16, sigma=0.05)


def test_statistic_zero_for_noiseless_square_planted():
    params = ModelParams(n=256, d=16, m=16, sigma=0.0)
    inst = sample_planted(params, make_rng(100))
    nd = params.n * params.d
    assert statistic_f(inst.X, inst.Y) <= 1e-9 * nd**2


def test_statistic_invariances():
    params = ModelParams(n=8, d=5, m=5, sigma=0.7)
    inst = sample_planted(params, make_rng(101))
    base = statistic_f(inst.X, inst.Y)
    rng = make_rng(102)
    perm = rng.permutation(8)
    from shufflab.model import Instance
    from shufflab.randmat import qr_sign_fixed

    rotated = Instance(
        X=inst.X, Y=inst.Y[perm] @ qr_sign_fixed(rng.standard_normal((5, 5))), hypothesis="planted"
    )
    assert abs(statistic_f(rotated.X, rotated.Y) - base) <= 1e-12 * max(base, 1.0)


def test_null_mean_is_4nd():
    report = run_test(ModelParams(n=64, d=8, m=8, sigma=1.0), None, 4000, make_rng(103))
    nd = 64 * 8
    # mean of f over trials: sd(f) ~ sqrt(2) * 4nd
    stderr = math.sqrt(report.var_null / report.trials)
    assert_within_nse(report.mean_null, stderr, 4.0 * nd, label="null mean")


def test_null_second_moment_formula_small_case():
    # oracle: f = T^2 with T a sum of nd i.i.d. (Y^2 - X^2) terms;
    # E[w^2] = 4 and E[w^4] = 144 give E[f^2] = 48 (nd)^2 + 96 nd
    n, d, trials = 4, 2, 300_000
    rng = make_rng(104)
    T = rng.chisquare(n * d, trials) - rng.chisquare(n * d, trials)
    f2 = T**4
    target = 48.0 * (n * d) ** 2 + 96.0 * (n * d)
    m, se = mean_and_stderr(f2)
    assert_within_nse(m, se, target, label="E[f^2] small case")


def test_null_second_moment_at_working_size():
    params = ModelParams(n=256, d=16, m=16, sigma=1.0)
    rng = make_rng(105)
    f = _sample_f(params, "null", 2000, rng)
    nd = params.n * params.d
    m, se = mean_and_stderr(f**2 / nd**2)
    assert_within_nse(m, se, 48.0 + 96.0 / nd, label="E[f^2]/(nd)^2")


def test_planted_mean_law():
    # E_P[f] = 4 sigma^2 nd / (1 + sigma^2) at m = d
    for sigma, seed in ((0.5, 106), (1.0, 107), (2.0, 108)):
        params = ModelParams(n=64, d=8, m=8, sigma=sigma)
        report = run_test(params, None, 4000, make_rng(seed))
        stderr = math.sqrt(report.var_planted / report.trials)
        target = 4 * sigma**2 * params.n * params.d / (1 + sigma**2)
        assert_within_nse(report.mean_planted, stderr, target, label=f"planted mean sigma={sigma}")


def test_planted_variance_zero_at_sigma0():
    params = ModelParams(n=64, d=8, m=8, sigma=0.0)
    report = run_test(params, None, 100, make_rng(109))
    assert report.var_planted <= 1e-12
    assert report.mean_planted <= 1e-12


def test_default_threshold_formula():
    nd = PARAMS.n * PARAMS.d
    for sigma in (0.001, 0.05, 1.0, 10.0):
        params = ModelParams(n=PARAMS.n, d=PARAMS.d, m=PARAMS.m, sigma=sigma)
        tau = default_threshold(params)
        assert math.isclose(tau, 4 * nd * sigma**2 * math.log1p(sigma**-2), rel_tol=1e-12)
        # second route: the likelihood-ratio cutoff is where the densities of
        # f/(4nd) under the null, chi^2(1), and the planted law, s chi^2(1), cross
        s = sigma**2 / (1 + sigma**2)
        x = tau / (4 * nd)
        assert math.isclose(chi2_dist.pdf(x, df=1), chi2_dist.pdf(x / s, df=1) / s,
                            rel_tol=1e-9)


def test_default_threshold_at_sigma0_bounds_rounding():
    # at sigma = 0 the cutoff is the floor delta^2 = (64 (nd + d) nd u)^2
    params = ModelParams(n=256, d=16, m=16, sigma=0.0)
    nd = params.n * params.d
    tau = default_threshold(params)
    assert tau == (64.0 * (nd + params.d) * nd * np.finfo(float).eps) ** 2
    # sigma^2 below the normal float range takes the floor instead of overflowing
    assert default_threshold(ModelParams(n=256, d=16, m=16, sigma=1e-160)) == tau
    rates = run_test(params, None, 2000, make_rng(119))
    assert rates.threshold == tau
    assert rates.type2 == 0.0
    # P_null(f < tau) = P(chi^2(1) < tau/(4nd)) ~ 1.5e-9
    assert chi2_dist.cdf(tau / (4 * nd), df=1) <= 1e-6
    assert rates.type1 <= 0.001


def test_run_test_zero_threshold_declares_nothing_planted():
    rates = run_test(PARAMS, 0.0, 50, make_rng(110))
    assert rates.type2 == 1.0 and rates.type1 == 0.0


def test_run_test_nan_threshold_refused_before_any_draw():
    # every comparison with NaN is false, so the rule would report type1 = type2 = 0
    rng = make_rng(119)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="NaN"):
        run_test(PARAMS, math.nan, 50, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("threshold, rates", [(math.inf, (1.0, 0.0)), (-math.inf, (0.0, 1.0))])
def test_run_test_infinite_thresholds_are_the_trivial_rules(threshold, rates):
    # f < inf declares every draw planted, f < -inf none
    report = run_test(PARAMS, threshold, 50, make_rng(120))
    assert (report.type1, report.type2) == rates


def test_run_test_error_rates_match_chi2_oracle():
    # f / (4nd) is asymptotically chi^2(1) under the null and s chi^2(1) under
    # the planted law, so each error rate of the likelihood-ratio rule is a
    # chi^2(1) tail at tau/(4nd); at sigma = 0.05 they are ~0.097 and ~0.014
    rates = run_test(PARAMS, None, 2000, make_rng(111))
    nd = PARAMS.n * PARAMS.d
    s = PARAMS.sigma**2 / (1 + PARAMS.sigma**2)
    x = rates.threshold / (4 * nd)
    predicted_type1 = chi2_dist.cdf(x, df=1)
    predicted_type2 = chi2_dist.sf(x / s, df=1)
    se1 = math.sqrt(predicted_type1 * (1 - predicted_type1) / rates.trials)
    se2 = math.sqrt(predicted_type2 * (1 - predicted_type2) / rates.trials)
    assert_within_nse(rates.type1, se1, predicted_type1, n=4, label="type I")
    assert_within_nse(rates.type2, se2, predicted_type2, n=4, label="type II")
    assert math.isclose(predicted_type1 + predicted_type2, 0.1117, abs_tol=5e-4)
    assert_within_nse(rates.type1 + rates.type2, math.hypot(se1, se2),
                      predicted_type1 + predicted_type2, n=3, label="error sum")


def test_run_test_useless_at_large_sigma():
    params = ModelParams(n=256, d=16, m=16, sigma=10.0)
    rates = run_test(params, None, 2000, make_rng(112))
    assert rates.type1 + rates.type2 >= 0.3


def test_error_sum_degrades_with_sigma():
    sums = []
    for sigma in (0.05, 0.2, 1.0, 5.0):
        params = ModelParams(n=256, d=16, m=16, sigma=sigma)
        rates = run_test(params, None, 2000, make_rng(113))  # common random numbers
        sums.append(rates.type1 + rates.type2)
    stderr = math.sqrt(0.25 / 2000) * math.sqrt(2)  # conservative per sum
    for lo, hi in zip(sums, sums[1:]):
        assert hi >= lo - 3 * math.sqrt(2) * stderr, sums


def test_separation_ratio_matches_chi2_spread():
    # var_null(f) ~ 2 (4nd)^2, gap ~ 4nd: the ratio concentrates near sqrt(2)
    report = run_test(PARAMS, None, 2000, make_rng(114))
    assert 1.2 <= report.separation_ratio <= 1.65


def test_rectangular_shape_warns():
    params = ModelParams(n=16, d=8, m=4, sigma=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_test(params, None, 10, make_rng(115))
    assert [w.category for w in caught] == [UserWarning]
    assert caught[0].filename == __file__  # points at the caller


def test_trial_count_validation():
    # the sample variances need two trials; fewer are refused before any draw
    for trials, seed in ((0, 117), (1, 118)):
        rng = make_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            run_test(PARAMS, None, trials, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("case", [
    (ModelParams(n=64, d=8, m=8, sigma=0.5), None, 130),
    (ModelParams(n=16, d=4, m=2, sigma=0.5), 100.0, 131),
    (ModelParams(n=64, d=8, m=8, sigma=0.0), None, 132),
], ids=("square", "rectangular-threshold", "sigma0"))
@pytest.mark.filterwarnings("ignore:the detection statistic")
def test_report_is_one_pass_over_null_then_planted(case):
    # every field comes from one null draw of f and then one planted draw,
    # taken from the generator in that order
    params, threshold, seed = case
    trials = 500
    report = run_test(params, threshold, trials, make_rng(seed))
    rng = make_rng(seed)
    f_null = _sample_f(params, "null", trials, rng)
    f_planted = _sample_f(params, "planted", trials, rng)
    tau = default_threshold(params) if threshold is None else threshold
    var_null, var_planted = float(f_null.var(ddof=1)), float(f_planted.var(ddof=1))
    gap = abs(float(f_null.mean()) - float(f_planted.mean()))
    assert report == DetectionReport(
        threshold=tau,
        type1=float((f_null < tau).mean()),
        type2=float((f_planted >= tau).mean()),
        mean_null=float(f_null.mean()),
        var_null=var_null,
        mean_planted=float(f_planted.mean()),
        var_planted=var_planted,
        separation_ratio=math.sqrt(max(var_null, var_planted)) / gap,
        trials=trials,
    )


# --- the exact three-chi-square law against the full-instance route

# (3, 4, 1, 0) has B > 0 at sigma = 0; (1, 1, 1, 2) draws no B
KS_CASES = [(256, 16, 16, 0.05), (256, 16, 16, 1.0), (8, 5, 2, 0.7), (3, 4, 1, 0.0),
            (1, 1, 1, 2.0)]


@pytest.mark.parametrize("hypothesis", ("null", "planted"))
@pytest.mark.parametrize("case", KS_CASES, ids=lambda c: "n{}-d{}-m{}-s{}".format(*c))
def test_exact_law_matches_instance_oracle(case, hypothesis):
    # two-sample KS of f drawn from (U1, U2, B) against f on sampled (X, Y)
    params = ModelParams(*case)
    stream = 2 * KS_CASES.index(case) + (hypothesis == "planted")
    exact = _sample_f(params, hypothesis, 3000, make_rng(120, stream))
    reference = sample_f_instances(params, hypothesis, 3000, make_rng(121, stream))
    assert ks_2samp(exact, reference).pvalue >= 1e-3


@pytest.mark.parametrize("sigma", (0.05, 0.5, 1.0, 2.0))
def test_exact_law_moments_at_criteria_size(sigma):
    params = ModelParams(n=256, d=16, m=16, sigma=sigma)
    nd = params.n * params.d
    trials = 400_000
    f_null = _sample_f(params, "null", trials, make_rng(122))
    f_planted = _sample_f(params, "planted", trials, make_rng(123))
    m, se = mean_and_stderr(f_null)
    assert_within_nse(m, se, 4.0 * nd, n=4, label="null mean")
    m, se = mean_and_stderr(f_planted)
    assert_within_nse(m, se, 4.0 * sigma**2 * nd / (1 + sigma**2), n=4, label="planted mean")
    m, se = mean_and_stderr(f_null**2 / nd**2)
    assert_within_nse(m, se, 48.0 + 96.0 / nd, n=4, label="null E[f^2]/(nd)^2")


def test_exact_law_means_off_square():
    # T = W - B with E[W] = 0, E[W^2] = 4 s2 nm / (1 + s2) and B ~ chi^2(n(d - m)),
    # so E_P[f] = 4 s2 nm / (1 + s2) + n(d - m) (n(d - m) + 2); under the null
    # T = chi^2(nm) - chi^2(nd) and E[f] = 2nm + 2nd + (n(d - m))^2
    n, d, m, sigma = 8, 5, 2, 0.7
    params = ModelParams(n, d, m, sigma)
    s2, gap = sigma**2, n * (d - m)
    m1, se1 = mean_and_stderr(_sample_f(params, "planted", 400_000, make_rng(126)))
    assert_within_nse(m1, se1, 4 * s2 * n * m / (1 + s2) + gap * (gap + 2), n=4,
                      label="planted mean, m < d")
    m0, se0 = mean_and_stderr(_sample_f(params, "null", 400_000, make_rng(127)))
    assert_within_nse(m0, se0, 2 * n * m + 2 * n * d + gap**2, n=4, label="null mean, m < d")


def test_exact_law_zero_at_sigma0_square():
    for n, d in ((256, 16), (1, 1)):
        f = _sample_f(ModelParams(n, d, d, 0.0), "planted", 1000, make_rng(124))
        assert not f.any()


def test_planted_draws_do_not_depend_on_sigma():
    # every sigma reads the same U1, U2, B off the stream, in that order
    n, d, m, trials = 8, 5, 2, 1000
    ref = make_rng(125)
    U1 = ref.chisquare(n * m, trials)
    U2 = ref.chisquare(n * m, trials)
    B = ref.chisquare(n * (d - m), trials)
    for sigma in (0.0, 0.05, 1.0, 20.0):
        rng = make_rng(125)
        f = _sample_f(ModelParams(n, d, m, sigma), "planted", trials, rng)
        assert rng.bit_generator.state == ref.bit_generator.state
        s = sigma**2 / (1 + sigma**2)
        np.testing.assert_allclose(np.sqrt(f), np.abs(math.sqrt(s) * (U1 - U2) - B), rtol=1e-9,
                                   atol=1e-9 * n * d)


def test_sample_f_spans_chunks():
    trials = _TRIAL_CHUNK + 3
    f = _sample_f(ModelParams(2, 2, 1, 0.5), "planted", trials, make_rng(128))
    assert f.shape == (trials,) and np.isfinite(f).all() and (f >= 0).all()
