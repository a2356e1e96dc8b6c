import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_within_nse

from shufflab import advantage as advantage_mod
from shufflab import make_rng
from shufflab.advantage import (
    advantage_bound_m1,
    advantage_bound_via_chisq,
    advantage_sq_with_patterns,
    estimate_advantage_sq,
)
from shufflab.chisq import (
    chisq_case1_closed,
    chisq_case2_closed,
    evaluate,
)
from shufflab.common import CapacityError, UnsupportedRegimeError
from shufflab.hermite import multiindex_enumerate, multinomial_exact, pattern_pairs, phi_batch
from shufflab.model import ModelParams, sample_planted_batch
from shufflab.oracles import sphere_moment_exact


def _planted_mean(params, D, a_rows, b_rows, samples, seed):
    """One pattern's planted-mean estimate and stderr, read from the advantage breakdown."""
    _, rows = advantage_sq_with_patterns(params, D, samples, make_rng(seed))
    patterns = pattern_pairs(params.n, params.d, params.m, D)
    A = np.array(a_rows).reshape(params.n, params.d)
    B = np.array(b_rows).reshape(params.n, params.m)
    (k,) = np.flatnonzero((patterns.A == A).all(axis=(1, 2)) & (patterns.B == B).all(axis=(1, 2)))
    return rows.mean[k], rows.stderr[k]


def test_phi_mean_empty_pattern_exact():
    params = ModelParams(n=2, d=2, m=1, sigma=0.3)
    mean, stderr = _planted_mean(params, 2, [[0, 0], [0, 0]], [[0], [0]], 100, 80)
    assert mean == 1.0 and stderr == 0.0


def test_phi_mean_odd_pattern_is_zero():
    params = ModelParams(n=2, d=2, m=1, sigma=0.5)
    mean, stderr = _planted_mean(params, 1, [[1, 0], [0, 0]], [[0], [0]], 100_000, 81)
    assert_within_nse(mean, stderr, 0.0, label="odd pattern mean")


def test_phi_mean_matches_sphere_moment():
    # n=1, sigma=0, m=1: the planted mean of the (alpha=(2,0), beta=2)
    # pattern is E[q_1^2] = 1/2 on the circle
    params = ModelParams(n=1, d=2, m=1, sigma=0.0)
    mean, stderr = _planted_mean(params, 4, [[2, 0]], [[2]], 300_000, 82)
    assert_within_nse(mean, stderr, 0.5, label="E[phi] for (2,0)/(2)")


def test_pattern_row_permutation_symmetry():
    # exchangeability: permuting the rows of (A, B) jointly keeps the mean
    params = ModelParams(n=2, d=2, m=1, sigma=0.0)
    m1, se1 = _planted_mean(params, 4, [[2, 0], [0, 0]], [[2], [0]], 200_000, 87)
    m2, se2 = _planted_mean(params, 4, [[0, 0], [2, 0]], [[0], [2]], 200_000, 88)
    z = (m1 - m2) / math.hypot(se1, se2)
    assert abs(z) <= 3.0


def _m1_exact_advantage_sq(n: int, d: int, D: int) -> float:
    """Exact squared advantage for n rows, one response column, zero noise.

    Direct enumeration of the closed-form basis means: a pattern's mean is
    nonzero only when the Y-side exponents are a permutation of the X-side
    row weights, and the mean splits uniformly across the matching row
    pairings.  Summing the squares over all Y-side assignments for a fixed
    (alpha_1, ..., alpha_n) yields the weight prod(multiplicities!)/n! on
    the squared identity-pairing mean.
    """
    alphas = [a for a in multiindex_enumerate(d, D)]
    n_fact = math.factorial(n)
    total = Fraction(0)
    for combo in itertools.product(alphas, repeat=n):
        degree = sum(2 * sum(a) for a in combo)  # beta rows mirror |alpha_i|
        if degree > D:
            continue
        gamma = tuple(sum(a[i] for a in combo) for i in range(d))
        coeff = Fraction(1)
        for a in combo:
            coeff *= multinomial_exact(sum(a), a)
        weights = [sum(a) for a in combo]
        mult = Fraction(1)
        for w in set(weights):
            mult *= math.factorial(weights.count(w))
        mom = sphere_moment_exact(gamma, d)
        total += coeff * mom * mom * mult / n_fact
    return float(total)


def test_m1_exact_oracle_values():
    assert _m1_exact_advantage_sq(1, 2, 3) == 1.0
    assert _m1_exact_advantage_sq(1, 2, 4) == 1.5
    # n=2, d=2, D=4 by hand: empty (1) + paired weight-1 rows (1/2)
    # + single weight-2 rows, halved across the two pairings (1/2)
    assert _m1_exact_advantage_sq(2, 2, 4) == 2.0


def test_estimate_advantage_sq_toy_cases():
    params = ModelParams(n=1, d=2, m=1, sigma=0.0)
    est0 = estimate_advantage_sq(params, 0, 10, make_rng(89))
    assert est0.value_sq == 1.0 and est0.pattern_count == 1

    est3 = estimate_advantage_sq(params, 3, 200_000, make_rng(90))
    assert_within_nse(est3.value_sq, est3.stderr, 1.0, label="adv^2 at D=3")

    est4 = estimate_advantage_sq(params, 4, 200_000, make_rng(91))
    assert_within_nse(est4.value_sq, est4.stderr, 1.5, label="adv^2 at D=4")


def test_estimate_matches_exact_enumeration():
    for n, d, D, seed in ((1, 3, 4, 92), (2, 2, 4, 93)):
        params = ModelParams(n=n, d=d, m=1, sigma=0.0)
        exact = _m1_exact_advantage_sq(n, d, D)
        est = estimate_advantage_sq(params, D, 150_000, make_rng(seed))
        assert_within_nse(est.value_sq, est.stderr, exact, label=f"n={n} d={d} D={D}")


def test_estimate_nondecreasing_in_degree():
    params = ModelParams(n=1, d=2, m=1, sigma=0.0)
    prev = None
    for D in (1, 2, 3, 4):
        est = estimate_advantage_sq(params, D, 100_000, make_rng(94))
        assert est.value_sq >= 1.0 - 3 * est.stderr
        if prev is not None:
            assert est.value_sq >= prev.value_sq - 3 * math.hypot(est.stderr, prev.stderr)
        prev = est


def test_pattern_cap_enforced():
    params = ModelParams(n=4, d=4, m=4, sigma=0.0)
    with pytest.raises(CapacityError) as err:
        estimate_advantage_sq(params, 6, 100, make_rng(95), pattern_cap=1000)
    assert "1000" in str(err.value)


def test_argument_checks_run_before_patterns_are_built(monkeypatch):
    def fail(*args):
        raise AssertionError("patterns built before the argument checks")

    monkeypatch.setattr(advantage_mod, "pattern_pairs", fail)
    with pytest.raises(ValueError, match="samples"):
        advantage_sq_with_patterns(ModelParams(2, 2, 2, 0.5), 4, 1, make_rng(0))


def test_estimate_bits_pinned():
    # values of the prefix-trie kernel this estimator first ran on; == also
    # catches a change of summation order, such as an F-ordered phi_batch
    est, rows = advantage_sq_with_patterns(ModelParams(2, 2, 2, 0.5), 4, 2000, make_rng(5))
    assert est.value_sq == 2.2058570449024817
    assert est.stderr == 0.14157975742544518
    assert rows.mean[123] == -0.05203391665058099
    assert rows.stderr[123] == 0.03334152861916319
    # the array square; a scalar float64 ** rounds this one up in the last bit
    assert rows.squared_contribution[376] == -0.0002599113478536563


def _per_batch_reference(params, D, samples, rng):
    """The estimator with one sampler call, QR and Hermite table per jackknife batch.

    Returns (value_sq, stderr, mean, mean_var).
    """
    patterns = pattern_pairs(params.n, params.d, params.m, D)

    n_batches = min(20, samples)
    sizes = [samples // n_batches + (1 if b < samples % n_batches else 0) for b in range(n_batches)]
    K = len(patterns)
    sum1 = np.zeros((n_batches, K))
    sum2 = np.zeros((n_batches, K))
    for b, size in enumerate(sizes):
        X, Y = sample_planted_batch(params, size, rng)
        vals = phi_batch(patterns, X, Y)
        sum1[b] = vals.sum(axis=0)
        sum2[b] = (vals * vals).sum(axis=0)

    def sum_of_squares(s1, s2, n):
        mean = s1 / n
        var = (s2 - n * mean**2) / (n - 1)
        contrib = mean**2 - var / n
        return mean, var, float(contrib.sum())

    mean, var, value = sum_of_squares(sum1.sum(axis=0), sum2.sum(axis=0), samples)
    loo = np.empty(n_batches)
    for b in range(n_batches):
        s1 = sum1.sum(axis=0) - sum1[b]
        s2 = sum2.sum(axis=0) - sum2[b]
        _, _, loo[b] = sum_of_squares(s1, s2, samples - sizes[b])
    stderr = math.sqrt((n_batches - 1) / n_batches * float(((loo - loo.mean()) ** 2).sum()))
    return value, stderr, mean, var / samples


@pytest.mark.parametrize(
    "params, D, samples",
    [
        (ModelParams(2, 2, 2, 0.5), 4, 2000),
        (ModelParams(2, 2, 2, 0.5), 4, 2003),  # unequal batches
        (ModelParams(2, 2, 2, 0.5), 4, 7),  # fewer samples than batches
        (ModelParams(1, 2, 1, 0.0), 4, 2000),
        (ModelParams(3, 2, 1, 0.4), 3, 600),
    ],
)
def test_shared_draw_matches_per_batch_draws(params, D, samples):
    est, rows = advantage_sq_with_patterns(params, D, samples, make_rng(21))
    value, stderr, mean, mean_var = _per_batch_reference(params, D, samples, make_rng(21))
    assert est.value_sq == value and est.stderr == stderr
    assert np.array_equal(rows.mean, mean) and np.array_equal(rows.mean_var, mean_var)


def test_shared_draw_spanning_chunks_matches_per_batch_draws(monkeypatch):
    calls = []

    def counted(params, sizes, rng):
        calls.append(sum(sizes))
        return sample_planted_batches(params, sizes, rng)

    sample_planted_batches = advantage_mod.sample_planted_batches
    monkeypatch.setattr(advantage_mod, "sample_planted_batches", counted)
    params = ModelParams(2, 2, 2, 0.5)
    est, rows = advantage_sq_with_patterns(params, 4, 20_000, make_rng(22))
    assert len(calls) >= 2 and sum(calls) == 20_000
    value, stderr, mean, mean_var = _per_batch_reference(params, 4, 20_000, make_rng(22))
    assert est.value_sq == value and est.stderr == stderr
    assert np.array_equal(rows.mean, mean) and np.array_equal(rows.mean_var, mean_var)


def test_estimate_memory_stays_per_batch():
    # 200,000 samples of 495 patterns: the (samples, K) matrix would be 792 MB,
    # one jackknife batch block (with its square) 2 x 39.6 MB
    params, samples = ModelParams(2, 2, 2, 0.5), 200_000
    block_bytes = samples // 20 * 495 * 8
    pattern_pairs(2, 2, 2, 4)  # the cached stack is not the estimate's memory
    tracemalloc.start()
    try:
        advantage_sq_with_patterns(params, 4, samples, make_rng(24))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block_bytes + 4 * advantage_mod.DRAW_CHUNK_BYTES + block_bytes // 4
    assert peak < samples * 495 * 8 / 8


def test_per_pattern_breakdown_sums_to_total():
    params = ModelParams(n=1, d=2, m=1, sigma=0.0)
    est, rows = advantage_sq_with_patterns(params, 4, 50_000, make_rng(96))
    assert len(rows.mean) == est.pattern_count
    total = sum(rows.squared_contribution)
    assert math.isclose(total, est.value_sq, rel_tol=1e-12)
    assert rows.mean[0] == 1.0 and rows.degree[0] == 0


def test_bound_m1_base_cases_and_monotonicity():
    assert advantage_bound_m1(2, 0) == 1.0
    assert advantage_bound_m1(2, 1) == 1.0
    values = [advantage_bound_m1(2, D) for D in (1, 2, 3, 4)]
    assert values == sorted(values)


def test_bound_m1_matches_brute_force():
    # independent enumeration over ordered tuples, exact arithmetic
    for d, D in ((2, 2), (2, 3), (3, 2)):
        alphas = [a for a in multiindex_enumerate(d, D) if 0 < sum(a)]
        total = Fraction(1)
        for k in range(1, D + 1):
            for tup in itertools.product(alphas, repeat=k):
                gamma = tuple(sum(t[i] for t in tup) for i in range(d))
                w = Fraction(1)
                for a in tup:
                    w *= multinomial_exact(sum(a), a)
                mom = sphere_moment_exact(gamma, d)
                total += w * mom * mom
        assert math.isclose(advantage_bound_m1(d, D), float(total), rel_tol=1e-12)


def _lattice_bound_m1(d: int, D: int) -> Fraction:
    """The single-column bound by dynamic programming over the summed exponent.

    Tuple weights W_k(gamma) = sum over (alpha_1, ..., alpha_k) adding to
    gamma of prod_i multinomial(|alpha_i|, alpha_i) are built by convolving
    with the one-element weights, one tuple length at a time, and each even
    gamma adds W_k(gamma) times its squared sphere moment.
    """
    base = {
        alpha: Fraction(multinomial_exact(sum(alpha), alpha))
        for alpha in multiindex_enumerate(d, D)
        if sum(alpha)
    }
    total = Fraction(1)
    weights = dict(base)
    for k in range(1, D + 1):
        for gamma, w in weights.items():
            if all(g % 2 == 0 for g in gamma):
                total += w * sphere_moment_exact(gamma, d) ** 2
        if k == D:
            break
        nxt: dict[tuple[int, ...], Fraction] = {}
        for gamma, w in weights.items():
            for alpha, wa in base.items():
                key = tuple(g + a for g, a in zip(gamma, alpha))
                nxt[key] = nxt.get(key, 0) + w * wa
        weights = nxt
    return total


def test_bound_m1_matches_lattice_dp_bitwise():
    grid = [(d, D) for d in (1, 2) for D in range(8)]
    grid += [(3, D) for D in range(6)]
    grid += [(d, D) for d in (4, 5, 6) for D in range(4)]
    for d, D in grid:
        assert advantage_bound_m1(d, D) == float(_lattice_bound_m1(d, D)), (d, D)


def test_bound_m1_d1_counts_even_tuples():
    # at d = 1 every sphere moment is 1, so the bound is 1 plus the number of
    # tuples of k <= D parts in [1, D] with an even total
    expected = [1, 1, 4, 20, 171, 1953, 27994]
    for D, want in enumerate(expected):
        count = sum(
            sum(tup) % 2 == 0
            for k in range(1, D + 1)
            for tup in itertools.product(range(1, D + 1), repeat=k)
        )
        assert 1 + count == want
        assert advantage_bound_m1(1, D) == float(want)


def test_bound_m1_dominates_estimate():
    params = ModelParams(n=1, d=2, m=1, sigma=0.0)
    est = estimate_advantage_sq(params, 4, 100_000, make_rng(97))
    assert advantage_bound_m1(2, 4) >= est.value_sq - 3 * est.stderr


def test_bound_m1_caps():
    with pytest.raises(CapacityError):
        advantage_bound_m1(7, 2)
    with pytest.raises(CapacityError):
        advantage_bound_m1(2, 9)
    # everywhere inside the policy box the closed form is cheap and well behaved
    start = time.perf_counter()
    box = {(d, D): advantage_bound_m1(d, D) for d in range(1, 7) for D in range(9)}
    assert time.perf_counter() - start < 1.0
    for (d, D), value in box.items():
        assert math.isfinite(value) and value >= 1.0
        if D > 0:
            assert value >= box[d, D - 1]
        if d > 1 and D >= 2:
            assert value < box[d - 1, D]


def test_bound_via_chisq_closed_route():
    got = advantage_bound_via_chisq(50, 2, 0.0, 2)
    want = 1.0 + (chisq_case1_closed(50, 2, 1).value - 1.0) + (
        chisq_case1_closed(50, 2, 2).value - 1.0
    )
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(chisq_case1_closed(50, 2, 1).value, 24 / 23, rel_tol=1e-12)

    mixed = advantage_bound_via_chisq(40, 1, 0.0, 2)  # k=1 case1, k=2 case2
    want = 1.0 + (chisq_case1_closed(40, 1, 1).value - 1.0) + (
        chisq_case2_closed(40, 1, 2).value - 1.0
    )
    assert math.isclose(mixed, want, rel_tol=1e-12)


def test_bound_via_chisq_mc_route():
    value = advantage_bound_via_chisq(40, 40, 10.0, 2, samples=20_000, rng=make_rng(98))
    assert 1.0 <= value <= 1.2


def test_bound_via_chisq_sums_evaluate_on_one_stream():
    got = advantage_bound_via_chisq(40, 40, 10.0, 2, samples=20_000, rng=make_rng(98))
    rng = make_rng(98)
    want = 1.0
    for k in (1, 2):
        want += evaluate(40, 40, k, 10.0, "mc", 20_000, rng).value - 1.0
    assert got == want


def test_bound_via_chisq_unsupported_regimes():
    with pytest.raises(UnsupportedRegimeError) as err:
        advantage_bound_via_chisq(40, 40, 0.0, 1)  # sigma=0 with m=d
    assert "d=40" in str(err.value) and "sigma=0" in str(err.value)
    with pytest.raises(UnsupportedRegimeError):
        advantage_bound_via_chisq(40, 20, 1.0, 1)  # sigma>0 with m != d
    with pytest.raises(ValueError):
        advantage_bound_via_chisq(40, 40, 1.0, 1)  # mc path without rng


def test_bound_via_chisq_dominates_estimate():
    params = ModelParams(n=2, d=12, m=1, sigma=0.0)
    est = estimate_advantage_sq(params, 2, 60_000, make_rng(99))
    bound = advantage_bound_via_chisq(12, 1, 0.0, 2)
    assert bound >= est.value_sq - 3 * est.stderr
