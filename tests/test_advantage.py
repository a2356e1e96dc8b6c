import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from conftest import assert_within_nse, even_column_sums

from shufflab import advantage as advantage_mod
from shufflab import chisq as chisq_mod
from shufflab import make_rng
from shufflab.advantage import (
    advantage_bound_m1,
    advantage_bound_via_chisq,
    advantage_sq_with_patterns,
    check_cell,
    estimate_advantage_sq,
)
from shufflab.chisq import evaluate
from shufflab.common import CapacityError, UnsupportedRegimeError
from shufflab.hermite import multiindex_enumerate, pattern_pairs, side_split
from shufflab.model import ModelParams
from shufflab.oracles import (
    advantage_sq_planted_mc,
    multinomial_exact,
    phi_batch,
    sphere_moment_exact,
)
from shufflab.randmat import qr_sign_fixed


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
    # C(38, 6) = 2,760,681 patterns, above the cap of 10^6
    params = ModelParams(n=4, d=4, m=4, sigma=0.0)
    with pytest.raises(CapacityError) as err:
        estimate_advantage_sq(params, 6, 100, make_rng(95))
    assert "1000000" in str(err.value)


def test_argument_checks_run_before_patterns_are_built(monkeypatch):
    def fail(*args):
        raise AssertionError("patterns built before the argument checks")

    monkeypatch.setattr(advantage_mod, "pattern_pairs", fail)
    with pytest.raises(ValueError, match="samples"):
        advantage_sq_with_patterns(ModelParams(2, 2, 2, 0.5), 4, 1, make_rng(0))


@pytest.mark.parametrize("D, samples, error, text", [
    (-1, 100, ValueError, "need D >= 0"),
    (0, 1, ValueError, "samples must be >= 3"),  # at D = 0 too, which draws nothing
    (4, 0, ValueError, "samples must be >= 3"),
    (4, 2, ValueError, "samples must be >= 3"),  # two one-sample batches: no jackknife
    (6, 100, CapacityError, "1000000"),  # C(38, 6) = 2,760,681 patterns
])
def test_check_cell_refuses_before_any_draw(D, samples, error, text):
    params = ModelParams(4, 4, 4, 0.5)
    with pytest.raises(error, match=text):
        check_cell(params, D, samples)
    rng = make_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(error, match=text):
        advantage_sq_with_patterns(params, D, samples, rng)
    assert rng.bit_generator.state == before
    check_cell(params, 2, 3)  # 561 patterns and three samples pass


def test_estimate_bits_pinned():
    # values of the Rao-Blackwellized graded kernel with closed-form 2x2 Q
    # draws; == also catches a change of summation order, such as a different
    # block split or an F-ordered table.  The sums come from OpenBLAS
    # dgemm/gemv, whose kernel OpenBLAS picks by CPU type: on another CPU these
    # pins may move in the last bits with no regression (the tolerance tests
    # below still hold); on one machine they repeat exactly.  Pattern 123 has
    # an odd column sum, so it reads an exact 0 +- 0.
    est, rows = advantage_sq_with_patterns(ModelParams(2, 2, 2, 0.5), 4, 2000, make_rng(5))
    assert est.value_sq == 2.367741280167711
    assert est.stderr == 0.11746424343799969
    assert rows.mean[170] == 0.0038225179983763097
    assert rows.stderr[170] == 0.008623973819122978
    assert rows.squared_contribution[229] == 0.05273774345503233
    assert rows.mean[123] == 0.0 and rows.stderr[123] == 0.0


def _parity_odd(patterns):
    """Patterns with an odd column sum in A or in B, read off the stack: their planted mean is 0."""
    return ~(even_column_sums(patterns.A) & even_column_sums(patterns.B))


def _conditional_mean_reference(params, D, samples, rng):
    """The estimator as a per-sample loop over the same normals.

    Sample s takes X from the stream's normals s*(nd + dm) .. and Q's Gaussian
    from the dm after them.  Its summand for pattern (A, B) is
    phi_A(X) rho^|B| times the mean over all n! row orders pi of
    phi_B(Y0[pi]), Y0 = X Q: every distinct row permutation of B is hit
    equally often.  A pattern with an odd column sum in A or in B has
    planted mean 0, and its summand is set to 0.  Returns (value_sq, stderr,
    mean, mean_var).
    """
    n, d, m = params.n, params.d, params.m
    patterns = pattern_pairs(n, d, m, D)
    rho_b = ~_parity_odd(patterns) * (1.0 + params.sigma**2) ** (-0.5 * patterns.B.sum(axis=(1, 2)))
    orders = np.array(list(itertools.permutations(range(n))))

    n_batches = min(20, samples)
    sizes = [samples // n_batches + (1 if b < samples % n_batches else 0) for b in range(n_batches)]
    K = len(patterns)
    sum1 = np.zeros((n_batches, K))
    sum2 = np.zeros((n_batches, K))
    draws = iter(rng.standard_normal((samples, n * d + d * m)))
    for b, size in enumerate(sizes):
        for _ in range(size):
            row = next(draws)
            X = row[: n * d].reshape(n, d)
            Y0 = X @ qr_sign_fixed(row[n * d :].reshape(d, m))
            Xs = np.broadcast_to(X, (len(orders), n, d))
            summand = phi_batch(patterns, Xs, Y0[orders]).mean(axis=0) * rho_b
            sum1[b] += summand
            sum2[b] += summand * summand

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


def _assert_matches_reference(est, rows, reference):
    # the kernel sums U V^T by BLAS and averages an orbit before weighting it,
    # where the reference sums sample by sample, so the last bits differ; the
    # draws are the same
    value, stderr, mean, mean_var = reference
    assert est.value_sq == pytest.approx(value, rel=1e-12, abs=0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
    np.testing.assert_allclose(rows.mean, mean, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(rows.mean_var, mean_var, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "params, D, samples",
    [
        (ModelParams(2, 2, 2, 0.5), 4, 2000),
        (ModelParams(2, 2, 2, 0.5), 4, 2003),  # unequal batches
        (ModelParams(2, 2, 2, 0.5), 4, 7),  # fewer samples than batches
        (ModelParams(1, 2, 1, 0.0), 4, 2000),
        (ModelParams(3, 2, 1, 0.4), 3, 600),
        (ModelParams(3, 2, 2, 1.0), 6, 400),  # 18,564 patterns in seven graded blocks
    ],
)
def test_shared_draw_matches_per_batch_draws(params, D, samples):
    est, rows = advantage_sq_with_patterns(params, D, samples, make_rng(21))
    reference = _conditional_mean_reference(params, D, samples, make_rng(21))
    _assert_matches_reference(est, rows, reference)


def test_shared_draw_spanning_chunks_matches_per_batch_draws(monkeypatch):
    calls = []

    def counted(split, params, count, size, rng, workspace):
        calls.append((count, size))
        return chunk_moment_sums(split, params, count, size, rng, workspace)

    chunk_moment_sums = advantage_mod._chunk_moment_sums
    monkeypatch.setattr(advantage_mod, "_chunk_moment_sums", counted)
    params = ModelParams(2, 2, 2, 0.5)
    # the first three batches hold 1,001 samples and the other 17 hold 1,000;
    # each call draws (count, size): batches of one size, the larger size first.
    # The workspace takes 118 doubles a sample here (26 + 26 rows of U and V,
    # 5 x 8 of the table, 26 of the gather), so 2^23 bytes hold 8 batches.
    assert sum(advantage_mod._workspace_rows(side_split(2, 2, 2, 4), params)) == 118
    budgets = {
        1: [(1, 1001)] * 3 + [(1, 1000)] * 17,
        1 << 23: [(3, 1001), (8, 1000), (8, 1000), (1, 1000)],
        1 << 40: [(3, 1001), (17, 1000)],
    }
    runs = []
    for chunk_bytes, want_calls in budgets.items():
        calls.clear()
        monkeypatch.setattr(advantage_mod, "DRAW_CHUNK_BYTES", chunk_bytes)
        runs.append(advantage_sq_with_patterns(params, 4, 20_003, make_rng(22)))
        assert calls == want_calls
    # each sample is one stretch of the stream, so the chunking moves no bit
    (est, rows), *others = runs
    for other_est, other_rows in others:
        assert other_est == est
        assert np.array_equal(other_rows.mean, rows.mean)
        assert np.array_equal(other_rows.mean_var, rows.mean_var)


# One (n, d, m, D) cell per row count: row orbits of size 1, up to 2 and up to 6.
ORACLE_CELLS = {1: (2, 2, 4), 2: (2, 2, 4), 3: (2, 1, 4)}
ORACLE_SAMPLES = 20_000
# per-pattern means: family-wise false-alarm rate 1e-3 over the K patterns, Bonferroni
ORACLE_FAMILY_ALPHA = 1e-3


@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", sorted(ORACLE_CELLS))
def test_estimate_matches_full_draw_oracle(n, sigma):
    d, m, D = ORACLE_CELLS[n]
    params = ModelParams(n, d, m, sigma)
    seed = 100 + 10 * n + int(2 * sigma)
    est, rows = advantage_sq_with_patterns(params, D, ORACLE_SAMPLES, make_rng(seed))
    ref, ref_rows = advantage_sq_planted_mc(params, D, ORACLE_SAMPLES, make_rng(seed + 1000))
    assert est.pattern_count == ref.pattern_count == len(ref_rows.mean)
    assert abs(est.value_sq - ref.value_sq) <= 4 * math.hypot(est.stderr, ref.stderr)

    se = np.hypot(rows.stderr, ref_rows.stderr)
    exact = se == 0.0
    assert np.array_equal(rows.mean[exact], ref_rows.mean[exact])
    z = np.abs(rows.mean - ref_rows.mean)[~exact] / se[~exact]
    limit = NormalDist().inv_cdf(1 - ORACLE_FAMILY_ALPHA / (2 * len(rows.mean)))
    assert z.max() <= limit, (z.max(), limit)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("n, d, m", [(2, 2, 2), (3, 2, 1)])
def test_dropped_patterns_have_zero_mean_by_oracle(n, d, m, sigma):
    # the full-draw oracle evaluates every pattern: each parity-odd one's mean
    # is 0 within the Bonferroni limit above, and the estimator reports 0 +- 0
    params = ModelParams(n, d, m, sigma)
    seed = 200 + 10 * n + int(2 * sigma)
    _, rows = advantage_sq_with_patterns(params, 4, 2000, make_rng(seed))
    _, ref_rows = advantage_sq_planted_mc(params, 4, ORACLE_SAMPLES, make_rng(seed + 1000))
    odd = _parity_odd(pattern_pairs(n, d, m, 4))
    assert odd.any() and not rows.mean[odd].any() and not rows.stderr[odd].any()
    z = np.abs(ref_rows.mean[odd]) / ref_rows.stderr[odd]
    limit = NormalDist().inv_cdf(1 - ORACLE_FAMILY_ALPHA / (2 * len(rows.mean)))
    assert z.max() <= limit, (z.max(), limit)


@pytest.mark.parametrize(
    "params, D",
    [
        (ModelParams(1, 2, 1, 0.0), 2),
        (ModelParams(1, 2, 1, 0.0), 4),
        (ModelParams(2, 2, 2, 0.5), 4),
        (ModelParams(3, 2, 1, 0.4), 2),
    ],
)
def test_odd_degree_adds_nothing(params, D):
    # a pattern of odd total degree has an odd column sum on one side, so its
    # mean is 0: the estimate at D + 1 is the one at D, bit for bit
    est, rows = advantage_sq_with_patterns(params, D, 2003, make_rng(25))
    odd_est, odd_rows = advantage_sq_with_patterns(params, D + 1, 2003, make_rng(25))
    assert (odd_est.value_sq, odd_est.stderr) == (est.value_sq, est.stderr)
    K = est.pattern_count
    assert odd_est.pattern_count > K
    # graded order: the first K patterns at D + 1 are those at D
    assert np.array_equal(odd_rows.mean[:K], rows.mean)
    assert np.array_equal(odd_rows.mean_var[:K], rows.mean_var)
    assert not odd_rows.mean[K:].any() and not odd_rows.mean_var[K:].any()


def test_conditional_mean_cuts_stderr_at_high_noise():
    # at sigma = 3 most of a full draw's variance is the noise the estimator integrates out
    params = ModelParams(2, 2, 2, 3.0)
    est, _ = advantage_sq_with_patterns(params, 4, ORACLE_SAMPLES, make_rng(140))
    ref, _ = advantage_sq_planted_mc(params, 4, ORACLE_SAMPLES, make_rng(141))
    assert 2 * est.stderr <= ref.stderr, (est.stderr, ref.stderr)


def test_estimate_memory_stays_per_batch():
    # 200,000 samples of 495 patterns: the (samples, K) matrix would be 792 MB
    # and one jackknife batch's (10,000, K) block 39.6 MB.  The kernel holds
    # one batch's draws and table (8 slots x 6 doubles a sample) and its
    # 26-row U and V, the even-column-sum sides, with the gather temporaries
    # (2 x 52): 12.2 MB as the chunk budget counts it, with nothing left over
    # from the previous batch.
    params, samples = ModelParams(2, 2, 2, 0.5), 200_000
    split = side_split(2, 2, 2, 4)  # cached, like the pattern stack: not the estimate's memory
    assert (len(split.x_degrees), len(split.y_degrees)) == (26, 26)
    batch_bytes = samples // 20 * 8 * (8 * 6 + 2 * (26 + 26))
    tracemalloc.start()
    try:
        advantage_sq_with_patterns(params, 4, samples, make_rng(24))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch_bytes
    assert peak < samples // 20 * 495 * 8


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the minor page faults of glibc's heap",
)
def test_estimates_reuse_their_workspace_pages():
    # A fresh interpreter, so that no other test shapes the heap.  glibc maps the
    # first workspace of a process and raises its mmap threshold when it is freed,
    # so the second estimate's workspace is the first on the heap; the later ones
    # reuse its pages.  A kernel that frees short-lived tables of 0.4-0.6 MB
    # between estimates faults them in again: about 210 pages an estimate here.
    code = textwrap.dedent("""
        import resource
        from shufflab import make_rng
        from shufflab.advantage import estimate_advantage_sq
        from shufflab.model import ModelParams

        params = ModelParams(2, 2, 2, 0.5)
        for seed in range(2):
            estimate_advantage_sq(params, 4, 2000, make_rng(seed))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(2, 52):
            estimate_advantage_sq(params, 4, 2000, make_rng(seed))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    src = str(Path(advantage_mod.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 50


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
    want = 1.0 + (evaluate(50, 2, 1, 0.0, "closed").value - 1.0) + (
        evaluate(50, 2, 2, 0.0, "closed").value - 1.0
    )
    assert math.isclose(got, want, rel_tol=1e-12)
    assert math.isclose(evaluate(50, 2, 1, 0.0, "closed").value, 24 / 23, rel_tol=1e-12)

    mixed = advantage_bound_via_chisq(40, 1, 0.0, 2)  # k=1 case1, k=2 case2
    want = 1.0 + (evaluate(40, 1, 1, 0.0, "closed").value - 1.0) + (
        evaluate(40, 1, 2, 0.0, "closed").value - 1.0
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


def test_bound_via_chisq_checks_every_k_before_any_evaluation(monkeypatch):
    # k = 1..3 are inside the noiseless regimes at d = 12, m = 1, and k = 4 is not
    # (d - 3k < m): the bound is refused before k = 1 is evaluated
    calls = []
    monkeypatch.setattr(chisq_mod, "evaluate", lambda *args: calls.append(args))
    with pytest.raises(UnsupportedRegimeError, match="k=4"):
        advantage_bound_via_chisq(12, 1, 0.0, 5)
    assert calls == []


def test_bound_via_chisq_checks_the_exact_work_of_every_k(monkeypatch):
    # at d = 6000, m = 1000 the closed forms of k = 1..402 fit the bits cap and k = 403
    # does not: the bound is refused before k = 1 is evaluated
    calls = []
    monkeypatch.setattr(chisq_mod, "evaluate", lambda *args: calls.append(args))
    with pytest.raises(CapacityError, match="k=403"):
        advantage_bound_via_chisq(6000, 1000, 0.0, 403)
    assert calls == []


def test_bound_via_chisq_above_the_largest_double_is_inf():
    # at k = 200 the case-2 closed form is about 2**1482 (test_chisq), so the bound is +inf
    assert advantage_bound_via_chisq(620, 20, 0.0, 200) == math.inf
    assert math.isfinite(advantage_bound_via_chisq(620, 10, 0.0, 200))


def test_bound_via_chisq_stops_at_the_first_inf_term(monkeypatch):
    # every term chi^2_k - 1 is >= 0: at d = 6000, m = 1000 the closed form first
    # reads inf at k = 88, and k = 89..402 (73 s of exact work) are not evaluated
    ks = []
    real = chisq_mod.evaluate

    def counted(d, m, k, *args):
        ks.append(k)
        return real(d, m, k, *args)

    monkeypatch.setattr(chisq_mod, "evaluate", counted)
    start = time.perf_counter()
    assert advantage_bound_via_chisq(6000, 1000, 0.0, 402) == math.inf
    assert time.perf_counter() - start < 2.0
    assert ks == list(range(1, 89))
    assert real(6000, 1000, 87, 0.0, "closed").value < math.inf


def test_bound_via_chisq_dominates_estimate():
    params = ModelParams(n=2, d=12, m=1, sigma=0.0)
    est = estimate_advantage_sq(params, 2, 60_000, make_rng(99))
    bound = advantage_bound_via_chisq(12, 1, 0.0, 2)
    assert bound >= est.value_sq - 3 * est.stderr
