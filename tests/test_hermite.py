import math

import numpy as np
import pytest
from conftest import assert_within_nse, mean_and_stderr
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflab import make_rng
from shufflab.hermite import (
    PatternStack,
    expand_inner_product,
    hermite_table,
    lambda_m1_closed,
    lambda_mc_pairs,
    multiindex_enumerate,
    pattern_count,
    pattern_pairs,
    phi_batch,
)
from shufflab.model import ModelParams, sample_null
from shufflab.randmat import uniform_sphere


def test_hermite_low_degrees():
    assert hermite_table(3.7, 0)[0] == 1.0
    assert hermite_table(2.0, 1)[1] == 2.0
    # degree 2: (z^2 - 1)/sqrt(2) at z = 2
    assert math.isclose(hermite_table(2.0, 2)[2], 3 / math.sqrt(2), rel_tol=1e-15)


@given(st.integers(0, 20), st.floats(-8, 8))
@settings(max_examples=200)
def test_hermite_matches_numpy_hermite_e(degree, z):
    # independent oracle: numpy's probabilists' Hermite evaluated raw, then normalized
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    expected = np.polynomial.hermite_e.hermeval(z, coeffs) / math.sqrt(math.factorial(degree))
    got = hermite_table(z, degree)[degree]
    assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)


@given(st.integers(1, 20), st.floats(-10, 10))
@settings(max_examples=100)
def test_three_term_recurrence_consistency(m, z):
    lhs = hermite_table(z, m + 1)[m + 1] * math.sqrt(m + 1)
    rhs = z * hermite_table(z, m)[m] - math.sqrt(m) * hermite_table(z, m - 1)[m - 1]
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def test_high_degree_stays_finite():
    for z in (-10.0, -1.0, 0.3, 10.0):
        assert math.isfinite(hermite_table(z, 200)[200])


def _stack(A, B) -> PatternStack:
    """One pattern with (n, d) X-degrees A and (n, m) Y-degrees B, as a stack of one."""
    return PatternStack(np.array(A, dtype=int)[None], np.array(B, dtype=int)[None])


def test_hermite_multi_basics():
    pat = _stack([(0, 0, 0)], [[0]])
    assert phi_batch(pat, [[[1.0, -2.0, 0.5]]], [[[0.0]]])[0, 0] == 1.0
    assert phi_batch(_stack([(1, 0)], [[0]]), [[[3.0, 5.0]]], [[[0.0]]])[0, 0] == 3.0
    with pytest.raises(ValueError):
        phi_batch(_stack([(1, 0)], [[0]]), [[[3.0, 5.0, 7.0]]], [[[0.0]]])


def test_hermite_multi_orthonormality_small():
    # strict 3-sigma family: d = 2, weight <= 2 (21 distinct pairs)
    rng = make_rng(40)
    x = rng.standard_normal((400_000, 2))
    idxs = [a for a in multiindex_enumerate(2, 2)]
    pats = PatternStack(np.array(idxs)[:, None, :], np.zeros((len(idxs), 1, 1), int))
    vals = phi_batch(pats, x[:, None], np.zeros((len(x), 1, 1)))
    for i, a in enumerate(idxs):
        for j, b in enumerate(idxs):
            if j < i:
                continue
            m, se = mean_and_stderr(vals[:, i] * vals[:, j])
            target = 1.0 if a == b else 0.0
            if se == 0.0:
                assert m == target
            else:
                assert_within_nse(m, se, target, label=f"gram ({a},{b})")


def test_phi_empty_pattern_is_one():
    params = ModelParams(n=3, d=2, m=2, sigma=0.0)
    inst = sample_null(params, make_rng(41))
    pat = _stack(np.zeros((3, 2), int), np.zeros((3, 2), int))
    assert phi_batch(pat, inst.X[None], inst.Y[None])[0, 0] == 1.0


def test_phi_shape_mismatch_rejected():
    params = ModelParams(n=3, d=2, m=2, sigma=0.0)
    inst = sample_null(params, make_rng(42))
    pat = _stack(np.zeros((2, 2), int), np.zeros((2, 2), int))
    with pytest.raises(ValueError):
        phi_batch(pat, inst.X[None], inst.Y[None])


def test_phi_null_mean_zero_for_nonempty_patterns():
    rng = make_rng(43)
    X = rng.standard_normal((200_000, 2, 2))
    Y = rng.standard_normal((200_000, 2, 2))
    all_pats = pattern_pairs(2, 2, 2, 2)
    assert all_pats.degrees[0] == 0 and (all_pats.degrees[1:] > 0).all()
    pats = PatternStack(all_pats.A[1:11], all_pats.B[1:11])
    vals = phi_batch(pats, X, Y)
    for j in range(vals.shape[1]):
        m, se = mean_and_stderr(vals[:, j])
        assert_within_nse(m, se, 0.0, label=f"E[phi_{j}]")


def test_phi_batch_agrees_with_scalar_phi():
    params = ModelParams(n=2, d=3, m=1, sigma=0.0)
    rng = make_rng(44)
    X = rng.standard_normal((7, 2, 3))
    Y = rng.standard_normal((7, 2, 1))
    pats = pattern_pairs(2, 3, 1, 3)
    vals = phi_batch(pats, X, Y)

    def hermite_e(x, a):
        # independent route: numpy's probabilists' Hermite, then normalized
        return np.polynomial.hermite_e.hermeval(x, np.eye(a + 1)[a]) / math.sqrt(math.factorial(a))

    for s in (0, 3, 6):
        slots = np.concatenate([X[s].ravel(), Y[s].ravel()])
        for j in (0, 5, len(pats) // 2, len(pats) - 1):
            degs = np.concatenate([pats.A[j].ravel(), pats.B[j].ravel()])
            expected = math.prod(hermite_e(x, a) for x, a in zip(slots, degs))
            assert math.isclose(vals[s, j], expected, rel_tol=1e-12, abs_tol=1e-12)


def test_phi_rejects_shapes_with_matching_slot_count():
    # six slots on both sides, but A is (2, 1) against X's (2, 2): B[1, 1]
    # would land on Y[0, 1, 0], a slot B does not have
    pat = _stack([[0], [0]], [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        phi_batch(pat, np.ones((1, 2, 2)), np.full((1, 2, 1), 2.0))


def _prefix_phi(patterns, X, Y):
    """phi_batch by a prefix trie over the patterns sorted lexicographically.

    Shared slot prefixes are multiplied once and zero-degree slots are
    skipped.  The slot-major kernel must match it bit for bit.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    S = X.shape[0]
    K = len(patterns)
    degs = np.concatenate([patterns.A.reshape(K, -1), patterns.B.reshape(K, -1)], axis=1)
    nslots = degs.shape[1]
    slots = np.concatenate([X.reshape(S, -1), Y.reshape(S, -1)], axis=1)
    table = hermite_table(slots, int(degs.max(initial=0)))  # (S, nslots, maxdeg+1)
    order = np.lexsort(degs[:, ::-1].T)
    out = np.empty((S, K))
    prefixes = [np.ones(S)] + [None] * nslots
    prev = None
    for idx in order:
        row = degs[idx]
        if prev is None:
            start = 0
        else:
            diff = np.nonzero(row != prev)[0]
            start = int(diff[0]) if diff.size else nslots
        for c in range(start, nslots):
            dg = int(row[c])
            prefixes[c + 1] = prefixes[c] if dg == 0 else prefixes[c] * table[:, c, dg]
        out[:, idx] = prefixes[nslots]
        prev = row
    return out


@pytest.mark.parametrize("n,d,m,D", [(2, 2, 2, 4), (3, 2, 2, 4), (1, 2, 1, 4), (2, 3, 1, 3)])
def test_phi_batch_matches_prefix_trie_bitwise(n, d, m, D):
    # (3, 2, 2, 4) has 1,820 patterns, so its S = 100 spans several sample blocks
    pats = pattern_pairs(n, d, m, D)
    rng = make_rng(45)
    for S in (1, 100):
        X = rng.standard_normal((S, n, d))
        Y = rng.standard_normal((S, n, m))
        got = phi_batch(pats, X, Y)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _prefix_phi(pats, X, Y))


def test_pattern_pairs_cache_is_read_only():
    pats = pattern_pairs(2, 2, 1, 3)
    assert pattern_pairs(2, 2, 1, 3) is pats
    for array in (pats.A, pats.B, pats.slot_degrees, pats.degrees):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_pattern_pairs_stack_layout():
    pats = pattern_pairs(2, 2, 2, 4)
    vecs = multiindex_enumerate(8, 4)
    assert isinstance(pats, PatternStack)
    assert len(pats) == len(vecs) == 495
    for i in (0, 1, 7, 200, 494, -1):
        vec = np.array(vecs[i])
        assert np.array_equal(pats.A[i], vec[:4].reshape(2, 2))
        assert np.array_equal(pats.B[i], vec[4:].reshape(2, 2))
        assert np.array_equal(pats.slot_degrees[i], vec)
        assert pats.degrees[i] == vec.sum()


def test_expand_inner_product_coordinate_vector():
    table = expand_inner_product(np.array([1.0, 0.0]), 3)
    entries = {a: c for a, c in table.entries.items() if c != 0.0}
    assert entries == {(3, 0): 1.0}


def test_expand_inner_product_pointwise_identity():
    y = np.array([1.0, 1.0]) / math.sqrt(2)
    x = np.array([0.3, -1.7])
    table = expand_inner_product(y, 2)
    lhs = hermite_table(x @ y, 2)[2]
    rhs = table.evaluate(x)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-14)


def test_expand_inner_product_parseval():
    rng = make_rng(45)
    for d in (2, 3):
        for deg in range(1, 7):
            y = uniform_sphere(d, rng)
            assert math.isclose(expand_inner_product(y, deg).l2_norm(), 1.0, rel_tol=1e-12)


def test_expand_inner_product_identity_random_points():
    from shufflab.oracles import check_inner_expansion

    res = check_inner_expansion(seed=46)
    assert res.passed, res.detail


def test_expand_inner_product_rejects_non_unit():
    with pytest.raises(ValueError):
        expand_inner_product(np.array([1.0, 1.0]), 2)


def test_lambda_mc_exact_cases():
    q = np.array([[0.6], [0.8]])
    est = lambda_mc_pairs([((0, 0), (0,))], q, 0.0, 10, make_rng(47))[0]
    assert est.value == 1.0 and est.stderr == 0.0
    est = lambda_mc_pairs([((0, 0), (2,))], q, 0.0, 200_000, make_rng(48))[0]
    assert_within_nse(est.value, est.stderr, 0.0, label="Lambda(0, beta)")


def test_lambda_mc_matches_m1_closed_form_example():
    q = np.array([[0.6], [0.8]])
    est = lambda_mc_pairs([((2, 0), (2,))], q, 0.0, 400_000, make_rng(49))[0]
    assert_within_nse(est.value, est.stderr, 0.36, label="Lambda((2,0),(2))")


def test_lambda_m1_closed_values():
    assert lambda_m1_closed((1, 0), 2, (0.6, 0.8)) == 0.0  # |alpha| != beta
    assert lambda_m1_closed((1, 0), 1, (0.6, 0.8)) == 0.6
    got = lambda_m1_closed((1, 1), 2, (0.6, 0.8))
    assert math.isclose(got, math.sqrt(2) * 0.48, rel_tol=1e-14)
    with pytest.raises(ValueError):
        lambda_m1_closed((1, 0), 1, (0.6, 0.9))


def test_lambda_m1_closed_agrees_with_mc():
    rng = make_rng(50)
    draws = 0
    for trial in range(50):
        d = int(rng.integers(2, 5))
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=d))
        if sum(alpha) == 0 or sum(alpha) > 4:
            alpha = (2,) + (0,) * (d - 1)
        beta = sum(alpha) if trial % 5 else sum(alpha) + 1
        qvec = uniform_sphere(d, rng)
        closed = lambda_m1_closed(alpha, beta, qvec)
        est = lambda_mc_pairs([(alpha, (beta,))], qvec[:, None], 0.0, 40_000, rng)[0]
        assert_within_nse(est.value, est.stderr, closed, label=f"alpha={alpha} beta={beta}")
        draws += 1
    assert draws == 50


def test_multiindex_enumerate_small_cases():
    assert multiindex_enumerate(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert multiindex_enumerate(1, 3) == [(0,), (1,), (2,), (3,)]


@given(st.integers(1, 5), st.integers(0, 6))
def test_multiindex_count_and_order(d, w):
    idxs = multiindex_enumerate(d, w)
    assert len(idxs) == math.comb(d + w, w)
    assert len(set(idxs)) == len(idxs)
    keys = [(sum(a), a) for a in idxs]
    assert keys == sorted(keys)  # graded lexicographic


def test_pattern_count_formula():
    assert pattern_count(2, 2, 2, 4) == math.comb(8 + 4, 4) == 495
    assert len(pattern_pairs(2, 2, 2, 4)) == 495
