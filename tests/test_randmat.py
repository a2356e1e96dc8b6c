import math

import numpy as np
import pytest
from conftest import assert_within_nse, mean_and_stderr, two_sample_z
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta, ks_2samp, kstest

from shufflab import ModelParams, make_rng
from shufflab.model import sample_null_batch
from shufflab.randmat import (
    _lapack_sign_fixed,
    haar_verblunsky_batch,
    permutation_batch,
    qr_sign_fixed,
)

ORTHOGONALITY_TOL = 1e-10


def stiefel(d: int, m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, d, m) Haar Stiefel draws, as the planted sampler draws Q; m = d is Haar on O(d)."""
    return qr_sign_fixed(rng.standard_normal((size, d, m)))


def orthogonality_defect(q: np.ndarray) -> float:
    """max |Q^T Q - I|, the residual checked against ORTHOGONALITY_TOL."""
    q = np.asarray(q)
    m = q.shape[-1]
    return float(np.max(np.abs(np.swapaxes(q, -2, -1) @ q - np.eye(m))))


def test_gaussian_determinism():
    a = sample_null_batch(ModelParams(n=2, d=3, m=1, sigma=0.0), 1, make_rng(42))[0][0]
    b = sample_null_batch(ModelParams(n=2, d=3, m=1, sigma=0.0), 1, make_rng(42))[0][0]
    assert np.array_equal(a, b)
    assert a.shape == (2, 3)


def test_gaussian_moments():
    x = sample_null_batch(ModelParams(n=1000, d=1000, m=1, sigma=0.0), 1, make_rng(1))[0][0]
    assert abs(x.mean()) <= 0.01
    assert abs(x.var() - 1.0) <= 0.01


def test_haar_d1_is_signs():
    vals = np.array([stiefel(1, 1, 1, make_rng(2, i))[0, 0, 0] for i in range(10_000)])
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs((vals == 1.0).mean() - 0.5) <= 0.02


def test_haar_orthogonality():
    for d in (1, 3, 10, 50):
        q = stiefel(d, d, 1, make_rng(3, d))[0]
        assert orthogonality_defect(q) <= ORTHOGONALITY_TOL
        assert orthogonality_defect(q.T) <= ORTHOGONALITY_TOL  # rows too


def test_haar_entry_distribution_ks():
    # entry law of a d x d Haar matrix: density proportional to (1-z^2)^{(d-3)/2}
    d, draws = 10, 5000
    samples = np.sort(stiefel(d, d, draws, make_rng(4))[:, 0, 0])
    norm, _ = quad(lambda z: (1 - z * z) ** ((d - 3) / 2), -1, 1)
    grid = np.linspace(-1, 1, 20001)
    pdf = (1 - grid**2) ** ((d - 3) / 2) / norm
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    cdf /= cdf[-1]
    f_at = np.interp(samples, grid, cdf)
    i = np.arange(1, draws + 1)
    ks = np.max(np.maximum(np.abs(i / draws - f_at), np.abs((i - 1) / draws - f_at)))
    assert ks < 0.03, f"KS distance {ks}"


def test_haar_left_invariance():
    # UQ and Q agree in law: compare moments of tr(Q) and Q[0,0]
    d, draws = 6, 10_000
    u = stiefel(d, d, 1, make_rng(5))[0]
    q = stiefel(d, d, draws, make_rng(6))
    uq = u @ stiefel(d, d, draws, make_rng(7))
    for stat in (lambda a: np.trace(a, axis1=1, axis2=2), lambda a: a[:, 0, 0]):
        m1, se1 = mean_and_stderr(stat(q))
        m2, se2 = mean_and_stderr(stat(uq))
        assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


def test_verblunsky_shape_and_range():
    for d in (1, 2, 3, 40):
        alpha = haar_verblunsky_batch(d, 500, make_rng(19, d))
        assert alpha.shape == (500, d)
        assert np.all(np.abs(alpha) <= 1.0)
        assert set(np.unique(alpha[:, -1])) == {-1.0, 1.0}


def test_verblunsky_stream_order():
    # one row-major (size, d) normal block; alpha_j = g_j over the norm of g_j..g_{d-1},
    # the tail sums taken from the right, and the last column the sign of g_{d-1}
    d, size = 6, 7
    alpha = haar_verblunsky_batch(d, size, make_rng(20))
    g = make_rng(20).standard_normal((size, d))
    want = np.empty_like(g)
    tail = np.zeros(size)
    for j in range(d - 1, -1, -1):
        tail = g[:, j] * g[:, j] + tail
        want[:, j] = g[:, j] / np.sqrt(tail)
    want[:, -1] = np.copysign(1.0, g[:, -1])
    assert np.array_equal(alpha, want)


@pytest.mark.parametrize("d", [1, 2, 40])
def test_verblunsky_split_invariance(d):
    # each row is one contiguous stretch of the stream, so batch edges do not move bits
    rng = make_rng(23, d)
    parts = [haar_verblunsky_batch(d, b, rng) for b in (5, 8)]
    assert np.array_equal(np.concatenate(parts), haar_verblunsky_batch(d, 13, make_rng(23, d)))


@pytest.mark.parametrize("d", [3, 7, 40])
def test_verblunsky_exact_law(d):
    # (alpha_j + 1)/2 ~ Beta(h_j, h_j), h_j = (d-j-1)/2, for j <= d-2; the last column a
    # fair sign; all columns independent.  Gates fixed up front: 20,000 draws, each KS
    # p >= 1e-4 (Bonferroni over at most 39 coefficients); correlation z = r sqrt(n)
    # between every pair of alpha_0^2..alpha_{d-2}^2, alpha_{d-1}: each |z| <= 4.5 and
    # their sum over sqrt(#pairs) within 4 (the pairs' z are uncorrelated under
    # independence, so a small common correlation shows there); the sign's |z| <= 4.
    n = 20_000
    alpha = haar_verblunsky_batch(d, n, make_rng(24, d))
    pvals = [
        kstest((alpha[:, j] + 1.0) / 2.0, beta((d - j - 1) / 2, (d - j - 1) / 2).cdf).pvalue
        for j in range(d - 1)
    ]
    assert min(pvals) >= 1e-4, pvals
    cols = np.column_stack([alpha[:, :-1] ** 2, alpha[:, -1]])
    z = np.corrcoef(cols, rowvar=False)[np.triu_indices(d, 1)] * math.sqrt(n)
    assert np.abs(z).max() <= 4.5, z
    assert abs(z.sum()) / math.sqrt(z.size) <= 4.0, z.sum()
    plus = (alpha[:, -1] == 1.0).sum()
    assert abs(plus - n / 2) / math.sqrt(n / 4) <= 4.0


def test_verblunsky_first_and_last_match_haar_entry_and_det():
    # alpha_0 has the law of Q[0, 0]; alpha_{d-1} = (-1)^{d-1} det Q is a fair sign
    d, draws = 7, 20_000
    alpha = haar_verblunsky_batch(d, draws, make_rng(21))
    q = stiefel(d, d, draws, make_rng(22))
    assert ks_2samp(alpha[:, 0], q[:, 0, 0]).pvalue >= 0.001
    m1, se1 = mean_and_stderr(alpha[:, -1])
    m2, se2 = mean_and_stderr((-1) ** (d - 1) * np.sign(np.linalg.det(q)))
    assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


def test_stiefel_orthonormal_columns():
    q = stiefel(7, 3, 1, make_rng(8))[0]
    assert q.shape == (7, 3)
    assert orthogonality_defect(q) <= ORTHOGONALITY_TOL


def test_stiefel_m_eq_d_matches_haar():
    # Haar moments on O(d): E[tr(Q)^2] = 1 and E[Q11^2] = 1/d
    d, draws = 4, 20_000
    s = stiefel(d, d, draws, make_rng(9))
    for stat, target in ((lambda a: np.trace(a, axis1=1, axis2=2) ** 2, 1.0),
                         (lambda a: a[:, 0, 0] ** 2, 1 / d)):
        m, se = mean_and_stderr(stat(s))
        assert_within_nse(m, se, target, label="square Stiefel moment")


def test_stiefel_first_column_sphere_moment():
    # coordinates of a sphere point satisfy E[q_1^2] = 1/d by symmetry
    q = stiefel(5, 1, 100_000, make_rng(11))[:, 0, 0]
    m, se = mean_and_stderr(q**2)
    assert_within_nse(m, se, 1 / 5, label="stiefel E[Q11^2]")


def test_stiefel_prefix_columns_match_smaller_stiefel():
    # first m' columns of stiefel(d, m) have the stiefel(d, m') law
    d, m, mp, draws = 5, 3, 2, 20_000
    big = stiefel(d, m, draws, make_rng(12))[:, :, :mp]
    small = stiefel(d, mp, draws, make_rng(13))
    assert orthogonality_defect(big) <= ORTHOGONALITY_TOL
    for stat in (lambda a: a[:, 0, 0], lambda a: a[:, 0, 0] ** 2, lambda a: a[:, 0, 0] * a[:, 0, 1]):
        m1, se1 = mean_and_stderr(stat(big))
        m2, se2 = mean_and_stderr(stat(small))
        assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


def _lapack_sign_fixed_qr(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


@pytest.mark.parametrize("d, m", [(1, 1), (2, 1), (2, 2), (3, 2), (16, 2), (1, 2)])
def test_stiefel_closed_form_matches_lapack(d, m):
    g = make_rng(30, 20 * d + m).standard_normal((5000, d, m))
    q = qr_sign_fixed(g)
    assert np.abs(q - _lapack_sign_fixed_qr(g)).max() <= 1e-13
    assert orthogonality_defect(q) <= 1e-14
    assert np.array_equal(qr_sign_fixed(g[7]), q[7])  # each matrix on its own


def test_stiefel_nearly_parallel_columns_stay_orthonormal():
    # one Gram-Schmidt pass leaves a defect near 1e-7 here; the second removes it
    rng = make_rng(32)
    g = rng.standard_normal((2000, 16, 2))
    g[..., 1] = g[..., 0] + 1e-9 * rng.standard_normal((2000, 16))
    assert orthogonality_defect(qr_sign_fixed(g)) <= 1e-14


def test_stiefel_zero_column_gives_no_nan():
    g = make_rng(31).standard_normal((4, 3, 2))
    g[1] = 0.0
    g[2, :, 0] = 0.0
    g[3, :, 1] = 0.0
    q = qr_sign_fixed(g)
    assert np.isfinite(q).all() and orthogonality_defect(q) <= 1e-14
    assert np.array_equal(q[0], qr_sign_fixed(g[0]))
    square = np.array([[1.0, 2.0], [3.0, 4.0]])
    square[:, 1] = 0.0
    for single in (np.zeros((3, 1)), np.zeros((3, 2)), g[2], g[3], np.zeros((1, 1)),
                   np.zeros((2, 2)), square, square[:, ::-1]):
        assert orthogonality_defect(qr_sign_fixed(single)) <= 1e-14


def _reduction_sign_fixed(g: np.ndarray) -> np.ndarray:
    """The closed form as first written: norms and dot products by numpy reductions over d."""
    q1 = g[..., 0] / np.linalg.norm(g[..., 0], axis=-1, keepdims=True)
    if g.shape[-1] == 1:
        return q1[..., None]
    v = g[..., 1] - q1 * (q1 * g[..., 1]).sum(axis=-1, keepdims=True)
    v -= q1 * (q1 * v).sum(axis=-1, keepdims=True)
    return np.stack([q1, v / np.linalg.norm(v, axis=-1, keepdims=True)], axis=-1)


@pytest.mark.parametrize("m", [1, 2])
def test_stiefel_closed_form_bits_match_reductions_up_to_d7(m):
    # numpy reduces fewer than 8 terms left to right, as the closed form does
    for d in range(m, 8):
        g = make_rng(33, 10 * d + m).standard_normal((300, d, m))
        q = qr_sign_fixed(g)
        assert q.flags.c_contiguous and q.shape == g.shape
        assert np.array_equal(q, _reduction_sign_fixed(g))


@pytest.mark.parametrize("m", [1, 2])
def test_stiefel_closed_form_orthonormal_up_to_d40(m):
    for d in range(m, 41):
        g = make_rng(34, 100 * d + m).standard_normal((200, d, m))
        q = qr_sign_fixed(g)
        assert orthogonality_defect(q) <= 1e-14
        # from d = 8 on the sums round differently from numpy's pairwise ones, by ulps
        assert np.abs(q - _reduction_sign_fixed(g)).max() <= 1e-15
        assert np.array_equal(qr_sign_fixed(g[11]), q[11])  # one matrix is its row of the stack


def test_stiefel_degenerate_matrices_take_lapack():
    g = make_rng(35).standard_normal((5, 4, 2))
    g[1, :, 0] = 0.0  # zero first column
    g[2] = [[2.0, 4.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]  # zero residual, exactly
    g[3] *= 1e200  # the squared norm overflows
    q = qr_sign_fixed(g)
    for i in (1, 2, 3):
        assert np.array_equal(q[i], _lapack_sign_fixed(g[i]))
    assert np.array_equal(q[[0, 4]], _reduction_sign_fixed(g[[0, 4]]))
    assert orthogonality_defect(q[3]) <= 1e-14


def test_permutation_identity_at_n1():
    assert permutation_batch(1, 1, make_rng(14))[0].tolist() == [0]


def test_permutation_uniform_at_n3():
    draws = 60_000
    rng = make_rng(15)
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        key = tuple(permutation_batch(3, 1, rng)[0])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, c in counts.items():
        assert abs(c / draws - 1 / 6) <= 0.01, f"permutation {key} frequency {c / draws}"


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_permutation_is_bijection(n, seed):
    p = permutation_batch(n, 1, make_rng(seed))[0]
    assert sorted(p.tolist()) == list(range(n))


def test_sphere_moment_family_matches_closed_form():
    from shufflab.oracles import check_sphere

    res = check_sphere(seed=18)
    assert res.passed, res.detail


def test_degenerate_dimensions_rejected():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_null_batch(ModelParams(n=0, d=3, m=1, sigma=0.0), 1, rng)
    for bad in (0, 2.5, math.inf, math.nan):  # int(inf) raises OverflowError, not ValueError
        with pytest.raises(ValueError):
            haar_verblunsky_batch(bad, 1, rng)
        with pytest.raises(ValueError):
            permutation_batch(bad, 1, rng)
