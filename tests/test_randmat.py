import math

import numpy as np
import pytest
from conftest import assert_within_nse, mean_and_stderr, two_sample_z
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

from shufflab import ModelParams, make_rng
from shufflab.model import sample_null_batch
from shufflab.randmat import (
    haar_orthogonal_batch,
    haar_verblunsky_batch,
    permutation_batch,
    qr_sign_fixed,
    uniform_sphere,
)

ORTHOGONALITY_TOL = 1e-10


def stiefel(d: int, m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """(size, d, m) Haar Stiefel draws, as the planted sampler draws Q."""
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
    vals = np.array([haar_orthogonal_batch(1, 1, make_rng(2, i))[0, 0, 0] for i in range(10_000)])
    assert set(np.unique(vals)) == {-1.0, 1.0}
    assert abs((vals == 1.0).mean() - 0.5) <= 0.02


def test_haar_orthogonality():
    for d in (1, 3, 10, 50):
        q = haar_orthogonal_batch(d, 1, make_rng(3, d))[0]
        assert orthogonality_defect(q) <= ORTHOGONALITY_TOL
        assert orthogonality_defect(q.T) <= ORTHOGONALITY_TOL  # rows too


def test_haar_entry_distribution_ks():
    # entry law of a d x d Haar matrix: density proportional to (1-z^2)^{(d-3)/2}
    d, draws = 10, 5000
    samples = np.sort(haar_orthogonal_batch(d, draws, make_rng(4))[:, 0, 0])
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
    u = haar_orthogonal_batch(d, 1, make_rng(5))[0]
    q = haar_orthogonal_batch(d, draws, make_rng(6))
    uq = u @ haar_orthogonal_batch(d, draws, make_rng(7))
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
    # the (size, d-1) Beta block first, then the size signs
    d, size = 6, 7
    alpha = haar_verblunsky_batch(d, size, make_rng(20))
    rng = make_rng(20)
    half = (d - 1 - np.arange(d - 1)) / 2.0
    assert np.array_equal(alpha[:, :-1], 2.0 * rng.beta(half, half, size=(size, d - 1)) - 1.0)
    assert np.array_equal(alpha[:, -1], 2.0 * rng.integers(0, 2, size) - 1.0)


def test_verblunsky_first_and_last_match_haar_entry_and_det():
    # alpha_0 has the law of Q[0, 0]; alpha_{d-1} = (-1)^{d-1} det Q is a fair sign
    d, draws = 7, 20_000
    alpha = haar_verblunsky_batch(d, draws, make_rng(21))
    q = haar_orthogonal_batch(d, draws, make_rng(22))
    assert ks_2samp(alpha[:, 0], q[:, 0, 0]).pvalue >= 0.001
    m1, se1 = mean_and_stderr(alpha[:, -1])
    m2, se2 = mean_and_stderr((-1) ** (d - 1) * np.sign(np.linalg.det(q)))
    assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


def test_stiefel_orthonormal_columns():
    q = stiefel(7, 3, 1, make_rng(8))[0]
    assert q.shape == (7, 3)
    assert orthogonality_defect(q) <= ORTHOGONALITY_TOL


def test_stiefel_m_eq_d_matches_haar():
    d, draws = 4, 20_000
    s = stiefel(d, d, draws, make_rng(9))
    h = haar_orthogonal_batch(d, draws, make_rng(10))
    for stat in (lambda a: np.trace(a, axis1=1, axis2=2) ** 2, lambda a: a[:, 0, 0] ** 2):
        m1, se1 = mean_and_stderr(stat(s))
        m2, se2 = mean_and_stderr(stat(h))
        assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


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


def test_sphere_unit_norm():
    for d in (1, 2, 3, 8):
        q = uniform_sphere(d, make_rng(16, d))
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_sphere_fourth_moment():
    # E[q_1^4] on the 2-sphere = 3!! / (d (d+2)) = 0.2 at d = 3
    q = np.array([uniform_sphere(3, make_rng(17, i))[0] for i in range(100_000)])
    m, se = mean_and_stderr(q**4)
    assert_within_nse(m, se, 0.2, label="sphere E[q1^4]")
    m3, se3 = mean_and_stderr(q**3)
    assert_within_nse(m3, se3, 0.0, label="sphere odd moment")


def test_sphere_moment_family_matches_closed_form():
    from shufflab.oracles import check_sphere

    res = check_sphere(seed=18)
    assert res.passed, res.detail


def test_degenerate_dimensions_rejected():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_null_batch(ModelParams(n=0, d=3, m=1, sigma=0.0), 1, rng)
    with pytest.raises(ValueError):
        haar_orthogonal_batch(0, 1, rng)
    with pytest.raises(ValueError):
        haar_verblunsky_batch(0, 1, rng)
    with pytest.raises(ValueError):
        permutation_batch(0, 1, rng)
    with pytest.raises(ValueError):
        uniform_sphere(0, rng)
