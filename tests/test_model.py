import math

import numpy as np
import pytest
from conftest import mean_and_stderr, two_sample_z

from shufflab import make_rng
from shufflab.model import (
    ModelParams,
    planted_response,
    sample_null,
    sample_null_batch,
    sample_planted,
    sample_planted_batch,
)


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, d=2, m=1, sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, d=2, m=3, sigma=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, d=2, m=1, sigma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, d=2, m=1, sigma=math.inf)


def test_null_shapes_and_independence():
    params = ModelParams(n=5, d=4, m=3, sigma=1.0)
    inst = sample_null(params, make_rng(20))
    assert inst.X.shape == (5, 4) and inst.Y.shape == (5, 3)
    assert inst.hypothesis == "null" and inst.latent is None

    X, Y = sample_null_batch(ModelParams(n=1, d=1, m=1, sigma=0.0), 100_000, make_rng(21))
    prod = (X[:, 0, 0] * Y[:, 0, 0])
    assert abs(prod.mean()) <= 0.01  # uncorrelated entries


def test_null_entry_variance():
    _, Y = sample_null_batch(ModelParams(n=100, d=100, m=100, sigma=0.0), 100, make_rng(22))
    assert abs(Y.var() - 1.0) <= 0.01


def test_planted_norm_preserved_when_noiseless_square():
    params = ModelParams(n=20, d=6, m=6, sigma=0.0)
    inst = sample_planted(params, make_rng(23))
    x2, y2 = (inst.X**2).sum(), (inst.Y**2).sum()
    assert abs(y2 - x2) <= 1e-9 * x2


def test_planted_marginal_variance_is_one():
    params = ModelParams(n=50, d=8, m=4, sigma=0.7)
    _, Y, *_ = sample_planted_batch(params, 5000, make_rng(24))
    assert Y.size >= 1_000_000
    assert abs(Y.var() - 1.0) <= 0.01


def test_planted_latent_reconstruction():
    params = ModelParams(n=7, d=5, m=2, sigma=1.3)
    inst = sample_planted(params, make_rng(25), keep_latent=True)
    rebuilt = planted_response(inst.X[inst.latent.perm], inst.latent.Q, inst.latent.Z, params.sigma)
    assert np.max(np.abs(rebuilt - inst.Y)) <= 1e-12


def test_planted_row_exchangeability():
    # permuting the design's rows before planting leaves the joint law alone
    params = ModelParams(n=4, d=3, m=2, sigma=0.8)
    draws = 20_000
    tau = np.array([2, 0, 3, 1])

    def stat(X, Y):
        return (X.sum(axis=2) * Y.sum(axis=2)).sum(axis=1)

    X1, Y1, *_ = sample_planted_batch(params, draws, make_rng(30))
    rng = make_rng(31)
    X2 = rng.standard_normal((draws, 4, 3))[:, tau, :]
    perms = rng.permuted(np.tile(np.arange(4), (draws, 1)), axis=1)
    from shufflab.randmat import qr_sign_fixed

    Q = qr_sign_fixed(rng.standard_normal((draws, 3, 2)))
    Z = rng.standard_normal((draws, 4, 2))
    Xp = np.take_along_axis(X2, perms[:, :, None], axis=1)
    Y2 = (Xp @ Q + params.sigma * Z) / np.sqrt(1 + params.sigma**2)
    m1, se1 = mean_and_stderr(stat(X1, Y1))
    m2, se2 = mean_and_stderr(stat(X2, Y2))
    assert abs(two_sample_z(m1, se1, m2, se2)) <= 3.0


def test_large_sigma_limit_matches_null_statistic():
    # E[(|Y|^2 - |X|^2)^2] / (nd) tends to the null value 4 as sigma grows
    params = ModelParams(n=32, d=8, m=8, sigma=100.0)
    X, Y, *_ = sample_planted_batch(params, 20_000, make_rng(32))
    f = (np.einsum("sij,sij->s", Y, Y) - np.einsum("sij,sij->s", X, X)) ** 2
    nd = params.n * params.d
    assert abs(f.mean() / nd - 4.0) <= 0.05 * 4.0
