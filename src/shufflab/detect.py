"""Constant-degree detection statistic: one pass reports its test and its moments.

The statistic is f(X, Y) = (||Y||_F^2 - ||X||_F^2)^2 = T^2.  In the square
case m = d its null mean is exactly 4nd and its planted mean is 4 s nd with
s = sigma^2 / (1 + sigma^2).  T is, to leading order, a sum of nd centred
terms, so it is about N(0, 4nd) under the null and N(0, 4nd s) under the
planted law: f/(4nd) is about chi^2(1) under the null and s chi^2(1) under
the planted law.  The default test declares "planted" when f falls below the
likelihood-ratio (Neyman-Pearson) cutoff between those two laws,

    tau = 4nd sigma^2 log(1 + sigma^-2),

the point where their densities cross; no threshold on f has a smaller
type-I + type-II sum.  That sum tends to 0 like sqrt(s log(1/s)) as
sigma -> 0 and to 1 as sigma grows.  At sigma = 0 and m = d the planted f is
exactly 0, and the cutoff is a small positive floor (see
``default_threshold``).

The law of T, and how it is drawn.  f sees an instance only through
(||X||^2, ||Y||^2), and it does not see P or Q, so T has an exact law in
three chi-square draws per trial, whatever n, d, m, P and Q are.

- Null: T = U - V with U = ||Y||^2 ~ chi^2(nm) and V = ||X||^2 ~ chi^2(nd),
  independent.
- Planted: complete Q to an orthogonal [Q Q_perp].  XQ and XQ_perp are
  independent Gaussian matrices, ||PXQ||^2 = ||XQ||^2 and ||X||^2 = ||XQ||^2
  + B with B ~ chi^2(n(d - m)).  Each of the nm entries g of XQ, with its
  noise z, adds (g + sigma z)^2 / (1 + sigma^2) - g^2 to T: a quadratic form
  in (g, z) with trace 0 and determinant -s, so eigenvalues +-sqrt(s).  Hence

      T = sqrt(s) (U1 - U2) - B,  U1, U2 ~ chi^2(nm), all independent.

At sigma = 0 and m = d, T is exactly 0.  Per trial the planted route draws
U1, U2, then B (only when d > m, since a chi-square needs df > 0), and the
null route draws ||Y||^2 then ||X||^2; the order does not depend on sigma,
so runs that differ only in sigma share their random numbers.  The
full-instance route, f on sampled (X, Y), is the reference
``oracles.sample_f_instances``.

``run_test`` is one detector pass: it draws f under the null, then under
the planted law, and reports from those two arrays both the error rates of
the thresholded test and the means, variances and separation ratio of f.

The law is exact for every m <= d.  For m < d the statistic is still
computable, but the mean formulas and the test calibration only apply at
m = d; a warning is issued.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .common import draw_chunked
from .model import ModelParams

# three float64 draws per trial: a chunk holds about 1.5 MB of them
_TRIAL_CHUNK = 1 << 16


@dataclass(frozen=True)
class DetectionReport:
    """Error rates of the rule f < threshold and moments of f, from ``trials`` draws per law.

    The variances are n-1 sample variances.  separation_ratio =
    sqrt(max variance) / |mean gap|; values well below 1 indicate that
    thresholding f separates the two laws.
    """

    threshold: float
    type1: float
    type2: float
    mean_null: float
    var_null: float
    mean_planted: float
    var_planted: float
    separation_ratio: float
    trials: int


def _norm_gap(
    params: ModelParams, hypothesis: str, size: int, rng: np.random.Generator
) -> np.ndarray:
    """size draws of T = ||Y||_F^2 - ||X||_F^2 from its exact law (module docstring)."""
    n, d, m, sigma = params.n, params.d, params.m, params.sigma
    nm = n * m
    if hypothesis == "null":
        return rng.chisquare(nm, size) - rng.chisquare(n * d, size)
    U1 = rng.chisquare(nm, size)
    U2 = rng.chisquare(nm, size)
    B = rng.chisquare(n * (d - m), size) if d > m else 0.0
    return sigma / math.hypot(1.0, sigma) * (U1 - U2) - B  # sqrt(s) (U1 - U2) - B


def _sample_f(
    params: ModelParams, hypothesis: str, trials: int, rng: np.random.Generator
) -> np.ndarray:
    return draw_chunked(
        lambda b: _norm_gap(params, hypothesis, b, rng) ** 2, trials, _TRIAL_CHUNK
    )


def default_threshold(params: ModelParams) -> float:
    """Likelihood-ratio cutoff on f between the null and planted laws at m = d.

    With s = sigma^2 / (1 + sigma^2), f/(4nd) is about chi^2(1) under the
    null and s chi^2(1) under the planted law.  Their densities cross at
    x* = s log(1/s) / (1 - s) = sigma^2 log1p(sigma^-2), so the cutoff is
    4nd x*, the threshold on f with the smallest type-I + type-II sum.

    The cutoff never drops below delta^2, a worst-case bound on the rounding
    of T = ||Y||_F^2 - ||X||_F^2 computed from a full instance where T is 0
    in exact arithmetic (sigma = 0; the sampled law gives exactly 0 there):
    the nd-term sums of squares and the d-term products in Y = P X Q carry a
    relative error of at most about (nd + d) u, u the float64 machine epsilon,
    on ||X||_F^2 ~ nd; a factor 64 covers both sums and large draws of
    ||X||_F^2.  So delta = 64 (nd + d) nd u.  This floor is the cutoff at
    sigma = 0 (where x* = 0 and the rule "f < 0" would declare nothing
    planted) and binds otherwise only for sigma below about 3e-10 at
    nd = 4096.  Under the null, f falls below it with probability about
    delta sqrt(2 / (4 nd pi)), under 1e-6 for nd up to 10^5.
    """
    nd = params.n * params.d
    s2 = params.sigma**2
    # below the normal float range 1/s2 overflows; the floor rules there
    x_star = s2 * math.log1p(1.0 / s2) if s2 >= sys.float_info.min else 0.0
    delta = 64.0 * (nd + params.d) * nd * sys.float_info.epsilon
    return max(4.0 * nd * x_star, delta**2)


def run_test(
    params: ModelParams,
    threshold: float | None,
    trials: int,
    rng: np.random.Generator,
) -> DetectionReport:
    """Draw f under the null, then under the planted law, and report the rule f < threshold.

    ``threshold`` None takes ``default_threshold``; +-inf are the trivial
    rules.  A NaN threshold (every comparison with it is false, so it would
    read as a perfect test) and fewer than two trials (no sample variance)
    are refused before any draw.
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    if threshold is not None and math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    if params.m != params.d:
        warnings.warn(
            "the detection statistic's mean formulas hold at m = d; "
            f"got m={params.m}, d={params.d}",
            stacklevel=2,
        )
    tau = default_threshold(params) if threshold is None else float(threshold)
    f_null = _sample_f(params, "null", trials, rng)
    f_planted = _sample_f(params, "planted", trials, rng)
    mean_null = float(f_null.mean())
    mean_planted = float(f_planted.mean())
    var_null = float(f_null.var(ddof=1))
    var_planted = float(f_planted.var(ddof=1))
    gap = abs(mean_null - mean_planted)
    spread = math.sqrt(max(var_null, var_planted))
    return DetectionReport(
        threshold=tau,
        type1=float((f_null < tau).mean()),
        type2=float((f_planted >= tau).mean()),
        mean_null=mean_null,
        var_null=var_null,
        mean_planted=mean_planted,
        var_planted=var_planted,
        separation_ratio=float("inf") if gap == 0.0 else spread / gap,
        trials=trials,
    )
