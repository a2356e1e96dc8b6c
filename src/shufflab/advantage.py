"""Estimators and enumerators for the degree-D advantage.

The squared advantage equals the sum over basis patterns of squared
planted-law means of the basis functions.  The Monte Carlo estimator here
is unbiased for that sum of squares: naive squaring of a Monte Carlo mean
inflates each term by its variance over the sample count, so the standard
(mean^2 - var/samples) correction is applied per pattern.  Standard errors
come from a batch jackknife.

An estimate draws its jackknife batches in stream order, as one sampler
call per batch would, then shares one QR, response and slot-major Hermite
table among them; each batch's (size, K) block is summed on its own.  Memory
holds one such block plus one chunk of consecutive batches' draws and table,
at most ``DRAW_CHUNK_BYTES`` unless one batch needs more: never (samples, K).

Two upper bounds complete the picture: an exact closed form for a single
response column at zero noise (a sum over weights of composition counts
times sphere moments, in exact integers), and the chi-square route
1 + sum_k (chi^2_k - 1) over the reduced k-row models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import chisq as chisq_mod
from .common import CapacityError, MomentEstimate, UnsupportedRegimeError
from .hermite import (
    PatternPair,
    PatternStack,
    pattern_count,
    pattern_pairs,
    phi_batch,
    phi_block,
    slot_table,
)
from .model import ModelParams, planted_response, sample_planted_batches

DEFAULT_PATTERN_CAP = 1_000_000
EXACT_PERM_MAX_N = 7
BOUND_M1_MAX_D = 6
BOUND_M1_MAX_DEGREE = 8

_JACKKNIFE_BATCHES = 20
DRAW_CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class AdvantageEstimate:
    """Unbiased estimate of the squared degree-D advantage."""

    degree: int
    value_sq: float
    stderr: float
    pattern_count: int
    samples: int


def _planted_phi_blocks(
    patterns: PatternStack,
    params: ModelParams,
    sizes: list[int],
    rng: np.random.Generator,
    exact_perm: bool,
) -> Iterator[np.ndarray]:
    """Each batch's (size, K) basis values under the planted law, in batch order.

    Chunks of consecutive batches are drawn by one ``sample_planted_batches``
    call and share one Hermite table.  ``exact_perm`` averages each draw over
    every row permutation of X given (X, Q, Z) (Rao-Blackwellization): still
    unbiased, without the permutation's variance.  Only viable for small n.
    """
    n, max_degree = params.n, int(patterns.slot_degrees.max(initial=0))
    sample_bytes = 8 * n * (params.d + params.m) * (max_degree + 2)  # X, Y and the table
    per_chunk = max(1, DRAW_CHUNK_BYTES // (sample_bytes * max(sizes)))
    for first in range(0, len(sizes), per_chunk):
        chunk = sizes[first : first + per_chunk]
        X, Y, _, Q, Z = sample_planted_batches(params, chunk, rng, permute=not exact_perm)
        table = None if exact_perm else slot_table(X, Y, max_degree)
        for lo, hi in itertools.pairwise(np.cumsum([0, *chunk]).tolist()):
            if not exact_perm:
                yield phi_block(patterns, table[:, :, lo:hi])
                continue
            acc = np.zeros((hi - lo, len(patterns)))
            for perm in itertools.permutations(range(n)):
                Yp = planted_response(X[lo:hi, perm, :], Q[lo:hi], Z[lo:hi], params.sigma)
                acc += phi_batch(patterns, X[lo:hi], Yp)
            yield acc / math.factorial(n)


def estimate_phi_mean_planted(
    pattern: PatternPair,
    params: ModelParams,
    samples: int,
    rng: np.random.Generator,
    exact_perm: bool = False,
) -> MomentEstimate:
    """Unbiased Monte Carlo estimate of the planted-law mean of one basis function."""
    if pattern.A.shape != (params.n, params.d) or pattern.B.shape != (params.n, params.m):
        raise ValueError(
            f"pattern shapes {pattern.A.shape}/{pattern.B.shape} do not match params "
            f"(n={params.n}, d={params.d}, m={params.m})"
        )
    if pattern.is_empty:
        return MomentEstimate(value=1.0, stderr=0.0, samples=0)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if exact_perm and params.n > EXACT_PERM_MAX_N:
        raise ValueError(f"exact permutation averaging supports n <= {EXACT_PERM_MAX_N}")
    patterns = PatternStack(pattern.A[None], pattern.B[None])
    (vals,) = _planted_phi_blocks(patterns, params, [samples], rng, exact_perm)
    return MomentEstimate.from_values(vals[:, 0])


@dataclass(frozen=True)
class PatternBreakdown:
    """Per-pattern terms of the advantage sum, as arrays indexed by pattern id.

    ``mean`` is each pattern's planted-mean estimate and ``mean_var`` its
    squared standard error, var/samples.
    """

    degree: np.ndarray
    mean: np.ndarray
    mean_var: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(self.mean_var)

    @property
    def squared_contribution(self) -> np.ndarray:
        """The unbiased terms mean^2 - var/samples, which sum to the estimate.

        Each mean is squared on its own, by the scalar power the per-pattern
        CSV has always used: it can round differently from the array square.
        """
        return np.array([m**2 for m in self.mean.tolist()]) - self.mean_var


def advantage_sq_with_patterns(
    params: ModelParams,
    D: int,
    samples: int,
    rng: np.random.Generator,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
    exact_perm: bool = False,
) -> tuple[AdvantageEstimate, PatternBreakdown]:
    """Estimate the squared advantage and return the per-pattern breakdown."""
    if D < 0:
        raise ValueError(f"need D >= 0, got {D}")
    count = pattern_count(params.n, params.d, params.m, D)
    if count > pattern_cap:
        raise CapacityError(
            f"pattern enumeration needs {count} patterns, above the cap {pattern_cap}"
        )
    if D == 0:
        est = AdvantageEstimate(degree=0, value_sq=1.0, stderr=0.0, pattern_count=1, samples=0)
        return est, PatternBreakdown(np.zeros(1, dtype=int), np.ones(1), np.zeros(1))
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if exact_perm and params.n > EXACT_PERM_MAX_N:
        raise ValueError(f"exact permutation averaging supports n <= {EXACT_PERM_MAX_N}")
    patterns = pattern_pairs(params.n, params.d, params.m, D)

    n_batches = min(_JACKKNIFE_BATCHES, samples)
    sizes = [samples // n_batches + (1 if b < samples % n_batches else 0) for b in range(n_batches)]
    K = len(patterns)
    sum1 = np.zeros((n_batches, K))
    sum2 = np.zeros((n_batches, K))
    for b, vals in enumerate(_planted_phi_blocks(patterns, params, sizes, rng, exact_perm)):
        sum1[b] = vals.sum(axis=0)
        sum2[b] = (vals * vals).sum(axis=0)

    def sum_of_squares(s1: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, float]:
        mean = s1 / n
        var = (s2 - n * mean**2) / (n - 1)
        contrib = mean**2 - var / n
        return mean, var, float(contrib.sum())

    total1, total2 = sum1.sum(axis=0), sum2.sum(axis=0)
    mean, var, value = sum_of_squares(total1, total2, samples)

    # leave-one-batch-out jackknife for the standard error of the total
    loo = np.empty(n_batches)
    for b in range(n_batches):
        _, _, loo[b] = sum_of_squares(total1 - sum1[b], total2 - sum2[b], samples - sizes[b])
    stderr = math.sqrt((n_batches - 1) / n_batches * float(((loo - loo.mean()) ** 2).sum()))

    est = AdvantageEstimate(
        degree=D, value_sq=value, stderr=stderr, pattern_count=K, samples=samples
    )
    return est, PatternBreakdown(degree=patterns.degrees, mean=mean, mean_var=var / samples)


def estimate_advantage_sq(
    params: ModelParams,
    D: int,
    samples: int,
    rng: np.random.Generator,
    pattern_cap: int = DEFAULT_PATTERN_CAP,
    exact_perm: bool = False,
) -> AdvantageEstimate:
    """Unbiased estimate of the squared degree-D advantage (see module docstring)."""
    est, _ = advantage_sq_with_patterns(
        params, D, samples, rng, pattern_cap=pattern_cap, exact_perm=exact_perm
    )
    return est


# ---------------------------------------------------------------------------
# exact single-column bound at zero noise


def advantage_bound_m1(d: int, D: int) -> float:
    """Exact upper bound on the squared advantage for one response column, zero noise.

    The bound is 1 + sum over tuple lengths k <= D and ordered tuples
    (alpha_1, ..., alpha_k) with 0 < |alpha_i| <= D of
    prod_i multinomial(|alpha_i|, alpha_i) times the squared sphere moment of
    q^gamma, gamma = alpha_1 + ... + alpha_k.  Two identities reduce it to a
    one-dimensional sum.  By the multinomial theorem,
    sum_{0<|alpha|<=D} multinomial(|alpha|, alpha) x^alpha = sum_{w=1}^{D} s^w
    with s = x_1 + ... + x_d, so the k-tuple weight of gamma is
    c_k(|gamma|) * multinomial(|gamma|, gamma), where c_k(W) counts the
    compositions of W into k parts in [1, D].  And the sum over even gamma
    with |gamma| = 2h of multinomial(2h, gamma) * E[q^gamma]^2 is
    (2h-1)!! / prod_{j<h} (d+2j), the 2h-th moment of one coordinate of q.
    Hence, with C(W) = sum_{k<=D} c_k(W),

        bound = 1 + sum_{h=1}^{floor(D^2/2)} C(2h) (2h-1)!! / prod_{j<h} (d+2j),

    summed in exact integers and rounded once.
    """
    if d < 1 or D < 0:
        raise ValueError(f"need d >= 1 and D >= 0, got d={d}, D={D}")
    if d > BOUND_M1_MAX_D or D > BOUND_M1_MAX_DEGREE:
        raise CapacityError(
            f"exact bound capped at d <= {BOUND_M1_MAX_D}, D <= {BOUND_M1_MAX_DEGREE}; "
            f"got d={d}, D={D}"
        )
    if D <= 1:
        # each pair contributes degree |alpha_i| + beta_i = 2|alpha_i| >= 2
        return 1.0

    # compositions[W] = c_k(W) for the current k; counts[W] = C(W)
    max_weight = D * D
    compositions = [1] + [0] * max_weight  # k = 0
    counts = [0] * (max_weight + 1)
    for _ in range(D):
        compositions = [0] + [
            sum(compositions[max(0, W - D) : W]) for W in range(1, max_weight + 1)
        ]
        counts = [c + n for c, n in zip(counts, compositions)]

    # running sum num / den of 1 + sum_h C(2h) (2h-1)!! / prod_{j<h} (d+2j);
    # int / int true division rounds the exact quotient once, correctly
    num = den = double_factorial = 1
    for h in range(1, max_weight // 2 + 1):
        double_factorial *= 2 * h - 1
        factor = d + 2 * (h - 1)
        num = num * factor + counts[2 * h] * double_factorial
        den *= factor
    return num / den


def advantage_bound_via_chisq(
    d: int,
    m: int,
    sigma: float,
    D: int,
    samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Upper bound 1 + sum_{k<=D} (chi^2(reduced_k) - 1).

    Uses the noiseless closed forms when sigma = 0 and the Monte Carlo
    determinant integral when m = d with noise (the returned value then
    carries that estimate's Monte Carlo error).
    """
    if D < 0:
        raise ValueError(f"need D >= 0, got {D}")
    total = 1.0
    method = "closed" if sigma == 0 else "mc"
    for k in range(1, D + 1):
        try:
            report = chisq_mod.evaluate(d, m, k, sigma, method, samples, rng)
        except UnsupportedRegimeError as exc:
            raise UnsupportedRegimeError(
                f"no chi-square oracle applies at d={d}, m={m}, sigma={sigma} (k={k}): {exc}"
            ) from exc
        total += report.value - 1.0
    return total
