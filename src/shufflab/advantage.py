"""Estimators and enumerators for the degree-D advantage.

The squared degree-D advantage is the sum, over the K = C(n(d+m)+D, D) basis
patterns (A, B) of degree <= D, of the squared planted-law means
E phi_A(X) phi_B(Y).  The Monte Carlo estimator here is unbiased for it.

Each sample contributes, per pattern, not phi_A(X) phi_B(Y) but its exact
conditional mean given (X, Q).  Write rho^2 = 1 / (1 + sigma^2) and
Y0 = X Q, so that Y = rho P Y0 + sqrt(1 - rho^2) Z.  Mehler's formula,
E_z h_b(rho u + sqrt(1 - rho^2) z) = rho^b h_b(u), integrates out the noise
Z, and the uniform row permutation P averages phi_B over the row orbit of B:

    E[phi_A(X) phi_B(Y) | X, Q] = phi_A(X) rho^|B| mean_{B' ~ B} phi_B'(Y0),

the mean taken over the distinct row permutations B' of B.  The summand has
the pattern's planted mean as its mean, so a sample mean of it is unbiased,
and by Rao-Blackwell (Casella and Robert, Biometrika 1996) its variance is at
most that of phi_A(X) phi_B(Y).  Squaring a sample mean inflates each term
by its variance over the sample count, so each pattern's term is
mean^2 - var/samples, which is unbiased for the squared mean.  The stderr is
the leave-one-batch-out jackknife over 20 batches of the samples, of that
unbiased sum.  The per-pattern breakdown gives each pattern's mean with its
stderr.

Sign symmetry makes most planted means exactly 0: unless every column sum
of A and every column sum of B is even, flipping the signs of the odd
columns (of X's columns and Q's rows, or of Q's columns and Z's) leaves the
planted law unchanged and negates the mean (``hermite.SideSplit``).  Those
patterns are not sampled.  They add exactly 0 to the sum, and the breakdown
reports them as 0 with stderr 0, which is exact, not a Monte Carlo
figure.  A pattern of odd total degree has an odd column sum on one side,
so the estimate at D = 2j + 1 is the one at D = 2j.  Other patterns whose
mean is 0 are still sampled: given (P, Q) the rows are independent and each
h_b(Q^T x) lies in one Wiener chaos, so a mean is 0 unless the row weights
of A and of B agree as multisets.  That test pairs an X-side multi-index
with a Y-side one, where the parity test above keeps or drops each side on
its own, so it does not fit the per-side blocks below.  Skipping them would
also make some estimates exact, 1 with stderr 0 at (n, d, m) = (1, 2, 1)
and D = 3, which the benchmark's z-check of that cell cannot yet take (the
ROADMAP item on a benchmark that times exact routes).

Stream layout: sample s reads the standard normals s*(nd + dm) through
(s + 1)*(nd + dm) - 1 of the generator, X (n x d, row-major) from the first
nd and the Gaussian behind Q (d x m, row-major, ``randmat.qr_sign_fixed``)
from the last dm.  The batches are consecutive runs of samples, the larger
ones first.  ``common.draw_chunked`` draws them one batch size at a time, so
a chunk holds consecutive batches of one size and draws their samples as one
block: the draws, and the estimate's bits, do not depend on the chunking.

A basis function factors as phi_(A,B) = phi_A(X) times the Y-side summand,
so a batch's sums of the summands and of their squares are entries of U V^T
and (U o U)(V o V)^T, with U the X-side products (one row per even-column-sum
X-side multi-index) and V the Y-side orbit means (``hermite.SideSplit``),
each Y-side row carrying rho^|B| times the mean of its orbit.  The products
are taken by X-degree w, against only the Y-side columns of degree <= D - w,
so the D + 1 blocks hold exactly the kept patterns' sums; the empty ones,
those of odd w, are skipped.  Q is computed on component rows, one array
over the samples per matrix entry (``randmat.qr_sign_fixed``), and the
Hermite table is built one degree plane at a time, samples last, and read
through a slot-major view (``hermite.slot_table``).

Memory: one float64 workspace per estimate, sized for its largest chunk
and reused by every chunk, holds each array of sample size the kernel
makes; only Q and the Gram-Schmidt temporaries of ``randmat.qr_sign_fixed``,
a few doubles a sample, lie outside it.  So no table, U or V is allocated
per step, and freed pages are not faulted in again.  Each of its three
regions holds, in turn, arrays whose lifetimes do not overlap
(``_workspace_rows``): the draws and Y0, then U and V (squared in place for
the second-moment sums); the table (once, never copied into another
layout), then the orbit means; the recurrence's scratch plane, then each
gather.  The chunks are sized so that the workspace stays within
``DRAW_CHUNK_BYTES``, unless one batch needs more.  Memory also holds the
kept patterns' per-batch sums: never a (samples, K) or (batch size, K)
basis matrix.

Two upper bounds complete the picture: an exact closed form for a single
response column at zero noise (a sum over weights of composition counts
times sphere moments, in exact integers), and the chi-square route
1 + sum_k (chi^2_k - 1) over the reduced k-row models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chisq as chisq_mod
from .common import DRAW_CHUNK_BYTES, CapacityError, draw_chunked
from .hermite import SideSplit, pattern_count, pattern_pairs, side_split, slot_products, slot_table
from .model import ModelParams
from .randmat import qr_sign_fixed

DEFAULT_PATTERN_CAP = 1_000_000
BOUND_M1_MAX_D = 6
BOUND_M1_MAX_DEGREE = 8

_JACKKNIFE_BATCHES = 20


@dataclass(frozen=True)
class AdvantageEstimate:
    """Unbiased estimate of the squared degree-D advantage (module docstring).

    ``value_sq`` sums, over the ``pattern_count`` patterns, the unbiased
    squares mean^2 - var/samples of the patterns' conditional-mean summands;
    it is unbiased because each summand's mean is exactly the pattern's
    planted mean.  The patterns with an odd column sum in A or in B have
    planted mean exactly 0 by sign symmetry; they are not sampled and add
    exactly 0.  ``stderr`` is the 20-batch leave-one-out jackknife stderr of
    ``value_sq`` over the summands of the other patterns, which include the
    cross-side zeros (module docstring) and so may be positive when the
    advantage is exactly 1.  ``pattern_count`` is the basis size K.
    """

    degree: int
    value_sq: float
    stderr: float
    pattern_count: int
    samples: int


def _workspace_rows(split: SideSplit, params: ModelParams) -> tuple[int, int, int]:
    """Rows of S doubles in each of the three regions of an S-sample chunk's workspace.

    A region holds, in turn, arrays whose lifetimes do not overlap, so it
    takes the most rows of any of them (``_chunk_moment_sums``): the draws
    and Y0, then U and V; the Hermite table, then the orbit means; the
    recurrence's scratch plane, then each gather.
    """
    n, d, m = params.n, params.d, params.m
    slots, ka, kb = n * (d + m), len(split.x_degrees), len(split.y_degrees)
    return (
        max(n * d + d * m + n * m, ka + kb),
        max(len(split.blocks) * slots, len(split.orbit_sizes)),
        max(slots, ka, kb),
    )


def _planted_moment_sums(
    split: SideSplit, params: ModelParams, sizes: list[int], rng: np.random.Generator
) -> np.ndarray:
    """Each batch's sums of the summands and of their squares, (batches, 2, kept) in block order.

    The batches of each size, the larger size first as ``batch_sizes`` orders
    them, go through ``draw_chunked``, so a chunk holds batches of one size:
    as many as keep its workspace within ``DRAW_CHUNK_BYTES``, or one.  One
    float64 workspace, sized for the largest chunk, serves every chunk of
    the estimate.
    """
    sample_doubles = sum(_workspace_rows(split, params))
    chunks = {
        size: min(sizes.count(size), max(1, DRAW_CHUNK_BYTES // (8 * sample_doubles * size)))
        for size in dict.fromkeys(sizes)
    }
    workspace = np.empty(sample_doubles * max(size * count for size, count in chunks.items()))
    return np.concatenate([
        draw_chunked(
            lambda count: _chunk_moment_sums(split, params, count, size, rng, workspace),
            sizes.count(size),
            chunk,
        )
        for size, chunk in chunks.items()
    ])


def _chunk_moment_sums(
    split: SideSplit, params: ModelParams, count: int, size: int, rng: np.random.Generator,
    workspace: np.ndarray,
) -> np.ndarray:
    """Draw ``count`` batches of ``size`` samples; their sums of the summands and squares.

    Returns (count, 2, kept).  The batches share one Hermite table and one
    U, V pair, squared in place for the second-moment sums.  They take one
    stacked product per block, which makes the same BLAS call per batch as a
    lone batch would: the sums do not depend on the chunking.  Every array
    of sample size lies in ``workspace``, in the regions of
    ``_workspace_rows``.
    """
    n, d, m = params.n, params.d, params.m
    S = count * size
    bounds = S * np.cumsum((0, *_workspace_rows(split, params)))
    front, middle, back = (workspace[lo:hi].reshape(-1, S) for lo, hi in zip(bounds, bounds[1:]))
    ka, kb = len(split.x_degrees), len(split.y_degrees)
    slots, planes = n * (d + m), len(split.blocks)
    width = n * d + d * m  # normals per sample
    draws = front[:width].reshape(S, width)
    rng.standard_normal(out=draws)
    X = draws[:, : n * d].reshape(S, n, d)
    Q = qr_sign_fixed(draws[:, n * d :].reshape(S, d, m))
    Y0 = np.matmul(X, Q, out=front[width : width + n * m].reshape(S, n, m))
    table = slot_table(X, Y0, planes - 1, middle[: planes * slots].reshape(planes, slots, S),
                       back[:slots])
    # U and V take the place of the draws, and each gather that of the scratch plane
    U = slot_products(split.x_degrees, table[: n * d], front[:ka], back[:ka])
    V = slot_products(split.y_degrees, table[n * d :], front[ka : ka + kb], back[:kb])
    # each Y-side row takes rho^|B| times the mean over its row orbit; the orbits go
    # longest first, so those longer than j are a prefix, and their sums take the table's place
    sizes = split.orbit_sizes
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(-sizes, kind="stable")
    rho_b = (1.0 + params.sigma**2) ** (-0.5 * split.y_degrees[starts].sum(axis=1))
    means = V.take(starts[order], axis=0, out=middle[: len(sizes)], mode="clip")
    for j in range(1, sizes.max()):  # add each orbit's j-th member, a row gather per j
        r = np.count_nonzero(sizes > j)
        means[:r] += V.take(starts[order[:r]] + j, axis=0, out=back[:r], mode="clip")
    means *= (rho_b / sizes)[order, None]
    means.take(np.repeat(np.argsort(order), sizes), axis=0, out=V, mode="clip")
    # (count, rows, size) stacks of the batches
    u = U.reshape(ka, count, size).transpose(1, 0, 2)
    v = V.reshape(kb, count, size).transpose(1, 2, 0)
    sums = np.empty((count, 2, split.kept))
    for power in range(2):
        if power:
            u *= u
            v *= v
        for r0, r1, cols, offset in split.blocks:
            if r0 == r1:  # no X-side row of this degree: an odd one, or none left
                continue
            flat = sums[:, power, offset : offset + (r1 - r0) * cols]
            np.matmul(u[:, r0:r1], v[:, :, :cols], out=flat.reshape(count, r1 - r0, cols))
    return sums


@dataclass(frozen=True)
class PatternBreakdown:
    """Per-pattern terms of the advantage sum, as arrays indexed by pattern id.

    ``mean`` is each pattern's planted-mean estimate, the sample mean of its
    conditional-mean summand (module docstring), unbiased; ``mean_var`` is
    its squared standard error, the summand's sample variance over the
    sample count.  Patterns whose B lie in one row orbit share their
    summand, so with equal A they share mean and stderr.  A pattern with an
    odd column sum in A or in B has planted mean 0 by sign symmetry
    (``hermite.SideSplit``) and is not sampled: its mean and stderr read 0,
    exactly.  All K patterns keep their rows.
    """

    degree: np.ndarray
    mean: np.ndarray
    mean_var: np.ndarray

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(self.mean_var)

    @property
    def squared_contribution(self) -> np.ndarray:
        """The unbiased terms mean^2 - var/samples, which sum to the estimate."""
        return self.mean**2 - self.mean_var


def batch_sizes(samples: int) -> list[int]:
    """Sizes of the jackknife batches: 20 (or ``samples``, if fewer), the first ones one larger."""
    n_batches = min(_JACKKNIFE_BATCHES, samples)
    return [samples // n_batches + (b < samples % n_batches) for b in range(n_batches)]


def jackknife_estimate(
    D: int, degrees: np.ndarray, sums: np.ndarray, sizes: list[int], position: np.ndarray
) -> tuple[AdvantageEstimate, PatternBreakdown]:
    """The unbiased sum of squared means and its jackknife stderr, from per-batch sums.

    ``sums`` is (batches, 2, columns): each batch's sums of a summand and of
    its square, per column, over ``sizes`` samples per batch.  Pattern k,
    of total degree ``degrees[k]``, reads column ``position[k]``; a position
    of ``columns`` marks a pattern whose planted mean is exactly 0, reported
    as 0 with variance 0.  The estimate sums over the columns.
    """

    def sum_of_squares(
        s1: np.ndarray, s2: np.ndarray, n: int | np.ndarray
    ) -> tuple[np.ndarray, ...]:
        # over a leading batch axis where the arguments have one
        mean = s1 / n
        var = (s2 - n * mean**2) / (n - 1)
        return mean, var, (mean**2 - var / n).sum(axis=-1)

    samples = sum(sizes)
    total1, total2 = sums.sum(axis=0)
    mean, var, value = sum_of_squares(total1, total2, samples)
    # leave-one-batch-out values, one row per batch
    kept = (samples - np.array(sizes))[:, None]
    _, _, loo = sum_of_squares(total1 - sums[:, 0], total2 - sums[:, 1], kept)
    B = len(sizes)
    stderr = math.sqrt((B - 1) / B * float(((loo - loo.mean()) ** 2).sum()))
    est = AdvantageEstimate(
        degree=D, value_sq=float(value), stderr=stderr, pattern_count=len(degrees), samples=samples
    )
    mean, mean_var = (np.append(column, 0.0)[position] for column in (mean, var / samples))
    return est, PatternBreakdown(degree=degrees, mean=mean, mean_var=mean_var)


def check_cell(params: ModelParams, D: int, samples: int) -> None:
    """Refuse a cell before any work: D >= 0, samples >= 3 at every D, and the pattern cap.

    At two samples each leave-one-batch-out set holds one sample, with no variance.
    """
    if D < 0:
        raise ValueError(f"need D >= 0, got D={D}")
    if samples < 3:
        raise ValueError(f"samples must be >= 3, got {samples}")
    count = pattern_count(params.n, params.d, params.m, D)
    if count > DEFAULT_PATTERN_CAP:
        raise CapacityError(
            f"pattern enumeration needs {count} patterns, above the cap {DEFAULT_PATTERN_CAP}"
        )


def advantage_sq_with_patterns(
    params: ModelParams,
    D: int,
    samples: int,
    rng: np.random.Generator,
) -> tuple[AdvantageEstimate, PatternBreakdown]:
    """Estimate the squared advantage and the per-pattern breakdown, after ``check_cell``."""
    check_cell(params, D, samples)
    if D == 0:
        est = AdvantageEstimate(degree=0, value_sq=1.0, stderr=0.0, pattern_count=1, samples=0)
        return est, PatternBreakdown(np.zeros(1, dtype=int), np.ones(1), np.zeros(1))
    patterns = pattern_pairs(params.n, params.d, params.m, D)
    split = side_split(params.n, params.d, params.m, D)
    sizes = batch_sizes(samples)
    sums = _planted_moment_sums(split, params, sizes, rng)
    return jackknife_estimate(D, patterns.degrees, sums, sizes, split.position)


def estimate_advantage_sq(
    params: ModelParams,
    D: int,
    samples: int,
    rng: np.random.Generator,
) -> AdvantageEstimate:
    """Unbiased estimate of the squared degree-D advantage (see module docstring)."""
    est, _ = advantage_sq_with_patterns(params, D, samples, rng)
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

    Sums ``chisq.evaluate`` over k = 1..D, by method "closed" when sigma = 0
    and "mc" (the m = d determinant integral, all k on one ``rng``) with
    noise; the returned value then carries that estimate's Monte Carlo
    error.  A closed form above the largest double makes the bound +inf,
    and every chi^2_k - 1 is >= 0, so the sum stops at the first +inf term.
    Every k passes ``chisq.check_cell`` before any is evaluated: a k outside
    every regime raises its UnsupportedRegimeError, naming d, m, k and sigma.
    """
    if D < 0:
        raise ValueError(f"need D >= 0, got {D}")
    method = "closed" if sigma == 0 else "mc"
    for k in range(1, D + 1):
        chisq_mod.check_cell(d, m, k, sigma, method, samples)
    total = 1.0
    for k in range(1, D + 1):
        value = chisq_mod.evaluate(d, m, k, sigma, method, samples, rng).value
        if value == math.inf:
            return math.inf
        total += value - 1.0
    return total
