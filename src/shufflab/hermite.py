"""Orthonormal Hermite polynomial engine.

Everything here is built on the probabilists' Hermite family, rescaled so
that E[h_a(Z) h_b(Z)] = 1{a=b} for Z standard normal.  Only the normalized
recurrence

    h_{k+1}(z) = (z * h_k(z) - sqrt(k) * h_{k-1}(z)) / sqrt(k+1)

is ever evaluated, by ``hermite_table``; the raw polynomials with explicit
factorials overflow past degree ~85.  Multi-index products over matrix
entries form the basis functions phi used by the advantage estimators.  A
set of them is a ``PatternStack``: its stacked degree arrays are the only
form a pattern takes.  One kernel, ``slot_products``, evaluates any stack of
per-slot degrees on a slot-major Hermite table (``slot_table``) with one
gather and one multiply per matrix entry (slot), whatever the number of
rows: ``phi_batch`` runs it on every slot of a pattern stack, and the
advantage estimator on the X-side and the Y-side of a ``SideSplit``, since
phi_(A,B)(X, Y) = phi_A(X) phi_B(Y).  The closed-form joint coefficients for
a single response column live here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .common import MomentEstimate
from .model import planted_response

EXACT_FACTORIAL_LIMIT = 20
UNIT_NORM_TOL = 1e-10
PHI_BLOCK_BYTES = 1 << 19  # phi_batch's per-block product; larger blocks fall out of cache


# ---------------------------------------------------------------------------
# tabulated evaluation


def hermite_table(x: np.ndarray, max_degree: int) -> np.ndarray:
    """Values h_0(x) .. h_max_degree(x), stacked along a trailing axis."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = x
    for k in range(1, max_degree):
        out[..., k + 1] = (x * out[..., k] - math.sqrt(k) * out[..., k - 1]) / math.sqrt(k + 1)
    return out


# ---------------------------------------------------------------------------
# multi-indices

MultiIndex = Sequence[int]


def multinomial_exact(total: int, alpha: MultiIndex) -> int:
    """total! / prod(alpha_i!) as an exact integer; requires |alpha| = total."""
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out


def sqrt_multinomial(total: int, alpha: MultiIndex) -> float:
    """sqrt(total!/prod(alpha_i!)), exact-integer path for small weights."""
    if total <= EXACT_FACTORIAL_LIMIT:
        return math.sqrt(multinomial_exact(total, alpha))
    log_m = math.lgamma(total + 1) - sum(math.lgamma(a + 1) for a in alpha)
    return math.exp(0.5 * log_m)


def multiindex_enumerate(dimension: int, max_weight: int) -> list[tuple[int, ...]]:
    """All alpha in N^dimension with |alpha| <= max_weight, graded lex order."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    out: list[tuple[int, ...]] = []
    for w in range(max_weight + 1):
        # stars and bars: bar positions in lex order give the parts in lex order
        for bars in itertools.combinations(range(w + dimension - 1), dimension - 1):
            edges = (-1, *bars, w + dimension - 1)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


# ---------------------------------------------------------------------------
# basis functions phi over (X, Y) pairs


class PatternStack:
    """K patterns of one shape, stacked: A is (K, n, d) X-side degrees, B (K, n, m) Y-side.

    Pattern k is the basis function with one normalized Hermite factor per
    matrix entry, of degree A[k] on X's entries and B[k] on Y's.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray) -> None:
        self.A, self.B = A, B
        # (K, slots): pattern k's degrees, X slots row-major, then Y slots
        self.slot_degrees = np.concatenate([A.reshape(len(A), -1), B.reshape(len(B), -1)], axis=1)
        self.degrees = self.slot_degrees.sum(axis=1)

    def __len__(self) -> int:
        return len(self.A)


@functools.lru_cache(maxsize=8)
def pattern_pairs(n: int, d: int, m: int, max_degree: int) -> PatternStack:
    """All (A, B) with total degree <= max_degree, graded lex over slots; cached, so read-only."""
    degs = np.array(multiindex_enumerate(n * (d + m), max_degree), dtype=int)
    stack = PatternStack(degs[:, : n * d].reshape(-1, n, d), degs[:, n * d :].reshape(-1, n, m))
    for array in (stack.A, stack.B, stack.slot_degrees, stack.degrees):
        array.setflags(write=False)
    return stack


def pattern_count(n: int, d: int, m: int, max_degree: int) -> int:
    """Number of patterns with total degree <= max_degree (stars and bars)."""
    return math.comb(n * (d + m) + max_degree, max_degree)


class SideSplit(NamedTuple):
    """The patterns of ``pattern_pairs(n, d, m, D)`` as X-side times Y-side products.

    ``x_degrees`` (Ka, n*d) and ``y_degrees`` (Kb, n*m) hold every X-side and
    every Y-side multi-index of degree <= D, each sorted by degree.  Block w,
    ``blocks[w] = (r0, r1, cols, offset)``, pairs the X-side rows r0:r1, those
    of degree w, with the first ``cols`` Y-side rows, those of degree <= D - w.
    Flattened row-major from ``offset`` on, the D + 1 blocks hold every
    pattern exactly once, pattern k at ``position[k]``, and nothing else: the
    Ka x Kb product never forms.

    Within a degree, the Y-side rows are grouped by row orbit: the multi-indices
    that differ by a permutation of the n rows are contiguous, orbit j holding
    the next ``orbit_sizes[j]`` rows.  On the X side the same order holds, but
    nothing reads its orbits.
    """

    x_degrees: np.ndarray
    y_degrees: np.ndarray
    blocks: tuple[tuple[int, int, int, int], ...]
    position: np.ndarray
    orbit_sizes: np.ndarray


def _by_degree(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows by degree, then row orbit; each input row's index among them; orbit sizes.

    A row is a flattened (n, c) multi-index.  Its orbit key is the sorted
    tuple of its n row codes, a row code being the rank of that row among
    the distinct ones, so equal keys mean equal up to a row permutation.
    """
    sides, inverse = np.unique(rows, axis=0, return_inverse=True)
    _, codes = np.unique(sides.reshape(len(sides) * n, -1), axis=0, return_inverse=True)
    keys = np.sort(codes.reshape(len(sides), n), axis=1)
    orbit = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    order = np.lexsort((orbit, sides.sum(axis=1)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    starts = np.flatnonzero(np.diff(orbit[order], prepend=-1))
    return sides[order], rank[inverse.reshape(-1)], np.diff(starts, append=len(order))


@functools.lru_cache(maxsize=8)
def side_split(n: int, d: int, m: int, max_degree: int) -> SideSplit:
    """The ``SideSplit`` of ``pattern_pairs(n, d, m, max_degree)``; cached, so read-only."""
    patterns = pattern_pairs(n, d, m, max_degree)
    K = len(patterns)
    x_degrees, x_index, _ = _by_degree(patterns.A.reshape(K, -1), n)
    y_degrees, y_index, orbit_sizes = _by_degree(patterns.B.reshape(K, -1), n)
    x_weight, y_weight = x_degrees.sum(axis=1), y_degrees.sum(axis=1)
    row_bounds = np.searchsorted(x_weight, np.arange(max_degree + 2))
    col_counts = np.searchsorted(y_weight, max_degree - np.arange(max_degree + 1), side="right")
    offsets = np.concatenate([[0], np.cumsum(np.diff(row_bounds) * col_counts)])
    w = x_weight[x_index]
    position = offsets[w] + (x_index - row_bounds[w]) * col_counts[w] + y_index
    for array in (x_degrees, y_degrees, position, orbit_sizes):
        array.setflags(write=False)
    bounds = row_bounds.tolist()
    blocks = tuple(zip(bounds, bounds[1:], col_counts.tolist(), offsets.tolist()))
    return SideSplit(x_degrees, y_degrees, blocks, position, orbit_sizes)


def slot_table(X: np.ndarray, Y: np.ndarray, max_degree: int) -> np.ndarray:
    """Hermite table (slots, max_degree+1, S) of X (S, n, d) then Y (S, n, m), slots row-major."""
    S = X.shape[0]
    values = np.concatenate([X.reshape(S, -1), Y.reshape(S, -1)], axis=1)
    table = hermite_table(values.T, max_degree)  # (slots, S, max_degree+1)
    return np.ascontiguousarray(table.transpose(0, 2, 1))


def slot_products(degrees: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(R, S) products over slots c of ``table[c][degrees[:, c]]``, for degrees (R, slots).

    One gather and one multiply per slot serve every row.  A row's slot
    factors multiply left to right, and a zero-degree slot by h_0 = 1.0,
    which is exact: the bits are those of the nonzero-slot product, for any
    sample slice of the table.
    """
    acc = table[0][degrees[:, 0]]
    for c in range(1, degrees.shape[1]):
        acc *= table[c][degrees[:, c]]
    return acc


def phi_batch(patterns: PatternStack, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate a stack of basis functions on a stack of instances.

    X has shape (S, n, d) and Y (S, n, m); the result is a C-contiguous (S, K)
    array, one column per pattern in stack order: ``slot_products`` of the
    patterns' slot degrees on the ``slot_table`` of (X, Y), over sample
    blocks whose (K, block) product stays in cache.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if patterns.A.shape[1:] != X.shape[1:] or patterns.B.shape[1:] != Y.shape[1:]:
        raise ValueError(f"pattern shapes do not match instance shapes {X.shape}/{Y.shape}")
    degs = patterns.slot_degrees
    table = slot_table(X, Y, int(degs.max(initial=0)))
    S = table.shape[2]
    out = np.empty((S, len(patterns)))  # C order: numpy sums a contiguous axis pairwise
    step = max(1, PHI_BLOCK_BYTES // (8 * len(patterns)))
    for lo in range(0, S, step):
        out[lo : lo + step] = slot_products(degs, table[:, :, lo : lo + step]).T
    return out


# ---------------------------------------------------------------------------
# inner-product expansion and joint coefficients


@dataclass
class CoeffTable:
    """Sparse coefficient table keyed by multi-index."""

    dimension: int
    entries: dict[tuple[int, ...], float]

    def l2_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.entries.values()))

    def evaluate(self, x: Sequence[float]) -> float:
        """Sum of coeff(alpha) * h_alpha(x), h_alpha the product of h_{alpha_i}(x_i)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"x must have shape ({self.dimension},), got {x.shape}")
        table = hermite_table(x, max(map(sum, self.entries), default=0))
        cols = np.arange(self.dimension)
        return float(sum(c * math.prod(table[cols, alpha]) for alpha, c in self.entries.items()))


def expand_inner_product(y: Sequence[float], degree: int) -> CoeffTable:
    """Hermite expansion of z -> h_degree(<x, y>) for a unit vector y.

    Returns the table {alpha: sqrt(degree!/prod alpha_i!) * y^alpha} over
    |alpha| = degree, so that h_degree(<x, y>) = sum coeff(alpha) h_alpha(x)
    for every x.  The coefficient vector has unit l2 norm for every unit y.
    """
    y = np.asarray(y, dtype=float)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if abs(np.linalg.norm(y) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"y must be a unit vector, got norm {np.linalg.norm(y)!r}")
    d = y.shape[0]
    entries: dict[tuple[int, ...], float] = {}
    for alpha in multiindex_enumerate(d, degree):
        if sum(alpha) != degree:
            continue
        coeff = sqrt_multinomial(degree, alpha) * float(np.prod(y ** np.asarray(alpha)))
        entries[tuple(alpha)] = coeff
    return CoeffTable(dimension=d, entries=entries)


def lambda_m1_closed(alpha: MultiIndex, beta: int, q: Sequence[float]) -> float:
    """Closed-form joint coefficient for one response column, zero noise.

    Equals 1{|alpha| = beta} * sqrt(multinomial(beta, alpha)) * q^alpha for a
    unit vector q.
    """
    q = np.asarray(q, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != q.shape[0]:
        raise ValueError("dimension mismatch between alpha and q")
    if abs(np.linalg.norm(q) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"q must be a unit vector, got norm {np.linalg.norm(q)!r}")
    if sum(alpha) != beta:
        return 0.0
    return sqrt_multinomial(beta, alpha) * float(np.prod(q ** np.asarray(alpha)))


def lambda_mc_pairs(
    pairs: Sequence[tuple[MultiIndex, MultiIndex]],
    Q: np.ndarray,
    sigma: float,
    samples: int,
    rng: np.random.Generator,
) -> list[MomentEstimate]:
    """Joint coefficients E[h_alpha(U) h_beta((UQ + sigma V)/sqrt(1+sigma^2))].

    All pairs share one (U, V) sample batch (common random numbers), which
    keeps cross-pair comparisons low-variance while each estimate stays
    unbiased.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    Q = np.asarray(Q, dtype=float)
    d, m = Q.shape
    A = np.array([alpha for alpha, _ in pairs], dtype=int)
    B = np.array([beta for _, beta in pairs], dtype=int)
    if A.shape != (len(pairs), d) or B.shape != (len(pairs), m):
        raise ValueError(f"pair dims do not match Q shape {(d, m)}")
    patterns = PatternStack(A[:, None, :], B[:, None, :])
    U = rng.standard_normal((samples, d))
    V = rng.standard_normal((samples, m))
    W = planted_response(U, Q, V, sigma)
    vals = phi_batch(patterns, U[:, None, :], W[:, None, :])
    return [
        MomentEstimate(value=1.0, stderr=0.0, samples=0)
        if degree == 0
        else MomentEstimate.from_values(vals[:, j])
        for j, degree in enumerate(patterns.degrees)
    ]
