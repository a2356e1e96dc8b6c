"""Orthonormal Hermite polynomial engine.

Everything here is built on the probabilists' Hermite family, rescaled so
that E[h_a(Z) h_b(Z)] = 1{a=b} for Z standard normal.  Only the normalized
recurrence

    h_{k+1}(z) = (z * h_k(z) - sqrt(k) * h_{k-1}(z)) / sqrt(k+1)

is ever evaluated, by ``hermite_table``; the raw polynomials with explicit
factorials overflow past degree ~85.  Multi-index products over matrix
entries form the basis functions phi used by the advantage estimators.  A
list of them is stacked once into a ``PatternStack`` of degree arrays, and
``phi_block`` evaluates a stack with one table gather and one multiply per
matrix entry (slot) and sample block, whatever the number of patterns.  The
closed-form joint coefficients for a single response column live here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class PatternPair:
    """Row-indexed multi-index family (A, B) selecting one basis function.

    A is an (n, d) array of X-side degrees, B an (n, m) array of Y-side
    degrees; the basis function is the product of one normalized Hermite
    factor per matrix entry.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=int)
        B = np.asarray(self.B, dtype=int)
        if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
            raise ValueError("A and B must be 2-d with matching row counts")
        if (A < 0).any() or (B < 0).any():
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def degree(self) -> int:
        return int(self.A.sum() + self.B.sum())

    @property
    def is_empty(self) -> bool:
        return self.degree == 0


class PatternStack(Sequence[PatternPair]):
    """K patterns of one shape, stacked: A is (K, n, d) and B is (K, n, m).

    Built by ``pattern_pairs``, or by ``phi_batch`` from a list of
    ``PatternPair``s; indexing or iterating gives ``PatternPair`` rows.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray) -> None:
        self.A, self.B = A, B
        # (K, slots): pattern k's degrees, X slots row-major, then Y slots
        self.slot_degrees = np.concatenate([A.reshape(len(A), -1), B.reshape(len(B), -1)], axis=1)
        self.degrees = self.slot_degrees.sum(axis=1)

    def __len__(self) -> int:
        return len(self.A)

    def __getitem__(self, index: int) -> PatternPair:
        return PatternPair(A=self.A[index], B=self.B[index])


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


def slot_table(X: np.ndarray, Y: np.ndarray, max_degree: int) -> np.ndarray:
    """Hermite table (slots, max_degree+1, S) of X (S, n, d) then Y (S, n, m), slots row-major."""
    S = X.shape[0]
    values = np.concatenate([X.reshape(S, -1), Y.reshape(S, -1)], axis=1)
    table = hermite_table(values.T, max_degree)  # (slots, S, max_degree+1)
    return np.ascontiguousarray(table.transpose(0, 2, 1))


def phi_block(patterns: PatternStack, table: np.ndarray) -> np.ndarray:
    """Basis values of the samples of a ``slot_table`` (or a sample slice of one), as (S, K).

    One gather and one multiply per slot serve every pattern, over sample
    blocks whose (K, block) product stays in cache.  A column's slot factors
    multiply left to right, and a zero-degree slot by h_0 = 1.0, which is
    exact: the bits are those of the nonzero-slot product for any blocks.
    """
    S, degs = table.shape[2], patterns.slot_degrees
    out = np.empty((S, len(patterns)))  # C order: numpy sums a contiguous axis pairwise
    step = max(1, PHI_BLOCK_BYTES // (8 * len(patterns)))
    for lo in range(0, S, step):
        block = table[:, :, lo : lo + step]
        acc = block[0][degs[:, 0]]  # (K, step)
        for c in range(1, degs.shape[1]):
            acc *= block[c][degs[:, c]]
        out[lo : lo + step] = acc.T
    return out


def phi_batch(
    patterns: Sequence[PatternPair], X: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """Evaluate many basis functions on a stack of instances.

    X has shape (S, n, d) and Y (S, n, m); the result is a C-contiguous (S, K)
    array, one column per pattern in the order given; pass a ``PatternStack``
    to evaluate one pattern list many times.  This is ``phi_block`` on the
    whole ``slot_table`` of (X, Y); a caller that evaluates many sample
    ranges of one draw builds the table once and passes ``phi_block`` slices.
    """
    if not isinstance(patterns, PatternStack):  # np.stack rejects mixed shapes
        patterns = PatternStack(np.stack([p.A for p in patterns]), np.stack([p.B for p in patterns]))
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if patterns.A.shape[1:] != X.shape[1:] or patterns.B.shape[1:] != Y.shape[1:]:
        raise ValueError(f"pattern shapes do not match instance shapes {X.shape}/{Y.shape}")
    return phi_block(patterns, slot_table(X, Y, int(patterns.slot_degrees.max(initial=0))))


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
    patterns = [PatternPair(A=[alpha], B=[beta]) for alpha, beta in pairs]
    if any(p.A.shape[1] != d or p.B.shape[1] != m for p in patterns):
        raise ValueError(f"pair dims do not match Q shape {(d, m)}")
    U = rng.standard_normal((samples, d))
    V = rng.standard_normal((samples, m))
    W = planted_response(U, Q, V, sigma)
    vals = phi_batch(patterns, U[:, None, :], W[:, None, :])
    return [
        MomentEstimate(value=1.0, stderr=0.0, samples=0)
        if p.is_empty
        else MomentEstimate.from_values(vals[:, j])
        for j, p in enumerate(patterns)
    ]
