"""Orthonormal Hermite polynomial engine.

Everything here is built on the probabilists' Hermite family, rescaled so
that E[h_a(Z) h_b(Z)] = 1{a=b} for Z standard normal.  Only the normalized
recurrence

    h_{k+1}(z) = (z * h_k(z) - sqrt(k) * h_{k-1}(z)) / sqrt(k+1)

is ever evaluated, by ``hermite_table``; the raw polynomials with explicit
factorials overflow past degree ~85.  Multi-index products over matrix
entries form the basis functions phi used by the advantage estimators, all
evaluated by ``phi_batch``, and the closed-form joint coefficients for a
single response column live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .common import MomentEstimate
from .model import planted_response

EXACT_FACTORIAL_LIMIT = 20
UNIT_NORM_TOL = 1e-10


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

    def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out: list[tuple[int, ...]] = []
    for w in range(max_weight + 1):
        out.extend(compositions(w, dimension))
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

    def slot_degrees(self) -> np.ndarray:
        """Concatenated degree vector: X slots row-major, then Y slots."""
        return np.concatenate([self.A.ravel(), self.B.ravel()])


def pattern_pairs(n: int, d: int, m: int, max_degree: int) -> list[PatternPair]:
    """All (A, B) with total degree <= max_degree, graded lex over slots."""
    nslots = n * (d + m)
    out = []
    for vec in multiindex_enumerate(nslots, max_degree):
        arr = np.asarray(vec, dtype=int)
        out.append(PatternPair(A=arr[: n * d].reshape(n, d), B=arr[n * d :].reshape(n, m)))
    return out


def pattern_count(n: int, d: int, m: int, max_degree: int) -> int:
    """Number of patterns with total degree <= max_degree (stars and bars)."""
    return math.comb(n * (d + m) + max_degree, max_degree)


def phi_batch(
    patterns: Sequence[PatternPair], X: np.ndarray, Y: np.ndarray
) -> np.ndarray:
    """Evaluate many basis functions on a stack of instances.

    X has shape (S, n, d) and Y (S, n, m); the result is (S, K) with one
    column per pattern, in the order given.  Patterns are internally
    re-sorted lexicographically so that shared slot prefixes are computed
    once; columns are written back in caller order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    S = X.shape[0]
    nslots = X.shape[1] * X.shape[2] + Y.shape[1] * Y.shape[2]
    degs = np.stack([p.slot_degrees() for p in patterns])
    if degs.shape[1] != nslots:
        raise ValueError("pattern slot count does not match instance shape")
    slots = np.concatenate([X.reshape(S, -1), Y.reshape(S, -1)], axis=1)
    maxdeg = int(degs.max(initial=0))
    table = hermite_table(slots, maxdeg)  # (S, nslots, maxdeg+1)

    order = np.lexsort(degs[:, ::-1].T)  # row-lexicographic
    out = np.empty((S, len(patterns)))
    prefixes: list[np.ndarray] = [np.ones(S)] + [None] * nslots  # type: ignore[list-item]
    prev: np.ndarray | None = None
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
    patterns = []
    for alpha, beta in pairs:
        if len(alpha) != d or len(beta) != m:
            raise ValueError(
                f"pair dims {(len(alpha), len(beta))} do not match Q shape {(d, m)}"
            )
        patterns.append(PatternPair(A=[alpha], B=[beta]))
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
