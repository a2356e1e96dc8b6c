"""Orthonormal Hermite polynomial engine.

Everything here is built on the probabilists' Hermite family, rescaled so
that E[h_a(Z) h_b(Z)] = 1{a=b} for Z standard normal.  Only the normalized
recurrence

    h_{k+1}(z) = (z * h_k(z) - sqrt(k) * h_{k-1}(z)) / sqrt(k+1)

is ever evaluated, by ``hermite_table``, one contiguous plane per degree on
a leading degree axis; the raw polynomials with explicit factorials overflow
past degree ~85.  Multi-index products over matrix entries form the basis
functions phi used by the advantage estimator.  A set of them is a
``PatternStack``: its stacked degree arrays are the only form a pattern
takes.  One kernel, ``slot_products``, evaluates any stack of per-slot
degrees on a slot-major Hermite table with one gather and one multiply per
matrix entry (slot), whatever the number of rows.  That table,
``slot_table``, is a view of ``hermite_table`` over the (slots, samples)
values with the slot and degree axes swapped, not a transposed copy.  The
advantage estimator runs the kernel on the X-side and the Y-side of a
``SideSplit``, since phi_(A,B)(X, Y) = phi_A(X) phi_B(Y).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# tabulated evaluation


def hermite_table(
    x: np.ndarray, max_degree: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Values h_0(x) .. h_max_degree(x), stacked along a leading axis: (max_degree+1, *x.shape).

    Each degree is one contiguous plane, computed in place from the two
    below it with one scratch plane, by the recurrence's operations in its
    order.  The table goes into ``out`` and the scratch plane into
    ``scratch`` where they are given, else into new arrays; ``x`` may be
    ``out[1]`` itself.  ``slot_table`` reads a table of (slots, samples)
    values through a view with the degree axis second.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = x
    if scratch is None:
        scratch = np.empty(x.shape)
    for k in range(1, max_degree):
        h = out[k + 1, ...]  # a view, also where x is 0-d
        np.multiply(x, out[k], out=h)
        h -= np.multiply(math.sqrt(k), out[k - 1], out=scratch)
        h /= math.sqrt(k + 1)
    return out


# ---------------------------------------------------------------------------
# multi-indices

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
    """The patterns of ``pattern_pairs(n, d, m, D)`` with a nonzero planted mean possible.

    A planted mean E phi_A(X) phi_B(Y) is exactly 0 unless every column sum
    of A and every column sum of B is even.  With S (d x d) and S' (m x m)
    diagonal +-1, (X, Q) -> (XS, SQ) and (Q, Z) -> (QS', ZS') leave the
    planted law unchanged, and h_a(-x) = (-1)^a h_a(x), so the mean equals
    itself times prod_j s_j^(column sum j of A) and times
    prod_j s'_j^(column sum j of B); an odd column sum forces it to 0.
    ``randmat.qr_sign_fixed`` is equivariant under both flips, so the
    estimator's own draws keep the symmetry.  Only the rest are split here:

    ``x_degrees`` (Ka, n*d) and ``y_degrees`` (Kb, n*m) hold every X-side and
    every Y-side multi-index of degree <= D whose column sums are all even,
    each sorted by degree.  Block w, ``blocks[w] = (r0, r1, cols, offset)``,
    pairs the X-side rows r0:r1, those of degree w, with the first ``cols``
    Y-side rows, those of degree <= D - w; the blocks of odd w are empty.
    Flattened row-major from ``offset`` on, the D + 1 blocks hold every kept
    pattern exactly once, pattern k at ``position[k]``, and nothing else: the
    Ka x Kb product never forms.  A dropped pattern has ``position`` equal to
    ``kept``, the blocks' total size: one slot past the end, which reads as 0.

    Within a degree, the Y-side rows are grouped by row orbit: the multi-indices
    that differ by a permutation of the n rows are contiguous, orbit j holding
    the next ``orbit_sizes[j]`` rows.  A row permutation keeps column sums, so
    an orbit is kept or dropped whole.  On the X side the same order holds,
    but nothing reads its orbits.
    """

    x_degrees: np.ndarray
    y_degrees: np.ndarray
    blocks: tuple[tuple[int, int, int, int], ...]
    position: np.ndarray
    orbit_sizes: np.ndarray

    @property
    def kept(self) -> int:
        """The number of kept patterns: the blocks' total size, and the dropped ones' position."""
        r0, r1, cols, offset = self.blocks[-1]
        return offset + (r1 - r0) * cols


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
    kept = ((patterns.A.sum(axis=1) % 2 == 0).all(axis=1)
            & (patterns.B.sum(axis=1) % 2 == 0).all(axis=1))
    x_degrees, x_index, _ = _by_degree(patterns.A[kept].reshape(-1, n * d), n)
    y_degrees, y_index, orbit_sizes = _by_degree(patterns.B[kept].reshape(-1, n * m), n)
    x_weight, y_weight = x_degrees.sum(axis=1), y_degrees.sum(axis=1)
    row_bounds = np.searchsorted(x_weight, np.arange(max_degree + 2))
    col_counts = np.searchsorted(y_weight, max_degree - np.arange(max_degree + 1), side="right")
    offsets = np.concatenate([[0], np.cumsum(np.diff(row_bounds) * col_counts)])
    w = x_weight[x_index]
    position = np.full(K, offsets[-1])
    position[kept] = offsets[w] + (x_index - row_bounds[w]) * col_counts[w] + y_index
    for array in (x_degrees, y_degrees, position, orbit_sizes):
        array.setflags(write=False)
    bounds = row_bounds.tolist()
    blocks = tuple(zip(bounds, bounds[1:], col_counts.tolist(), offsets.tolist()))
    return SideSplit(x_degrees, y_degrees, blocks, position, orbit_sizes)


def slot_table(
    X: np.ndarray, Y: np.ndarray, max_degree: int, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Hermite table (slots, max_degree+1, S) of X (S, n, d) then Y (S, n, m), slots row-major.

    A view of ``hermite_table`` on the (slots, S) values, with the slot and
    degree axes swapped: each (slot, degree) row of S values is contiguous.
    The values are written into the degree-1 plane, so the table is the only
    array of its size; ``out`` (max_degree+1, slots, S) and ``scratch``
    (slots, S) go to ``hermite_table``.
    """
    S = X.shape[0]
    x, y = X.reshape(S, -1).T, Y.reshape(S, -1).T
    if out is None:
        out = np.empty((max_degree + 1, len(x) + len(y), S))
    values = out[min(1, max_degree)]  # at degree 0 nothing reads the values
    values[: len(x)] = x
    values[len(x) :] = y
    return hermite_table(values, max_degree, out, scratch).transpose(1, 0, 2)


def slot_products(
    degrees: np.ndarray, table: np.ndarray, out: np.ndarray | None = None,
    gather: np.ndarray | None = None,
) -> np.ndarray:
    """(R, S) products over slots c of ``table[c][degrees[:, c]]``, for degrees (R, slots).

    One gather and one multiply per slot serve every row.  A row's slot
    factors multiply left to right, and a zero-degree slot by h_0 = 1.0,
    which is exact: the bits are those of the nonzero-slot product, for any
    sample slice of the table.  The products go into ``out`` and each slot's
    gathered rows into ``gather`` where they are given (both (R, S)), else
    into new arrays.
    """
    # mode="clip" gathers straight into out=, where "raise" would buffer a copy;
    # every degree is a row of the table, so nothing is clipped
    out = table[0].take(degrees[:, 0], axis=0, out=out, mode="clip")
    for c in range(1, degrees.shape[1]):
        out *= table[c].take(degrees[:, c], axis=0, out=gather, mode="clip")
    return out
