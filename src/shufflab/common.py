"""Shared value types, error classes, the integer and sigma rules, the chunked Monte Carlo loop.

It also holds the one float format, ``FLOAT_FMT`` through ``format_float``:
17 significant digits, lossless for float64.  CSV fields, sidecar values
and matrix tokens (``matrixio``) all print floats by it, and it lives here
so that the CLI can print a row without loading ``matrixio``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

DRAW_CHUNK_BYTES = 1 << 21  # bytes of the arrays one chunk of Monte Carlo draws may hold at once
FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def as_integer(name: str, value: object) -> int:
    """``value`` as an int if it is integral (2.0 gives 2), else a ValueError naming ``name``."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, NaN, inf
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_sigma(sigma: float) -> None:
    """ValueError unless sigma >= 0 with sigma * sigma finite: every law uses 1 + sigma^2."""
    if not 0 <= sigma <= math.sqrt(sys.float_info.max):  # False for NaN; exact for an int
        raise ValueError(f"need finite sigma >= 0 with a finite square, got {sigma}")


class CapacityError(Exception):
    """An enumeration or workload exceeds a configured cap."""


class UnsupportedRegimeError(Exception):
    """The requested (d, m, k, sigma) combination has no applicable evaluator."""


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo estimate with its standard error.

    ``stderr`` is the standard error of ``value`` (0 for exact results).
    """

    value: float
    stderr: float
    samples: int

    @classmethod
    def from_values(cls, vals: np.ndarray) -> "MomentEstimate":
        """Sample mean of ``vals``; stderr is the n-1 sample std over sqrt(n), inf at n = 1."""
        n = len(vals)
        stderr = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
        return cls(value=float(vals.mean()), stderr=stderr, samples=n)


def draw_chunked(
    draw: Callable[[int], np.ndarray], total: int, chunk: int
) -> np.ndarray:
    """Concatenate draw(b) over consecutive batches of at most ``chunk`` draws.

    Where ``draw`` takes several arrays from the stream per batch (the case-1
    likelihood ratio's Bartlett factors then Y, the detector's chi-squares),
    the chunk size fixes how they interleave, so changing it changes the
    output bits.  A ``draw`` that takes each sample as one contiguous stretch
    (the m = d Verblunsky coefficients, the advantage kernel's (X, Q) rows)
    gives the same bits at any chunk size.
    """
    if total < 1:
        raise ValueError(f"samples must be >= 1, got {total}")
    parts = []
    done = 0
    while done < total:
        b = min(chunk, total - done)
        parts.append(draw(b))
        done += b
    return np.concatenate(parts)
