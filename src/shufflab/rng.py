"""Seed plumbing: deterministic derivation of per-task random streams.

Every sampler in this package takes an explicit ``numpy.random.Generator``.
Batch drivers derive one generator per logical task from a
(master_seed, stream_index) pair so that tasks can run in any order, or in
parallel, and still reproduce bit-identically on the same build.

The stream seed is derived with the SplitMix64 finalizer applied to
``master_seed + GOLDEN_GAMMA * (stream_index + 1)`` (all mod 2**64).  The
mixer name is recorded in output metadata; cross-language bit-exactness is
a non-goal.
"""

from __future__ import annotations

import numpy as np

MIXER_NAME = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def make_rng(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """The generator of stream ``stream_index`` under ``master_seed`` (module docstring).

    A pure function of the pair; ValueError unless 0 <= master_seed < 2**64
    and stream_index >= 0.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master_seed must fit in 64 unsigned bits")
    if stream_index < 0:
        raise ValueError("stream_index must be nonnegative")
    seed = _splitmix64(master_seed + _GOLDEN_GAMMA * (stream_index + 1))
    return np.random.Generator(np.random.PCG64(seed))
