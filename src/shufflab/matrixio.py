"""Text serialization for matrices and metadata sidecars.

Matrix format: first line ``<rows> <cols>``, then one line per row of
space-separated decimals printed with 17 significant digits (lossless for
float64).  Sidecar format: ``key=value`` lines, one per key, in insertion
order.  Both print floats by ``common.format_float``, the one rule that the
CLI's CSV fields use too.

``write_matrix`` writes, byte for byte, ``format_float`` of every element,
but in NumPy, ``BLOCK`` elements at a time, each block written as it is
done so that transient memory does not grow with the matrix:

- **Fast range.**  |x| in (1e-6, 1e16), where the decimal exponent e is in
  [-6, 15] and 10^(16 - e) is an exact double.
- **Exact digits.**  e starts as floor(log10|x|) and is corrected once by
  ±1 until 10^16 <= |x|·10^(16 - e) < 10^17 holds exactly for the product
  hi + lo of Dekker's TwoProduct.  The 17 digits are N = hi + rint(lo),
  rounded half to even like printf because hi >= 2^53 is even.  N never
  rounds up to 10^17: no double in the fast range lies within half a unit
  of the 17th digit below a power of ten (the tests write the neighbours
  of every power of ten).
- **Layout.**  The digits come from 4-digit table lookups.  Every (sign, e,
  index of the last nonzero digit) has one ``%g`` token (fixed or exponent
  form, trailing zeros stripped), kept as a row of byte positions; a block
  is one gather through its elements' rows, with the separator appended,
  and one mask that drops the padding.
- **Fallback.**  Every other element (±0, subnormals, inf, nan, and smaller
  or larger magnitudes) goes through ``format_float`` one at a time.
"""

from __future__ import annotations

import functools
import os
from typing import Mapping

import numpy as np

from .common import format_float

BLOCK = 4096
FAST_RANGE = (1e-6, 1e16)
_E_MIN, _E_MAX = -6, 15
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_DEKKER_SPLIT = 134217729.0  # 2^27 + 1

# A block's elements are rows of one byte array: 3 pad bytes, so that the 16
# digits after the first fall on 4-byte words, then the 17 digits, the
# literal bytes a token may use, one spare byte and the separator.  Layout
# codes index a row from its first digit; fallback tokens overwrite its
# first 24 bytes.
_LITERALS = b"-.0e56"
_TOKEN_WIDTH = 25
_SEP = _TOKEN_WIDTH - 1
_PAD = 3
_ROW_BYTES = _PAD + _TOKEN_WIDTH


def _token_layout(negative: bool, e: int, last: int) -> list[int]:
    """Codes of ``format_float(x)`` + separator, x with exponent e and digits 0..last."""
    lit = {chr(c): 17 + i for i, c in enumerate(_LITERALS)}
    digits = list(range(last + 1))
    out = [lit["-"]] if negative else []
    if e < -4:  # %g exponent form
        out += digits[:1] + ([lit["."]] + digits[1:] if last else [])
        out += [lit["e"], lit["-"], lit["0"], lit[str(-e)]]
    elif e < 0:
        out += [lit["0"], lit["."]] + [lit["0"]] * (-e - 1) + digits
    else:
        out += list(range(e + 1)) + ([lit["."]] + digits[e + 1:] if last > e else [])
    return out + [_SEP]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Layout codes and lengths by group, 4-digit ASCII words, trailing-zero counts.

    Group (sign, e, last) is row (22·sign + e + 6)·17 + last, and the
    fallback group of a k-byte token is row ``fallback + k``.
    """
    layouts = [
        _token_layout(negative, e, last)
        for negative in (False, True)
        for e in range(_E_MIN, _E_MAX + 1)
        for last in range(17)
    ]
    fallback = len(layouts)
    layouts += [list(range(k)) + [_SEP] for k in range(_TOKEN_WIDTH)]
    codes = np.full((len(layouts), _TOKEN_WIDTH), _SEP, dtype=np.int32)
    for row, layout in zip(codes, layouts):
        row[: len(layout)] = layout
    lengths = np.array([len(layout) for layout in layouts], dtype=np.uint8)
    q = np.arange(10_000)
    words = ((q[:, None] // np.array([1000, 100, 10, 1])) % 10 + ord("0")).astype(np.uint8)
    trailing = sum((q % 10**k == 0).astype(np.int8) for k in (1, 2, 3)) + (q == 0)
    return codes, lengths, words.ravel().view(np.uint32), trailing, fallback


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi, lo with hi = fl(a * b) and hi + lo = a * b exactly (Dekker)."""
    hi = a * b
    t = _DEKKER_SPLIT * a
    a1 = t - (t - a)
    a2 = a - a1
    t = _DEKKER_SPLIT * b
    b1 = t - (t - b)
    b2 = b - b1
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = round-half-even(a·10^(16 - e)), the 17 digits of a in the fast range, and e."""
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64)
    hi, lo = _two_product(a, _POW10[16 - e])
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if below.any() or above.any():
        e += above
        e -= below
        hi, lo = _two_product(a, _POW10[16 - e])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _format_block(x: np.ndarray, first_newline: int, cols: int, work: tuple) -> np.ndarray:
    """``format_float(v)`` + separator for each v in x, concatenated, as uint8.

    The separator is a newline at x[first_newline::cols] and a space
    elsewhere.  ``work`` holds the byte rows, gather indices, gathered
    bytes and mask of one block, reused so that no block pays for fresh
    pages.
    """
    codes, lengths, words, trailing, fallback = _tables()
    buf, index, gathered, keep = (w[: len(x)] for w in work)
    a = np.abs(x)
    fast = (a > FAST_RANGE[0]) & (a < FAST_RANGE[1])
    slow = None if fast.all() else np.flatnonzero(~fast)
    if slow is not None:
        a[slow] = 1.0
    n, e = _digits(a)
    # N = lead·10^16 + quads[0]·10^12 + quads[1]·10^8 + quads[2]·10^4 + quads[3]
    lead, rest = np.divmod(n, 10**16)
    quads = [q for h in np.divmod(rest, 10**8) for q in np.divmod(h.astype(np.int32), 10_000)]
    buf[:, _PAD] = lead + ord("0")
    for k, q in enumerate(quads, start=1):
        buf.view(np.uint32)[:, k] = words.take(q)
    zeros = trailing.take(quads[0])
    for q in quads[1:]:
        zeros = np.where(q == 0, zeros + 4, trailing.take(q))
    buf[:, _PAD + 17 : _PAD + 17 + len(_LITERALS)] = np.frombuffer(_LITERALS, dtype=np.uint8)
    buf[:, _PAD + _SEP] = ord(" ")
    buf[first_newline::cols, _PAD + _SEP] = ord("\n")
    group = (np.signbit(x) * (_E_MAX - _E_MIN + 1) + (e - _E_MIN)) * 17 + (16 - zeros)
    if slow is not None:
        tokens = [format_float(v).encode() for v in x[slow].tolist()]
        group[slow] = fallback + np.array([len(t) for t in tokens])
        padded = b"".join(t.ljust(_TOKEN_WIDTH - 1) for t in tokens)
        buf[slow, _PAD:_PAD + _TOKEN_WIDTH - 1] = np.frombuffer(padded, dtype=np.uint8).reshape(
            -1, _TOKEN_WIDTH - 1
        )
    codes.take(group, axis=0, out=index)
    index += np.arange(_PAD, len(x) * _ROW_BYTES, _ROW_BYTES, dtype=np.int32)[:, None]
    buf.ravel().take(index, out=gathered)
    np.less(np.arange(_TOKEN_WIDTH, dtype=np.uint8), lengths.take(group)[:, None], out=keep)
    return gathered[keep]


def write_matrix(path: str | os.PathLike, mat: np.ndarray) -> None:
    a = np.asarray(mat, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    if 0 in a.shape:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    rows, cols = a.shape
    flat = a.ravel()
    block = min(BLOCK, flat.size)
    work = (
        np.empty((block, _ROW_BYTES), dtype=np.uint8),
        np.empty((block, _TOKEN_WIDTH), dtype=np.int32),
        np.empty((block, _TOKEN_WIDTH), dtype=np.uint8),
        np.empty((block, _TOKEN_WIDTH), dtype=bool),
    )
    with open(path, "wb") as fh:
        fh.write(f"{rows} {cols}\n".encode())
        for start in range(0, flat.size, block):
            x = flat[start : start + block]
            fh.write(_format_block(x, (-start - 1) % cols, cols, work))


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        rows, cols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, body is {data.shape}")
    return data


def write_sidecar(path: str | os.PathLike, meta: Mapping[str, object]) -> None:
    with open(path, "w") as fh:
        for key, value in meta.items():
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"{key}={value}\n")
