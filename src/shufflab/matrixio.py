"""Text serialization for matrices and metadata sidecars.

Matrix format: first line ``<rows> <cols>``, then one line per row of
space-separated decimals printed with 17 significant digits (lossless for
float64).  Sidecar format: ``key=value`` lines, one per key, in insertion
order.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_matrix(path: str | os.PathLike, mat: np.ndarray) -> None:
    a = np.asarray(mat, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    row_fmt = " ".join([FLOAT_FMT] * a.shape[1])
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(row_fmt % tuple(row) for row in a.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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


def read_sidecar(path: str | os.PathLike) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out
