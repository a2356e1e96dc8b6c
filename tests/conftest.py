import math

import numpy as np


def mean_and_stderr(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def assert_within_nse(observed: float, stderr: float, target: float, n: float = 3.0, label: str = ""):
    assert abs(observed - target) <= n * stderr, (
        f"{label}: observed {observed} vs target {target} "
        f"(|z| = {abs(observed - target) / stderr if stderr else float('inf'):.2f})"
    )


def two_sample_z(m1: float, se1: float, m2: float, se2: float) -> float:
    return (m1 - m2) / math.sqrt(se1**2 + se2**2)


def even_column_sums(rows: np.ndarray) -> np.ndarray:
    """For a stack of (n, c) multi-indices, whether every column sum is even."""
    return (rows.sum(axis=1) % 2 == 0).all(axis=1)


def read_sidecar(path) -> dict[str, str]:
    """The ``key=value`` lines of a ``matrixio.write_sidecar`` file, values as text."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key] = value
    return out
