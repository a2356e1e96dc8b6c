import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shufflab.matrixio import (
    format_float,
    read_matrix,
    read_sidecar,
    write_matrix,
    write_sidecar,
)


@settings(max_examples=50)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
    )
)
def test_roundtrip_is_lossless(tmp_path_factory, mat):
    path = tmp_path_factory.mktemp("mat") / "m.txt"
    write_matrix(path, mat)
    assert np.array_equal(read_matrix(path), mat)


def test_format_details(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(path, np.array([[1.0, 2.5], [3.0, -4.0], [0.1, 1e-300]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "3 2"
    assert len(lines) == 4
    assert lines[1].split() == ["1", "2.5"]


def test_bytes_match_per_element_format(tmp_path):
    # each row goes through one "%.17g %.17g ..." string; the bytes are those
    # of formatting every element on its own
    cases = [
        np.array([[-0.0, 5e-324, 1e300], [np.inf, -np.inf, np.nan]]),
        np.array([[0.1], [-0.0], [np.nan]]),
        np.array([2.5, -1e-310]),  # 1-d: written as one column
    ]
    for k, mat in enumerate(cases):
        path = tmp_path / f"m{k}.txt"
        write_matrix(path, mat)
        a = mat[:, None] if mat.ndim == 1 else mat
        expected = f"{a.shape[0]} {a.shape[1]}\n" + "".join(
            " ".join(format_float(x) for x in row) + "\n" for row in a
        )
        assert path.read_text() == expected


def test_17_digit_roundtrip_of_irrationals():
    x = np.pi / 3
    assert float(format_float(x)) == x


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_sidecar_roundtrip(tmp_path):
    path = tmp_path / "meta.txt"
    write_sidecar(path, {"seed": 7, "sampler": "gaussian", "sigma": 0.5})
    meta = read_sidecar(path)
    assert meta["seed"] == "7"
    assert meta["sampler"] == "gaussian"
    assert float(meta["sigma"]) == 0.5
