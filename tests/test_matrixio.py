import tracemalloc

import numpy as np
import pytest
from conftest import read_sidecar
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shufflab.common import format_float
from shufflab.matrixio import BLOCK, read_matrix, write_matrix, write_sidecar


def per_element_text(a: np.ndarray) -> str:
    """The matrix file as format_float of each element would print it."""
    a = a[:, None] if a.ndim == 1 else a
    return f"{a.shape[0]} {a.shape[1]}\n" + "".join(
        " ".join(format_float(x) for x in row) + "\n" for row in a.tolist()
    )


def assert_writes_per_element_text(path, a: np.ndarray) -> None:
    write_matrix(path, a)
    got, expected = path.read_text(), per_element_text(a)
    if got != expected:  # name the first differing element, not a megabyte diff
        pairs = zip(got.split(), expected.split())
        bad = next((g, e) for g, e in pairs if g != e)
        raise AssertionError(f"wrote {bad[0]!r} where format_float gives {bad[1]!r}")


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
    cases = [
        np.array([[-0.0, 5e-324, 1e300], [np.inf, -np.inf, np.nan]]),
        np.array([[0.1], [-0.0], [np.nan]]),
        np.array([2.5, -1e-310]),  # 1-d: written as one column
    ]
    for k, mat in enumerate(cases):
        assert_writes_per_element_text(tmp_path / f"m{k}.txt", mat)


@settings(max_examples=200)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 7)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64),
    )
)
def test_bytes_match_for_every_float64(tmp_path_factory, mat):
    assert_writes_per_element_text(tmp_path_factory.mktemp("mat") / "m.txt", mat)


def test_bytes_match_over_a_million_log_uniform_values(tmp_path):
    # magnitudes 1e-8 .. 1e18 span the fast range (1e-6, 1e16) and both sides
    # of it; 1,048,576 values are 256 blocks and about 6,000 per exponent
    rng = np.random.default_rng(18)
    size = 1 << 20
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 18, size)
    assert_writes_per_element_text(tmp_path / "m.txt", x.reshape(-1, 16))


def test_bytes_match_next_to_every_power_of_ten(tmp_path):
    # the decimal exponent from log10 is off by one next to a power of ten,
    # and the writer relies on no 17-digit rounding carrying into a new
    # leading digit there
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    steps = [powers]
    for direction in (0.0, np.inf):
        x = powers
        for _ in range(3):
            x = np.nextafter(x, direction)
            steps.append(x)
    x = np.concatenate(steps)
    assert_writes_per_element_text(tmp_path / "m.txt", np.concatenate([x, -x]).reshape(-1, 7))


def test_known_tokens(tmp_path):
    # ties round half to even; 9.99999999999999999e-5 is the double nearest
    # 1e-4, just above it and printed in fixed form, while its neighbour
    # below stays in exponent form
    cases = [
        (1000000000000000.25, "1000000000000000.2"),
        (1000000000000000.75, "1000000000000000.8"),
        (9.99999999999999999e-5, "0.0001"),
        (9.9999999999999991e-05, "9.9999999999999991e-05"),
        (1.0000000000000001e-05, "1.0000000000000001e-05"),
        (-2.0, "-2"),
        (4095.0, "4095"),
        (123456789012345.0, "123456789012345"),
        (-0.0, "-0"),
        (0.0, "0"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
    ]
    path = tmp_path / "m.txt"
    write_matrix(path, np.array([[x for x, _ in cases]]))
    assert path.read_text().splitlines()[1].split(" ") == [token for _, token in cases]


def test_integer_valued_floats(tmp_path):
    # a permutation file: one row of 0 .. n - 1
    perm = np.random.default_rng(4).permutation(4096)[None, :].astype(float)
    assert_writes_per_element_text(tmp_path / "perm.txt", perm)
    assert np.array_equal(read_matrix(tmp_path / "perm.txt"), perm)


@pytest.mark.parametrize("shape", [(1, 2 * BLOCK + 5), (2 * BLOCK // 7 + 3, 7), (BLOCK, 1)])
def test_rows_spanning_blocks(tmp_path, shape):
    mat = np.random.default_rng(5).standard_normal(shape)
    assert_writes_per_element_text(tmp_path / "m.txt", mat)
    assert np.array_equal(read_matrix(tmp_path / "m.txt"), mat)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
def test_empty_matrix_rejected_before_writing(tmp_path, shape):
    path = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="nonempty"):
        write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_write_memory_stays_per_block(tmp_path):
    # A 4096 x 16 matrix is 65,536 values and 1.3 MB of text.  The writer
    # holds one block's work: 178 bytes a value in the reused byte rows,
    # gather indices, gathered bytes and mask, and about 300 more in the
    # block's own temporaries: 1.9 MB at BLOCK = 4096.  Formatting the whole
    # matrix at once would hold about 30 MB.
    mat = np.random.default_rng(6).standard_normal((4096, 16))
    write_matrix(tmp_path / "warm.txt", mat[:1])  # layout tables are built once
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.txt", mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 600 * BLOCK
    assert peak < 4 << 20


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
