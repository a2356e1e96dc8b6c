import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shufflab.rng import make_rng


def test_same_spec_reproduces_bit_identical():
    a = make_rng(123, 5).standard_normal(100)
    b = make_rng(123, 5).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = make_rng(123, 0).standard_normal(100)
    b = make_rng(123, 1).standard_normal(100)
    assert not np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**20))
def test_derived_seed_is_pure_function(master, index):
    first, second = make_rng(master, index), make_rng(master, index)
    assert first.bit_generator.state == second.bit_generator.state


@pytest.mark.parametrize(
    "master, index, normals, integer",
    [
        (0, 0, (1.6681368549438127, 0.7288397468307554), 8657376750829206273),
        (1, 5, (0.057446564609936454, -0.3460104327460594), 5159517652154321932),
        (123, 1023, (-1.0022946386980995, 0.5475174265953446), 5290648026570771457),
        (2**64 - 1, 0, (0.9444103345051849, -1.1302750250475293), 8238720479413262576),
        (2**64 - 1, 7, (-1.4511724955397227, 0.3579733865052977), 1977116044338613281),
        (2**63, 2**20, (-0.6807176591922482, -0.048570655674085805), 6770223492578842116),
    ],
)
def test_stream_first_draws_are_pinned(master, index, normals, integer):
    # SplitMix64 of master + golden gamma * (index + 1) seeds PCG64; any slip moves every stream
    rng = make_rng(master, index)
    assert tuple(rng.standard_normal(2).tolist()) == normals
    assert rng.integers(0, 2**63) == integer


def test_invalid_specs_rejected():
    for master, index in ((-1, 0), (2**64, 0), (0, -1)):
        with pytest.raises(ValueError):
            make_rng(master, index)
