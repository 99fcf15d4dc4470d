"""Sampled-function container and its CSV round trip."""

import io

import numpy as np
import pytest

from stripzeros import InputFormatError, SampledFunction


def test_validation():
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 0.0, np.ones(3))
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 1.0, np.array([]))
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 1.0, np.array([1.0, np.inf]))


def test_grid_and_interpolation():
    f = SampledFunction(-1.0, 0.5, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
    assert f.n == 5
    assert f.t_end == 1.0
    assert f.value_at(-1.0) == 0.0
    assert f.value_at(-0.75) == 0.5
    # constant extension outside
    assert f.value_at(-5.0) == 0.0
    assert f.value_at(5.0) == 16.0


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    f = SampledFunction(-3.123456789, 0.0625, rng.standard_normal(57) * 1e3)
    buf = io.StringIO()
    f.to_csv(buf)
    back = SampledFunction.from_csv(io.StringIO(buf.getvalue()))
    assert back.t0 == f.t0
    assert back.h == f.h
    assert np.array_equal(back.values, f.values)


def test_csv_infers_grid_without_header():
    text = "t,value\n0.0,1.0\n0.5,2.0\n1.0,3.0\n"
    f = SampledFunction.from_csv(io.StringIO(text))
    assert f.t0 == 0.0
    assert f.h == 0.5
    assert f.n == 3


def test_from_function():
    f = SampledFunction.from_function(np.cos, 0.0, 0.1, 11)
    assert f.values[0] == 1.0
    assert f.values[10] == pytest.approx(np.cos(1.0))


@pytest.mark.parametrize(
    "text, message",
    [
        ("# t0=0.0 h=1.0 n=4\nt,value\n0.0,1.0\n1.0,2.0\n2.0,3.0\n", "n=4"),
        ("t,value\n0.0,1.0\n1.0,2.0\n3.0,3.0\n", "off the grid"),
        ("# t0=0.0 h=1.0 n=3\nt,value\n0.0,1.0\n1.0,2.0\n2.1,3.0\n", "off the grid"),
    ],
    ids=["row-count", "non-uniform-without-header", "off-header-grid"],
)
def test_csv_rejects_grid_mismatch(text, message):
    with pytest.raises(InputFormatError, match=message):
        SampledFunction.from_csv(io.StringIO(text))


def test_csv_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        SampledFunction.from_csv(str(tmp_path / "missing.csv"))
