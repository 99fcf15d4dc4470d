"""Sampled-function container and its CSV round trip."""

import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from stripzeros import InputFormatError, SampledFunction


def test_validation():
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 0.0, np.ones(3))
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 1.0, np.array([]))
    with pytest.raises(InputFormatError):
        SampledFunction(0.0, 1.0, np.array([1.0, np.inf]))


@pytest.mark.parametrize(
    "t0, h, message",
    [
        (np.inf, 0.1, "origin"),
        (np.nan, 0.1, "origin"),
        (0.0, np.inf, "step"),
        (0.0, np.nan, "step"),
        (0.0, 1e308, "grid end"),
        (-1e308, 1e308, "grid end"),
    ],
)
def test_validation_rejects_non_finite_grid(t0, h, message):
    with pytest.raises(InputFormatError, match=message):
        SampledFunction(t0, h, np.zeros(3))


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


def _load(text):
    return SampledFunction.from_csv(io.StringIO(text))


@pytest.mark.parametrize(
    "text, line",
    [
        ("#c\n\n0,1\n#x\n1,abc\n", 5),
        ("# t0=0 h=1 n=3\n\nt,value\n# c\n\n0,1\n1,2,9\n2,3\n", 7),
        ("#c\n\n0,1\n1,2\n\n# c\n2\n", 7),
        ("0,1\n   \n1,2\n", 2),
        ("1_0,1\n11,2\n", 1),
    ],
    ids=["bad-float", "three-columns", "one-column", "spaces-only", "underscore"],
)
def test_csv_reports_file_line(text, line):
    with pytest.raises(InputFormatError, match=f"^line {line}: "):
        _load(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# t0=0 h=1\n0,1\n# t0=5 h=1\n1,2\n", "line 3: grid header after"),
        ("t,value\n0,1\n1,2\n\n# n=2\n", "line 5: grid header after"),
        ("# t0=0 h=1\n0,1\n1,2 # h=2\n", "line 3: grid header after"),
        ("# t0=0 h=1\n0,1\n1,2\nt,value\n", "line 4: expected a t,value row"),
        ("# t0=0 h=1 n=2\n# t0=5 h=1\n0,1\n1,2\n", "line 2: second grid header"),
        ("t,value\nt,value\n0,1\n1,2\n", "line 2: expected a t,value row"),
    ],
    ids=["late-header", "late-count", "inline-late-header", "late-columns",
         "second-header", "second-columns"],
)
def test_csv_rejects_headers_after_the_data(text, message):
    with pytest.raises(InputFormatError, match=message):
        _load(text)


@pytest.mark.parametrize("header", ["# h=0.5", "# t0=0", "# t0=0 n=3"])
def test_csv_rejects_half_given_header(header):
    # "# h=0.5" over rows at t = 0, 1, 2 used to load with h = 1
    with pytest.raises(InputFormatError, match="line 1: grid header needs both"):
        _load(f"{header}\nt,value\n0,1\n1,2\n2,3\n")


@pytest.mark.parametrize(
    "header", ["# t0=nan h=1", "# t0=0 h=inf", "# t0=0 h=nan", "# t0=0 h=1e308"]
)
def test_csv_rejects_non_finite_header_grid(header):
    # "# t0=nan h=1" used to warn and report "off the grid node nan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match="origin|step|grid end"):
            _load(f"{header}\n0,1\n1,2\n2,3\n")


def test_csv_accepts_inline_comments_and_blank_lines():
    f = _load("\n# t0=0 h=0.5 n=3\nT,Value\n0,1 # first\n\n0.5,2\n# note\n1.0,3\n\n")
    assert (f.t0, f.h) == (0.0, 0.5)
    assert f.values.tolist() == [1.0, 2.0, 3.0]


@given(
    t0=st.floats(-1e6, 1e6),
    h=st.floats(1e-6, 1e3),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
)
@example(t0=0.0, h=1.0, values=[0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5])
@example(t0=-0.0, h=0.1, values=[1.7976931348623157e308, -1.7976931348623157e308])
def test_csv_round_trip_bit_exact_property(t0, h, values):
    f = SampledFunction(t0, h, np.array(values))
    buf = io.StringIO()
    f.to_csv(buf)
    back = _load(buf.getvalue())
    assert (back.t0, back.h) == (f.t0, f.h)
    assert back.values.tobytes() == f.values.tobytes()


def _oracle(text):
    """Per-line ``float`` parse of a sampled CSV's data rows."""
    rows = [
        line.split(",")
        for line in text.splitlines()
        if line.strip() and not line.startswith("#") and not line.startswith("t,")
    ]
    return np.array([[float(a), float(b)] for a, b in rows])


FORMATS = ["{!r}", "{:.25e}", "{:.40f}", "{:.17g}", "{:.3e}"]


@given(
    values=st.lists(
        # below 1e300, so that a rounded-up short form cannot overflow
        st.tuples(st.floats(-1e300, 1e300), st.sampled_from(FORMATS)),
        min_size=2,
    )
)
@example(values=[(v, fmt) for v in (0.0, -0.0, 5e-324, 1e16, 1e-5) for fmt in FORMATS])
def test_csv_matches_per_line_float_oracle(values):
    # t is the row index, so every row sits on the grid t0=0, h=1
    text = "t,value\n" + "".join(
        f"{k},{fmt.format(v)}\n" for k, (v, fmt) in enumerate(values)
    )
    f = _load(text)
    expected = _oracle(text)
    assert f.values.tobytes() == expected[:, 1].tobytes()
    assert f.grid.tobytes() == expected[:, 0].tobytes()
