"""The one CSV reader and the one CSV writer behind every import and export."""

import io

import numpy as np
import pytest

from stripzeros import InputFormatError
from stripzeros._numutil import CSV_BLOCK, read_rows, write_csv


def _written(header, *columns, footer=""):
    buf = io.StringIO()
    write_csv(buf, header, *columns, footer=footer)
    return buf.getvalue()


@pytest.mark.parametrize("n", [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1])
def test_rows_match_per_row_repr_across_block_edges(n):
    rng = np.random.default_rng(n)
    xs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    ks = rng.integers(-(2**62), 2**62, n)
    oracle = "t,k\n" + "".join(f"{x!r},{k!r}\n" for x, k in zip(xs.tolist(), ks.tolist()))
    assert _written("t,k\n", xs, ks, footer="# end\n") == oracle + "# end\n"


def test_path_and_stream_give_the_same_bytes(tmp_path):
    xs = np.linspace(-1.0, 1.0, 2 * CSV_BLOCK + 3)
    path = tmp_path / "out.csv"
    write_csv(path, "# head\n", xs, -xs, footer="# tail\n")
    assert path.read_bytes() == _written("# head\n", xs, -xs, footer="# tail\n").encode()
    write_csv(str(path), "", xs[:1])
    assert path.read_text() == "-1.0\n"


def test_numbers_are_plain_decimals():
    big = [9, 2**63, 3**40, 3**41]  # int64, uint64 and beyond
    text = _written(
        "",
        np.array([-(2**63), 2**63 - 1, 0, 7], dtype=np.int64),
        np.array([0.1, -0.0, 5e-324, 1e16]),
        np.array(big, dtype=object),
        [np.float64(0.5), np.float64(2.0), np.float64(-1.5), np.float64(1e-5)],
    )
    assert text == (
        f"{-(2**63)},0.1,9,0.5\n"
        f"{2**63 - 1},-0.0,{2**63},2.0\n"
        f"0,5e-324,{3**40},-1.5\n"
        f"7,1e+16,{3**41},1e-05\n"
    )
    assert "np." not in text


ROW = np.dtype([("x", float), ("k", np.int64)])


@pytest.mark.parametrize("bad", [0, 1, 499, 500, 998, 999])
def test_read_rows_reports_the_first_bad_line(bad):
    lines = [f"{i}.5,{i}" for i in range(1000)]
    for k in (bad, 999):  # a second bad row after the first must not be the one named
        lines[k] = f"{k},x"
    data = ["", *lines]  # the file's first line is no row
    message = f"^line {bad + 2}: expected an x,k row, got '{bad},x'$"
    with pytest.raises(InputFormatError, match=message):
        read_rows(data, ROW, "an x,k row", ["head", *lines])
    with pytest.raises(InputFormatError, match=f"^line {bad + 2}: "):
        read_rows(lines, ROW, "an x,k row", ["head", *lines], first=1)


def test_read_rows_of_no_rows_is_empty_without_a_warning():
    # loadtxt warns "input contained no data"; the reader leaves the verdict to its caller
    data = ["", "# comment", "#"]
    rows = read_rows(data, ROW, "an x,k row", data)
    assert rows.shape == (0,) and rows.dtype == ROW
    data = ["1.5,2 # c", "", "-0.0, 3"]
    assert read_rows(data, ROW, "an x,k row", data).tolist() == [(1.5, 2), (-0.0, 3)]
    # spaces before a comment leave a line of spaces, which is a bad row
    with pytest.raises(InputFormatError, match="^line 2: "):
        read_rows(["1.5,2", "  # c"], ROW, "an x,k row", ["1.5,2", "  # c"])
