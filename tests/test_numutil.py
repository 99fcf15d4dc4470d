"""The one CSV reader and the one CSV writer behind every import and export."""

import io

import numpy as np
import pytest

from stripzeros import InputFormatError, load_zero_set
from stripzeros._numutil import CSV_BLOCK, read_rows, read_text, write_csv


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
    message = f"^line {bad + 2}: expected an x,k row, got '{bad},x'$"
    with pytest.raises(InputFormatError, match=message):
        # the file's first line is no row
        read_rows(["head", *lines], ROW, "an x,k row", first=1)


def test_read_rows_of_no_rows_is_empty_without_a_warning():
    # loadtxt warns "input contained no data"; the reader leaves the verdict to its caller
    data = ["", "# comment", "#"]
    rows = read_rows(data, ROW, "an x,k row")
    assert rows.shape == (0,) and rows.dtype == ROW
    data = ["1.5,2 # c", "", "-0.0, 3"]
    assert read_rows(data, ROW, "an x,k row").tolist() == [(1.5, 2), (-0.0, 3)]
    # a line of spaces, or of spaces before a comment, is skipped too
    data = ["1.5,2", "  # c", "   ", "-0.0, 3"]
    assert read_rows(data, ROW, "an x,k row").tolist() == [(1.5, 2), (-0.0, 3)]


def test_read_rows_rewrites_lines_only_after_a_failed_parse():
    calls = []

    def rewrite(line):
        calls.append(line)
        return line.strip()

    data = ["1.5,2 # c", "", "#", "-0.0, 3"]
    assert read_rows(data, ROW, "an x,k row", rewrite=rewrite).tolist() == [
        (1.5, 2), (-0.0, 3)]
    assert calls == []
    data = ["1.5,2 # c", "   ", "#", "-0.0, 3"]  # numpy rejects the line of spaces
    assert read_rows(data, ROW, "an x,k row", rewrite=rewrite).tolist() == [
        (1.5, 2), (-0.0, 3)]
    assert calls == data


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_bad_byte_and_a_bad_row_name_the_same_line(tmp_path, end):
    # a path is decoded with universal newlines, so a lone \r ends a line too
    path = tmp_path / "zeros.csv"
    path.write_bytes(end.join([b"1,1", b"2,1", b"3,\xff", b""]))
    with pytest.raises(InputFormatError, match=r"^line 3: not UTF-8 text, got bytes b'\\xff'$"):
        read_text(path)
    path.write_bytes(end.join([b"1,1", b"2,1", b"3,x", b""]))
    with pytest.raises(InputFormatError, match="^line 3: expected"):
        load_zero_set(path)
