"""The one CSV reader and the one CSV writer behind every import and export."""

import contextlib
import io
import subprocess
from itertools import chain

import numpy as np
import pytest

from stripzeros import InputFormatError, _numutil, load_zero_set
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


def _reference(target, header: str, *columns, footer: str = "") -> None:
    """write_csv as one in-process block loop, the oracle of the helper's bytes."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    with contextlib.ExitStack() as stack:
        out = target
        if not hasattr(target, "write"):
            out = stack.enter_context(open(target, "w"))
        out.write(header)
        for s in range(0, len(columns[0]), CSV_BLOCK):
            block = [np.asarray(c[s : s + CSV_BLOCK]).tolist() for c in columns]
            out.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
        out.write(footer)


def _target_bytes(kind: str, path, write) -> bytes:
    """The bytes ``write(target)`` leaves in a target of ``kind``."""
    if kind == "stream":
        buf = io.StringIO()
        write(buf)
        return buf.getvalue().encode()
    if kind == "path":
        write(path)
    else:
        with open(path, "w", newline="\r\n") as f:
            write(f)
    return path.read_bytes()


def _table(n: int):
    """A float64 and an int64 column of ``n`` rows, the extreme values among them."""
    rng = np.random.default_rng(n)
    xs = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    ks = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)
    # at the front and at the back, so that both shares hold each of them
    for i, x in enumerate([-0.0, 5e-324, 1e-5, 1e16, 1e300, -1e300]):
        xs[i % n] = xs[-1 - i % n] = x
    ks[[0, -1]] = [-(2**63), 2**63 - 1]
    return xs, ks


@pytest.fixture
def helpers(monkeypatch):
    """The processes write_csv starts, on an affinity mask of two CPUs."""
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(_numutil, "affinity_cpus", lambda: 2)
    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


# (rows, HELPER_ROWS): with 1 every table goes through the helper, which then
# formats all of it; with 3 blocks it formats the back two of a table of 3
@pytest.mark.parametrize("n,helper_rows", [
    (1, 1), (CSV_BLOCK - 1, 1), (CSV_BLOCK + 1, 1),
    (3 * CSV_BLOCK - 1, 3 * CSV_BLOCK), (3 * CSV_BLOCK, 3 * CSV_BLOCK),
    (3 * CSV_BLOCK + 1, 3 * CSV_BLOCK),
])
@pytest.mark.parametrize("kind", ["path", "stream", "crlf"])
def test_the_helper_writes_the_bytes_of_the_in_process_loop(
        tmp_path, monkeypatch, helpers, n, helper_rows, kind):
    monkeypatch.setattr(_numutil, "HELPER_ROWS", helper_rows)
    xs, ks = _table(n)
    args = ("t,k,x\n", xs, ks, -xs)
    want = _target_bytes(kind, tmp_path / "want.csv",
                         lambda out: _reference(out, *args, footer="# end\n"))
    got = _target_bytes(kind, tmp_path / "got.csv",
                        lambda out: write_csv(out, *args, footer="# end\n"))
    assert got == want
    assert len(helpers) == (n >= helper_rows)
    assert all(proc.returncode == 0 for proc in helpers)


@pytest.mark.parametrize("case", ["one cpu", "small table", "object column"])
def test_no_process_starts_where_the_helper_does_not_apply(monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("write_csv started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(_numutil, "affinity_cpus", lambda: 1 if case == "one cpu" else 2)
    monkeypatch.setattr(_numutil, "HELPER_ROWS", 5 if case == "small table" else 4)
    xs, ks = _table(4)
    columns = [xs, ks]
    if case == "object column":
        # ints past the int64 range, which the helper's int64 columns cannot hold
        columns.append(np.array([2**63, 3**41, -(2**70), 1], dtype=object))
    want = io.StringIO()
    _reference(want, "", *columns)
    assert _written("", *columns) == want.getvalue()


def test_a_helper_that_cannot_start_leaves_every_row_in_process(monkeypatch):
    # a missing interpreter is no input error: the rows are written all the same
    def missing(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", args[0][0])

    monkeypatch.setattr(subprocess, "Popen", missing)
    monkeypatch.setattr(_numutil, "affinity_cpus", lambda: 2)
    monkeypatch.setattr(_numutil, "HELPER_ROWS", 1)
    xs, ks = _table(CSV_BLOCK + 1)
    want = io.StringIO()
    _reference(want, "", xs, ks)
    assert _written("", xs, ks) == want.getvalue()


@pytest.mark.parametrize("script", [
    "import sys\nsys.exit(3)\n",  # exits before it reads its rows
    "import sys\nsys.stdin.buffer.read()\nprint('1.0,2')\nsys.exit(3)\n",  # a short share
], ids=["exits-at-once", "short-share"])
def test_a_failing_helper_raises(tmp_path, monkeypatch, helpers, script):
    path = tmp_path / "helper.py"
    path.write_text(script)
    monkeypatch.setattr(_numutil, "ROWFMT_SCRIPT", str(path))
    monkeypatch.setattr(_numutil, "HELPER_ROWS", CSV_BLOCK)
    xs, ks = _table(4 * CSV_BLOCK)
    with pytest.raises(RuntimeError, match="exited with status 3"):
        write_csv(tmp_path / "out.csv", "", xs, ks)
    assert [proc.returncode for proc in helpers] == [3]


class _WriteFailed(Exception):
    pass


@pytest.mark.parametrize("calls", [2, 3, 5], ids=["front", "first-copy", "later-copy"])
def test_a_failed_write_leaves_no_helper_running(monkeypatch, helpers, calls):
    # the header is write 1, the front block write 2, the helper's text the rest
    class Failing(io.StringIO):
        def write(self, text):
            nonlocal calls
            calls -= 1
            if calls == 0:
                raise _WriteFailed
            return super().write(text)

    monkeypatch.setattr(_numutil, "HELPER_ROWS", 2 * CSV_BLOCK)
    xs, ks = _table(2 * CSV_BLOCK + 1)
    with pytest.raises(_WriteFailed):
        write_csv(Failing(), "t,k\n", xs, ks)
    assert len(helpers) == 1
    assert helpers[0].returncode is not None


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
