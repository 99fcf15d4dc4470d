"""Path-or-stream reading, the one CSV reader and writer, and grid evaluation."""

from __future__ import annotations

import contextlib
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import InputFormatError, PreconditionError

# rows formatted per block by write_csv; larger blocks raised peak memory
CSV_BLOCK = 1 << 12

# elements per float temporary of the block kernels (argbranch._branch_sum,
# oscillation._oscillation_rows): 256 KB, so every elementwise pass over a
# block stays in a core's L2 cache instead of streaming from L3
BLOCK_ELEMS = 1 << 15


def evaluate_on_grid(f: Callable, xs: np.ndarray) -> np.ndarray:
    """``f`` applied once to the array ``xs``, as floats of its shape.

    Evaluators must accept arrays; one that returns another shape (a
    scalar, say) raises ``PreconditionError``.
    """
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise PreconditionError(
            f"evaluator returned shape {vals.shape} on a grid of shape {xs.shape}"
        )
    return vals


def read_text(source) -> str:
    """Contents of ``source``, a path read as UTF-8 or a readable text stream.

    A file that is not UTF-8 raises ``InputFormatError`` naming the line
    of its first bad byte.
    """
    if hasattr(source, "read"):
        return source.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the whole file is decoded in one call, so exc.start is a file offset
        line = exc.object.count(b"\n", 0, exc.start) + 1
        bad = exc.object[exc.start : exc.end]
        raise InputFormatError(f"line {line}: not UTF-8 text, got bytes {bad!r}") from None


def _blank_spaces(line: str) -> str:
    """``line``, or ``""`` when it holds only spaces before an optional comment."""
    return line if line.split("#", 1)[0].strip() else ""


def read_rows(
    lines: list[str], dtype: np.dtype, row: str, first: int = 0,
    rewrite: Callable[[str], str] = _blank_spaces,
):
    """The comma-separated rows of ``lines[first:]`` as one structured array of ``dtype``.

    ``lines[i]`` is line ``i + 1`` of the file.  ``#`` starts a comment,
    and a line that is empty or holds only spaces before an optional
    comment is skipped.  One pass of numpy's C reader parses every number,
    rounding like ``float``.  Only if that pass fails is every line passed
    through ``rewrite`` and parsed again: the default blanks the lines of
    spaces numpy rejects, and a caller may also pad its short rows, so a
    file mixing short and full rows is parsed twice.  The first line bad
    after ``rewrite`` raises ``InputFormatError`` with its file line,
    quoted as the file has it.
    """
    # the rows are not copied out of lines unless the first parse fails
    try:
        return _rows(islice(lines, first, None), dtype)
    except ValueError:
        data = [rewrite(line) for line in islice(lines, first, None)]
    try:
        return _rows(data, dtype)
    except ValueError:
        lo, hi = 0, len(data)
    # bisection keeps a failing range: about two more parses of the block
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _rows(data[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    k = first + lo
    raise InputFormatError(f"line {k + 1}: expected {row}, got {lines[k]!r}")


def _rows(data: Iterable[str], dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # no rows at all is an empty array, for the caller to judge
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(data, dtype=dtype, delimiter=",", comments="#", ndmin=1)


def write_csv(target, header: str, *columns, footer: str = "") -> None:
    """Write ``header``, one row per index of the equal-length ``columns``, then ``footer``.

    ``target`` is a path (opened once) or a writable text stream.  Each
    value is written as the ``repr`` of its plain Python number, so floats
    are shortest round-trip decimals and integers exact.  Python ints that
    may pass the int64 range go in an object array: numpy reads a list
    mixing them with small ints as floats.  Rows are formatted and written
    ``CSV_BLOCK`` at a time, so the whole text is never held in memory.
    """
    row = ",".join(["%r"] * len(columns)) + "\n"
    with contextlib.ExitStack() as stack:
        out = target
        if not hasattr(target, "write"):
            out = stack.enter_context(open(target, "w"))
        out.write(header)
        for s in range(0, len(columns[0]), CSV_BLOCK):
            block = [np.asarray(c[s : s + CSV_BLOCK]).tolist() for c in columns]
            # one % per block, not per row: faster, and the same bytes
            out.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
        out.write(footer)
