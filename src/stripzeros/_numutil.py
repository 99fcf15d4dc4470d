"""Path-or-stream reading, the one CSV reader and writer, and grid evaluation."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import _rowfmt
from ._rowfmt import CSV_BLOCK, format_rows
from .errors import InputFormatError, PreconditionError

# fewest rows of a table whose back half write_csv hands to a helper process:
# below 2^17 rows the helper's start-up costs about what it saves
HELPER_ROWS = 1 << 17

# the helper's script, run as python -S -I ROWFMT_SCRIPT TYPECODES ROWS
ROWFMT_SCRIPT = _rowfmt.__file__

# bytes of the helper's output copied to the target per read
COPY_CHUNK = 1 << 16

# array typecodes of the column dtypes the helper reads
_TYPECODES = {np.dtype(np.float64): "d", np.dtype(np.int64): "q"}

# elements per float temporary of the block kernels (argbranch._branch_sum,
# oscillation._oscillation_rows): 256 KB, so every elementwise pass over a
# block stays in a core's L2 cache instead of streaming from L3
BLOCK_ELEMS = 1 << 15


def affinity_cpus() -> int:
    """CPUs of the process's affinity mask (the CPU count where it has none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
        # the whole file is decoded in one call, so exc.start is a file offset;
        # lines end as in universal newlines mode: \n, \r\n or a lone \r
        head = exc.object[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
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

    A table of at least ``HELPER_ROWS`` rows of float64 and int64 columns,
    written by a process allowed more than one CPU, has its back half
    formatted by a helper process running ``_rowfmt.py`` while this one
    formats the front; the helper's text is then written through
    ``target`` too, so the bytes are the same.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0])
    codes = "".join(_TYPECODES.get(c.dtype, "") for c in cols if c.ndim == 1)
    split = n >= HELPER_ROWS and len(codes) == len(cols) and affinity_cpus() > 1
    with contextlib.ExitStack() as stack:
        out = target
        if not hasattr(target, "write"):
            out = stack.enter_context(open(target, "w"))
        out.write(header)
        if not (split and _write_split(out, cols, codes, n)):
            for text in format_rows(cols, 0, n):
                out.write(text)
        out.write(footer)


def _write_split(out, cols, codes: str, n: int) -> bool:
    """Write rows ``0:n`` of ``cols``, the back half formatted by a helper process.

    The front rows, rounded down to a multiple of ``CSV_BLOCK``, are
    formatted here while the helper formats the rest from their raw
    bytes; its output is copied to ``out`` after them.  Returns False,
    having written nothing, when the helper cannot be started.  The helper
    is waited for before this returns, and killed first if this raises;
    a helper that fails raises ``RuntimeError``.
    """
    front = n // 2 // CSV_BLOCK * CSV_BLOCK
    cmd = [sys.executable, "-S", "-I", ROWFMT_SCRIPT, codes, str(n - front)]
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    except OSError:
        return False
    try:
        try:
            for c in cols:
                proc.stdin.write(np.ascontiguousarray(c[front:]))
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the helper has exited; its status is raised below
        for text in format_rows(cols, 0, front):
            out.write(text)
        while chunk := proc.stdout.read(COPY_CHUNK):
            out.write(chunk.decode("ascii"))
    except BaseException:
        proc.kill()
        raise
    finally:
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        proc.stdout.close()
        proc.wait()
    if proc.returncode:
        raise RuntimeError(f"the CSV row helper exited with status {proc.returncode}")
    return True
