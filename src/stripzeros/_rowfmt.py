"""The CSV row formatter of ``_numutil.write_csv`` and of its helper process.

This module imports only the standard library, so that it also runs as a
script under ``python -S -I``, which starts in a fraction of the time an
interpreter importing numpy takes::

    python -S -I _rowfmt.py TYPECODES ROWS

reads ``ROWS`` rows from standard input as raw native-order columns, one
after another, column ``k`` of ``array`` type ``TYPECODES[k]`` (``d`` for
float64, ``q`` for int64), and writes their CSV rows to standard output
as ASCII, in one write.  Wrong input bytes exit with status 1.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain

# rows formatted per block by write_csv; larger blocks raised peak memory
CSV_BLOCK = 1 << 12


def format_rows(columns, start: int, stop: int):
    """The text of rows ``start:stop``, one string per block of ``CSV_BLOCK`` rows.

    Each column has ``c[s:e].tolist()`` (a numpy array or an ``array``),
    and each value is written as the ``repr`` of its plain Python number,
    so floats are shortest round-trip decimals and integers exact.
    """
    row = ",".join(["%r"] * len(columns)) + "\n"
    for s in range(start, stop, CSV_BLOCK):
        e = min(s + CSV_BLOCK, stop)
        block = [c[s:e].tolist() for c in columns]
        # one % per block, not per row: faster, and the same bytes
        yield row * (e - s) % tuple(chain.from_iterable(zip(*block)))


def main(typecodes: str, rows: str) -> int:
    n = int(rows)
    columns = [array(code) for code in typecodes]
    sizes = [n * c.itemsize for c in columns]
    data = memoryview(sys.stdin.buffer.read())
    if len(data) != sum(sizes):
        sys.exit(f"_rowfmt: expected {sum(sizes)} bytes of {typecodes} columns, got {len(data)}")
    offset = 0
    for column, size in zip(columns, sizes):
        column.frombytes(data[offset : offset + size])
        offset += size
    sys.stdout.buffer.write("".join(format_rows(columns, 0, n)).encode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
