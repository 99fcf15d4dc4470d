"""Uniformly sampled real functions."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numutil import evaluate_on_grid, read_rows, read_text, write_csv
from .errors import InputFormatError

__all__ = ["SampledFunction"]


@dataclass(eq=False)
class SampledFunction:
    """Samples ``values[k] = f(t0 + k*h)`` on a uniform grid.

    Values must be finite, and so must ``t0``, ``h > 0`` and the last node
    ``t_end``, so that every node is a finite float.  Between nodes the
    function is understood as its linear interpolant, and outside the grid
    as constant (the edge values), which is also what :func:`numpy.interp`
    does.
    """

    t0: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise InputFormatError(f"grid origin must be finite, got {self.t0}")
        if not 0 < self.h < np.inf:
            raise InputFormatError(
                f"grid step must be positive and finite, got {self.h}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputFormatError("values must be a nonempty 1-d array")
        if not np.isfinite(vals).all():
            raise InputFormatError("sampled values must be finite")
        self.values = vals
        if not np.isfinite(self.t_end):
            raise InputFormatError(
                f"grid end {self.t0} + {self.n - 1}*{self.h} is not finite"
            )

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.h

    @property
    def grid(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n)

    def value_at(self, t) -> np.ndarray | float:
        """Linear interpolation inside the grid, edge values outside."""
        out = np.interp(t, self.grid, self.values)
        return float(out) if np.isscalar(t) else out

    def covers(self, a: float, b: float) -> bool:
        return self.t0 <= a and b <= self.t_end

    @classmethod
    def from_function(
        cls, f: Callable, t0: float, h: float, n: int
    ) -> "SampledFunction":
        ts = t0 + h * np.arange(n)
        return cls(t0, h, evaluate_on_grid(f, ts))

    def like(self, values: np.ndarray) -> "SampledFunction":
        """New function on the same grid."""
        return SampledFunction(self.t0, self.h, values)

    # ------------------------------------------------------------------
    # CSV round trip: header comment pins the grid, rows carry shortest
    # round-trip decimals, so reload is bit-exact.

    def to_csv(self, target) -> None:
        header = f"# t0={float(self.t0)!r} h={float(self.h)!r} n={self.n}\nt,value\n"
        write_csv(target, header, self.grid, self.values)

    @classmethod
    def from_csv(cls, source) -> "SampledFunction":
        """Read ``t,value`` rows from a path or a text stream.

        The leading block (blank lines, ``#`` comments and one ``t,value``
        column header) may hold a ``# t0=.. h=.. n=..`` header that pins the
        grid; without one the grid runs from the first to the last ``t``.
        Every ``t`` must sit within ``1e-6*h`` of its grid node and the row
        count must match ``n``.  Rows are parsed by the one CSV reader,
        :func:`read_rows`.
        """
        text = read_text(source)
        lines = text.split("\n")
        t0, h, n, first = _read_header(lines)
        if first == len(lines):
            raise InputFormatError("no samples found")
        offset = sum(len(line) + 1 for line in lines[:first])
        late = text.find("#", offset) >= 0 and _LATE_HEADER.search(text, offset)
        if late:
            lineno = first + 1 + text.count("\n", offset, late.start())
            raise InputFormatError(
                f"line {lineno}: grid header after the first data row"
            )
        rows = read_rows(lines, _ROW, "a t,value row of two numbers", first)
        ts = rows["t"]
        if t0 is None:
            t0 = ts[0]
            h = (ts[-1] - ts[0]) / max(ts.size - 1, 1)
        f = cls(float(t0), float(h), rows["value"].copy())
        if n is not None and n != f.n:
            raise InputFormatError(f"header says n={n} but {f.n} rows were read")
        off = np.flatnonzero(~(np.abs(ts - f.grid) <= 1e-6 * f.h))
        if off.size:
            k = int(off[0])
            raise InputFormatError(
                f"row {k + 1}: t={float(ts[k])!r} is off the grid node "
                f"{f.t0!r} + {k}*{f.h!r}"
            )
        return f


_ROW = np.dtype([("t", float), ("value", float)])
# a grid key (t0=, h= or n=) in a comment below the first data row
_LATE_HEADER = re.compile(r"#[^\n]*?(?<=[#\s])(?:t0|h|n)=")


def _read_header(lines: list[str]):
    """Scan the leading block of a sampled CSV in Python.

    Returns ``(t0, h, n, first)``: the grid header fields (None where
    absent) and the index of the first data row in ``lines``.  At most one
    comment may carry grid keys, and it must give both ``t0`` and ``h`` or
    neither.
    """
    t0 = h = n = header = None
    columns = False
    for i, raw in enumerate(lines):
        line = raw.strip()
        if line.startswith("#"):
            parts = dict(kv.split("=", 1) for kv in line[1:].split() if "=" in kv)
            if not parts.keys() & {"t0", "h", "n"}:
                continue
            if header is not None:
                raise InputFormatError(
                    f"line {i + 1}: second grid header (first on line {header})"
                )
            if ("t0" in parts) != ("h" in parts):
                raise InputFormatError(f"line {i + 1}: grid header needs both t0 and h")
            header = i + 1
            try:
                if "t0" in parts:
                    t0, h = float(parts["t0"]), float(parts["h"])
                if "n" in parts:
                    n = int(parts["n"])
            except ValueError as exc:
                raise InputFormatError(f"line {i + 1}: {exc}") from None
        elif line.lower().startswith("t,") and not columns:
            columns = True
        elif line:
            return t0, h, n, i
    return t0, h, n, len(lines)

