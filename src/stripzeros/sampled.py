"""Uniformly sampled real functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numutil import evaluate_on_grid, read_text, write_text
from .errors import InputFormatError

__all__ = ["SampledFunction"]


@dataclass(eq=False)
class SampledFunction:
    """Samples ``values[k] = f(t0 + k*h)`` on a uniform grid.

    Values must be finite.  Between nodes the function is understood as its
    linear interpolant, and outside the grid as constant (the edge values),
    which is also what :func:`numpy.interp` does.
    """

    t0: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        if not self.h > 0:
            raise InputFormatError(f"grid step must be positive, got {self.h}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputFormatError("values must be a nonempty 1-d array")
        if not np.isfinite(vals).all():
            raise InputFormatError("sampled values must be finite")
        self.values = vals

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
        lines = [f"# t0={self.t0!r} h={self.h!r} n={self.n}", "t,value"]
        ts = self.grid
        lines.extend(f"{float(t)!r},{float(v)!r}" for t, v in zip(ts, self.values))
        write_text(target, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, source) -> "SampledFunction":
        """Read ``t,value`` rows from a path or a text stream.

        A ``# t0=.. h=.. n=..`` header pins the grid; without one the grid
        runs from the first to the last ``t``.  Every ``t`` must sit within
        ``1e-6*h`` of its grid node and the row count must match ``n``.
        """
        t0 = h = n = None
        ts: list[float] = []
        vals: list[float] = []
        for lineno, raw in enumerate(read_text(source).splitlines(), start=1):
            line = raw.strip()
            if not line or line.lower().startswith("t,"):
                continue
            try:
                if line.startswith("#"):
                    parts = dict(
                        kv.split("=", 1) for kv in line[1:].split() if "=" in kv
                    )
                    if "t0" in parts and "h" in parts:
                        t0, h = float(parts["t0"]), float(parts["h"])
                    if "n" in parts:
                        n = int(parts["n"])
                    continue
                a, b = line.split(",")
                ts.append(float(a))
                vals.append(float(b))
            except ValueError as exc:
                raise InputFormatError(f"line {lineno}: {exc}") from None
        if not vals:
            raise InputFormatError("no samples found")
        if t0 is None or h is None:
            t0 = ts[0]
            h = (ts[-1] - ts[0]) / max(len(ts) - 1, 1)
        f = cls(t0, h, np.array(vals))
        if n is not None and n != f.n:
            raise InputFormatError(f"header says n={n} but {f.n} rows were read")
        off = np.flatnonzero(~(np.abs(np.array(ts) - f.grid) <= 1e-6 * f.h))
        if off.size:
            k = int(off[0])
            raise InputFormatError(
                f"row {k + 1}: t={ts[k]!r} is off the grid node {f.t0!r} + {k}*{f.h!r}"
            )
        return f
