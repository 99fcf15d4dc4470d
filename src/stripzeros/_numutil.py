"""Small numeric helpers used by several modules."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

# np.trapz was renamed in numpy 2.0
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def evaluate_on_grid(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array, falling back to a scalar loop.

    Evaluators built in this package are numpy-aware; user-supplied ones
    may only accept scalars.
    """
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in xs])


def read_text(source) -> str:
    """Contents of ``source``, a path or a readable text stream."""
    if hasattr(source, "read"):
        return source.read()
    return Path(source).read_text()


def write_text(target, text: str) -> None:
    """Write ``text`` to ``target``, a path or a writable text stream."""
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)
