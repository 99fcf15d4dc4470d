"""Mean oscillation, BMO lower bounds, and the jump criterion.

The mean oscillation of ``f`` over an interval ``I`` is the average of
``|f - f_I|`` where ``f_I`` is the average of ``f`` on ``I``.  The BMO
sweep maximizes it over a dyadic interval family and is, by construction,
a lower bound for the BMO seminorm.

The jump criterion: a nondecreasing ``g`` with ``g(a+1) - g(a) >= M`` has
mean oscillation at least ``M/6`` over ``[a-1, a+2]``; splitting on
whether the interval mean sits below or above ``g(a + M/2)``, one of the
outer unit subintervals deviates from the mean by at least ``M/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numutil import BLOCK_ELEMS
from .errors import (
    GridRangeError,
    InsufficientJumpError,
    NotMonotoneError,
    PreconditionError,
)
from .sampled import SampledFunction

__all__ = [
    "OscillationReport",
    "Fast2Check",
    "mean_oscillation",
    "bmo_estimate",
    "check_fast2",
]

MONOTONE_SLACK = 1e-12  # per-step tolerance for "nondecreasing"


@dataclass(frozen=True)
class OscillationReport:
    """Interval, its mean value, and the mean oscillation over it."""

    a: float
    b: float
    mean: float
    oscillation: float


@dataclass(frozen=True)
class Fast2Check:
    """Outcome of the jump criterion at one window."""

    passed: bool
    oscillation: float
    threshold: float
    interval: tuple[float, float]
    jump: float


def _oscillation_rows(f: SampledFunction, a: np.ndarray, b: np.ndarray):
    """Means and exact mean oscillations of the interpolant on ``[a_j, b_j]``.

    Row ``j`` holds ``a_j``, the nodes from ``floor((a_j - t0)/h)`` on, and
    ``b_j``; nodes clipped to ``[a_j, b_j]`` make zero-width cells, which add
    exactly 0.  A cell of width ``w`` whose end deviations ``p, q`` from the
    mean share a sign adds ``w(|p|+|q|)/2``, else ``w(p^2+q^2)/(2(|p|+|q|))``.
    """
    grid = f.grid
    width = int(math.ceil(float(np.max(b - a)) / f.h)) + 2
    rows = max(1, BLOCK_ELEMS // (width + 2))
    out = np.empty((2, a.size))
    for s in range(0, a.size, rows):
        lo, hi = a[s : s + rows, None], b[s : s + rows, None]
        first = np.floor((lo - f.t0) / f.h).astype(np.intp)
        nodes = f.t0 + f.h * np.minimum(first + np.arange(width), f.n - 1)
        xs = np.hstack((lo, np.clip(nodes, lo, hi), hi))
        ys = np.interp(xs, grid, f.values)
        w, twice = np.diff(xs, axis=1), 2 * (hi - lo)
        mean = (w * (ys[:, :-1] + ys[:, 1:])).sum(axis=1, keepdims=True) / twice
        p, q = ys[:, :-1] - mean, ys[:, 1:] - mean
        spread = np.abs(p) + np.abs(q)
        cell = np.divide(p * p + q * q, spread, out=spread.copy(), where=p * q < 0)
        out[:, s : s + rows] = mean[:, 0], (w * cell).sum(axis=1) / twice[:, 0]
    return out


def mean_oscillation(f: SampledFunction, a: float, b: float) -> OscillationReport:
    """Mean, and mean of ``|f - mean|``, of the interpolant on ``[a, b]``."""
    if not f.covers(a, b):
        raise GridRangeError(
            f"[{a}, {b}] outside the sampled range [{f.t0}, {f.t_end}]"
        )
    if not b - a >= 2 * f.h:
        raise PreconditionError(f"interval [{a}, {b}] shorter than two grid steps")
    mean, osc = _oscillation_rows(f, np.array([a]), np.array([b]))[:, 0].tolist()
    return OscillationReport(a, b, mean, osc)


def bmo_estimate(
    f: SampledFunction, min_len: float, max_len: float
) -> OscillationReport:
    """Max mean oscillation over a dyadic interval family (a lower bound).

    Lengths are ``L = min_len * 2^k`` up to ``max_len``; the intervals of
    length ``L`` are ``[t0 + j*L/4, min(t0 + j*L/4 + L, t_end)]``.  Returns
    the report of the first maximum, by length and then by anchor.
    """
    if not 2 * f.h <= min_len <= max_len:
        raise PreconditionError(
            f"need 2h <= min_len <= max_len, got h={f.h}, {min_len}, {max_len}"
        )
    span = f.t_end - f.t0
    if max_len > span:
        raise PreconditionError(f"max_len {max_len} exceeds the grid span {span}")
    best = []
    length = float(min_len)
    while length <= max_len * (1 + 1e-12):
        count = math.floor((span - length) / (length / 4.0) + 1e-9) + 1
        a = f.t0 + length / 4.0 * np.arange(count)
        b = np.minimum(a + length, f.t_end)
        means, oscs = _oscillation_rows(f, a, b)
        j = int(np.argmax(oscs))
        best.append(OscillationReport(*map(float, (a[j], b[j], means[j], oscs[j]))))
        length *= 2.0
    return max(best, key=lambda rep: rep.oscillation)


def check_fast2(g: SampledFunction, a: float, jump_size: float) -> Fast2Check:
    """Verify the ``M/6`` oscillation bound at the window ``[a-1, a+2]``.

    Preconditions are reported distinctly: the samples must be
    nondecreasing, ``[a-1, a+2]`` must lie in the grid, and the sampled
    jump ``g(a+1) - g(a)`` must reach ``jump_size``.  The PASS threshold is
    exactly ``M/6``: the oscillation is the exact integral of the
    interpolant, which is itself nondecreasing, so the bound holds for it.
    """
    if not jump_size > 0:
        raise PreconditionError(f"jump size must be positive, got {jump_size}")
    steps = np.diff(g.values)
    if steps.size and float(steps.min()) < -MONOTONE_SLACK:
        k = int(np.argmin(steps))
        raise NotMonotoneError(
            f"samples decrease by {-float(steps.min()):g} near t={g.t0 + k * g.h:g}"
        )
    osc = mean_oscillation(g, a - 1.0, a + 2.0).oscillation
    jump = float(g.value_at(a + 1.0) - g.value_at(a))
    if jump < jump_size:
        raise InsufficientJumpError(
            f"insufficient jump: g(a+1)-g(a) = {jump:g} < {jump_size:g}"
        )
    threshold = jump_size / 6.0
    return Fast2Check(osc >= threshold, osc, threshold, (a - 1.0, a + 2.0), jump)
