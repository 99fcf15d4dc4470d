"""Regularized principal-value Hilbert transform.

Both entry points compute

    H f(x) = (1/pi) p.v. integral f(t) * { 1/(x-t) + t/(t^2+1) } dt,

the version of the transform that stays finite for bounded ``f``.  The
regularization term only shifts results by per-function constants, which
all oscillation quantities ignore, but the kernel is used exactly as
written to keep constants out of the way: ``H(1) = 0`` identically, since
the kernel has antiderivative ``log(sqrt(t^2+1)/|x-t|)`` vanishing at both
ends.

Both compute one model exactly: the transform of the piecewise-linear
interpolant of ``f`` on a mesh, continued by its end values as constants.
Per linear cell the regularization term integrates in closed form (one
helper serves both), and the constant tails have closed forms.  Only the
mesh differs.

``hilbert_transform`` samples a black-box evaluator once, on a mesh graded
geometrically around ``x`` (``NODES_PER_DECADE`` per decade of distance,
from ``EXCISION`` out to the window edges), with nodes either side of each
known breakpoint.  A cell [a, b] with ``f - f(x)`` linear adds
``p(x) log1p((b-a)/(x-b))`` minus its change of ``f`` to the singular
part, where p is the cell's line; the two cells meeting at ``x`` have
``p(x) = 0``, which is the principal value.

``hilbert_transform_sampled`` takes the uniform grid of a
:class:`SampledFunction`: the singular part of the transform of a unit hat
at integer node offset ``m`` is the second difference ``(m+1)log|m+1| +
(m-1)log|m-1| - 2m log|m|``, so the grid part is one discrete convolution,
one cyclic real-FFT product of 5-smooth length m >= 2n-1, which cannot
alias into the n outputs kept.  It costs O(n log n) for the whole grid.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Sequence

import numpy as np

from ._numutil import evaluate_on_grid
from .errors import PreconditionError
from .sampled import SampledFunction

__all__ = ["hilbert_transform", "hilbert_transform_sampled"]

DEFAULT_WINDOW = 1e4
# mesh of hilbert_transform: nodes at x and x +- EXCISION/2, then a geometric
# mesh from EXCISION out to the window edges
EXCISION = 1e-4
NODES_PER_DECADE = 4096


def _regularization(ts: np.ndarray, v: np.ndarray, slope: np.ndarray) -> float:
    """``integral of P(t) * t/(1+t^2)`` for the linear interpolant P of ``v`` on ``ts``.

    Exact per cell with antiderivatives (1/2)log(1+t^2) and t - arctan t;
    ``slope`` is the per-cell slope of P.
    """
    intercept = v[:-1] - slope * ts[:-1]
    g1 = 0.5 * np.log1p(ts * ts)
    g2 = ts - np.arctan(ts)
    return float(np.sum(intercept * np.diff(g1) + slope * np.diff(g2)))


def _graded(dist: float) -> np.ndarray:
    """Distances from ``EXCISION`` up to ``dist`` (excluded), ``NODES_PER_DECADE`` a decade."""
    n = math.ceil(NODES_PER_DECADE * math.log10(dist / EXCISION)) + 1
    return np.geomspace(EXCISION, dist, n)[:-1]


def _cell_sum(ts: np.ndarray, g: np.ndarray, x: float) -> float:
    """pi times the transform at ``x`` of the interpolant of ``g`` on ``ts``, 0 outside.

    ``x`` is a node and ``g`` vanishes there; per cell as in the module notes.
    """
    dt = np.diff(ts)
    slope = np.diff(g) / dt
    with np.errstate(divide="ignore"):
        logs = np.log1p(dt / (x - ts[1:]))
    c = int(np.searchsorted(ts, x))
    logs[c - 1 : c + 1] = 0.0
    at_x = g[:-1] + slope * (x - ts[:-1])
    # the s*(b-a) terms telescope to g at the ends
    return float(at_x @ logs) - (g[-1] - g[0]) + _regularization(ts, g, slope)


def hilbert_transform(
    f: Callable,
    x: float,
    *,
    window: float = DEFAULT_WINDOW,
    breakpoints: Sequence[float] = (),
) -> float:
    """Transform of a bounded evaluator at one point.

    ``f`` is called once, on the array of mesh nodes in
    ``[-window, window]``, and the transform of its linear interpolant,
    constant beyond the window, is returned exactly.  ``breakpoints`` lists
    known discontinuities or kinks of ``f``; each gets nodes just either
    side, so the interpolant follows a jump there (e.g. the edges of an
    indicator function).  A jump at ``x`` itself is reported by a
    ``UserWarning``: the result then depends on ``EXCISION``.  ``x`` must
    have a float spacing of at most ``EXCISION/2``, i.e. ``|x| < 2^38``
    (about 2.7e11), so that ``x``, ``x +- EXCISION/2`` and ``x +- EXCISION``
    are distinct nodes; a larger ``|x|`` is a ``PreconditionError``.
    """
    if not (math.isfinite(x + window) and math.isfinite(window - x)):
        raise PreconditionError(f"x={x} and window {window} must give a finite mesh")
    if not math.ulp(x) <= EXCISION / 2.0:
        raise PreconditionError(
            f"x={x} too large for the excision window: float spacing {math.ulp(x):g} "
            f"there exceeds EXCISION/2 = {EXCISION / 2.0:g}"
        )
    if not window >= max(10.0 * abs(x), 100.0):
        raise PreconditionError(
            f"window {window} too small at x={x}: needs >= {max(10.0 * abs(x), 100.0)}"
        )
    b = np.asarray(breakpoints, dtype=float)
    nudge = 1e-9 * np.maximum(np.abs(b), 1.0)
    knots = np.concatenate((b - nudge, b + nudge))
    knots = knots[(np.abs(knots - x) > EXCISION) & (np.abs(knots) < window)]
    ts = np.unique(np.concatenate((
        [-window, x - EXCISION / 2.0, x, x + EXCISION / 2.0, window],
        x - _graded(x + window), x + _graded(window - x), knots,
    )))

    vals = evaluate_on_grid(f, ts)
    if not np.isfinite(vals).all():
        raise PreconditionError(f"nonfinite sample at t={ts[~np.isfinite(vals)][0]!r}")
    # H(f) = H(f - f(x)): constants transform to zero exactly
    c = int(np.searchsorted(ts, x))
    g = vals - vals[c]

    # halving the cells next to x changes only the five nodes around it
    near = slice(c - 2, c + 3)
    moved = _cell_sum(ts[near], g[near], x) - _cell_sum(ts[near][::2], g[near][::2], x)
    if abs(moved) > 1e-6 * math.pi:
        warnings.warn(
            f"excision radius {EXCISION:g} not converged at x={x:g}: halving it "
            f"moves the transform by {abs(moved) / math.pi:.2e}",
            stacklevel=2,
        )

    # constant-extension tails beyond [-window, window]
    root = math.hypot(window, 1.0)
    tails = g[0] * math.log(root / (x + window)) + g[-1] * math.log((window - x) / root)
    return (_cell_sum(ts, g, x) + tails) / math.pi


# ----------------------------------------------------------------------
# sampled grids


def _hat_kernel(n: int) -> np.ndarray:
    """Singular-part transform of the unit hat at offsets -(n-1)..(n-1).

    c_m = p.v. integral (1-|u|)/(m-u) du over [-1, 1]
        = (m+1)log|m+1| + (m-1)log|m-1| - 2m log|m|,

    computed through log1p so the three-way cancellation (c_m ~ 1/m) keeps
    full relative accuracy at large offsets; oddness is exact by mirroring.
    """
    pos = np.empty(n - 1)
    pos[0] = 2.0 * math.log(2.0)
    if n > 2:
        m = np.arange(2, n, dtype=float)
        pos[1:] = m * np.log1p(-1.0 / (m * m)) + np.log1p(2.0 / (m - 1.0))
    return np.concatenate((-pos[::-1], (0.0,), pos))


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is at least ``n >= 1``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def hilbert_transform_sampled(f: SampledFunction) -> SampledFunction:
    """Exact transform of the interpolant-plus-constant-tails model of ``f``.

    The grid must cover at least ``[-100, 100]`` so the model is a sensible
    stand-in for a function on the line.  Constants transform to zero
    identically, and the transform is linear in the samples.
    """
    if not f.covers(-100.0, 100.0):
        raise PreconditionError(
            f"grid [{f.t0}, {f.t_end}] must cover at least [-100, 100]"
        )
    v = f.values
    n = f.n
    h = f.h
    ts = f.grid
    a, b = f.t0, f.t_end

    m = _fast_len(2 * n - 1)
    spectrum = np.fft.rfft(v, m) * np.fft.rfft(_hat_kernel(n), m)
    singular = np.fft.irfft(spectrum, m)[n - 1 : 2 * n - 1]

    # regularization term: x-independent
    reg = _regularization(ts, v, np.diff(v) / h)

    # constant tails merged with the removal of the convolution's dangling
    # half-hats; i (j) is the node distance from the left (right) edge
    i = np.arange(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ilog = i * np.log1p(1.0 / i)
    ilog[0] = 0.0
    left = math.log(math.hypot(a, 1.0)) + 1.0 - np.log((i + 1.0) * h) - ilog
    right = -math.log(math.hypot(b, 1.0)) - 1.0 + np.log((i[::-1] + 1.0) * h) + ilog[::-1]

    out = (singular + reg + v[0] * left + v[-1] * right) / math.pi
    return SampledFunction(f.t0, f.h, out)
