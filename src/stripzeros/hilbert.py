"""Regularized principal-value Hilbert transform.

Both entry points compute

    H f(x) = (1/pi) p.v. integral f(t) * { 1/(x-t) + t/(t^2+1) } dt,

the version of the transform that stays finite for bounded ``f``.  The
regularization term only shifts results by per-function constants, which
all oscillation quantities ignore, but the kernel is used exactly as
written to keep constants out of the way: ``H(1) = 0`` identically, since
the kernel has antiderivative ``log(sqrt(t^2+1)/|x-t|)`` vanishing at both
ends.

``hilbert_transform`` is an adaptive-free quadrature for black-box bounded
evaluators: the singularity is removed by odd-part cancellation
``f(x-s) - f(x+s)`` near ``x``, the far field uses the combined kernel
``(1+tx)/((x-t)(t^2+1))`` (which decays like 1/t^2) on panels with a fixed
node budget per decade of distance, and the leftover tails beyond the
window are integrated in closed form with ``f`` frozen at its window-edge
values.

``hilbert_transform_sampled`` treats a :class:`SampledFunction` as its
linear interpolant, constant beyond the grid, and evaluates the transform
of that model exactly: the singular part of the transform of a unit hat at
integer node offset ``m`` is the second difference ``(m+1)log|m+1| +
(m-1)log|m-1| - 2m log|m|``, so the grid part is one discrete convolution;
the regularization term is x-independent and integrates in closed form per
cell, and the constant tails again have closed forms.  The convolution is
one cyclic real-FFT product of 5-smooth length m >= 2n-1, which cannot
alias into the n outputs kept.  This agrees with applying the evaluator
version at every node but is exact for the model and costs O(n log n) for
the whole grid.
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
# quadrature geometry of hilbert_transform: EXCISION < LOCAL_RADIUS < 100,
# the narrowest window it accepts
EXCISION = 1e-4
LOCAL_RADIUS = 1.0
NODES_PER_DECADE = 4096


def _checked_eval(f: Callable, xs: np.ndarray) -> np.ndarray:
    vals = evaluate_on_grid(f, xs)
    if not np.isfinite(vals).all():
        bad = xs[~np.isfinite(vals)][0]
        raise PreconditionError(f"nonfinite sample at t={bad!r}")
    return vals


def _panel_integral(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n_nodes: int,
    splits: Sequence[float],
) -> float:
    """Composite trapezoid over [lo, hi], panels split at known kinks.

    Panel endpoints that are splits get nudged inward so one-sided limits
    of a discontinuous integrand are sampled, not the ambiguous point value.
    """
    cuts = [s for s in splits if lo < s < hi]
    bounds = [lo] + sorted(cuts) + [hi]
    total = 0.0
    width = hi - lo
    for p, q in zip(bounds, bounds[1:]):
        m = max(16, int(round(n_nodes * (q - p) / width))) + 1
        xs = np.linspace(p, q, m)
        nudge = (q - p) * 1e-9
        if p in cuts:
            xs[0] = p + nudge
        if q in cuts:
            xs[-1] = q - nudge
        total += float(np.trapezoid(g(xs), xs))
    return total


def _decade_integral(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    nodes_per_decade: int,
    splits: Sequence[float],
) -> float:
    """Sum of panel integrals over decades [lo*10^k, lo*10^(k+1)] up to hi."""
    total = 0.0
    edge = lo
    while edge < hi:
        nxt = min(edge * 10.0, hi)
        total += _panel_integral(g, edge, nxt, nodes_per_decade, splits)
        edge = nxt
    return total


def hilbert_transform(
    f: Callable,
    x: float,
    *,
    window: float = DEFAULT_WINDOW,
    breakpoints: Sequence[float] = (),
) -> float:
    """Transform of a bounded evaluator at one point.

    ``f`` must be defined on ``[-window, window]``;  beyond the window it
    is taken constant at ``f(+-window)`` and those tails are integrated in
    closed form.  ``breakpoints`` lists known discontinuities or kinks of
    ``f`` so quadrature panels can be aligned with them (e.g. the edges of
    an indicator function); without them accuracy degrades to first order
    at the jumps.
    """
    if not window >= max(10.0 * abs(x), 100.0):
        raise PreconditionError(
            f"window {window} too small at x={x}: needs >= {max(10.0 * abs(x), 100.0)}"
        )

    # H(f) = H(f - f(x)): constants transform to zero exactly, so work with
    # the shifted samples and the identity costs nothing but removes the
    # constant part from every quadrature error term.
    center = float(_checked_eval(f, np.array([float(x)]))[0])

    def g_odd(ss: np.ndarray) -> np.ndarray:
        return (_checked_eval(f, x - ss) - _checked_eval(f, x + ss)) / ss

    total = 0.0

    # principal value near x: odd part over (EXCISION, LOCAL_RADIUS]
    s_splits = sorted(
        {abs(b - x) for b in breakpoints if EXCISION < abs(b - x) < LOCAL_RADIUS}
    )
    total += _decade_integral(g_odd, EXCISION, LOCAL_RADIUS, NODES_PER_DECADE, s_splits)

    # excised strip [0, EXCISION]: midpoint rule, plus a refinement check
    strip = EXCISION * float(g_odd(np.array([EXCISION / 2.0]))[0])
    refined = (EXCISION / 2.0) * float(g_odd(np.array([EXCISION / 4.0]))[0])
    refined += _panel_integral(
        g_odd, EXCISION / 2.0, EXCISION, max(NODES_PER_DECADE // 16, 64), []
    )
    if abs(refined - strip) > 1e-6 * math.pi:
        warnings.warn(
            f"excision radius {EXCISION:g} not converged at x={x:g}: halving it "
            f"moves the transform by {abs(refined - strip) / math.pi:.2e}",
            stacklevel=2,
        )
    total += refined

    # smooth regularization part near x
    def g_reg(ts: np.ndarray) -> np.ndarray:
        return (_checked_eval(f, ts) - center) * ts / (1.0 + ts * ts)

    reg_splits = [b for b in breakpoints if abs(b - x) < LOCAL_RADIUS]
    total += _panel_integral(
        g_reg, x - LOCAL_RADIUS, x + LOCAL_RADIUS, 2 * NODES_PER_DECADE, reg_splits
    )

    # far field, combined kernel, per side
    def g_far(ts: np.ndarray) -> np.ndarray:
        return (
            (_checked_eval(f, ts) - center)
            * (1.0 + ts * x)
            / ((x - ts) * (1.0 + ts * ts))
        )

    for side, dist in ((1.0, window - x), (-1.0, window + x)):

        def g_side(ss: np.ndarray, side=side) -> np.ndarray:
            return g_far(x + side * ss)

        side_splits = sorted(
            {
                side * (b - x)
                for b in breakpoints
                if LOCAL_RADIUS < side * (b - x) < dist
            }
        )
        total += _decade_integral(
            g_side, LOCAL_RADIUS, dist, NODES_PER_DECADE, side_splits
        )

    # constant-extension tails beyond [-window, window]
    c_left = float(_checked_eval(f, np.array([-window]))[0]) - center
    c_right = float(_checked_eval(f, np.array([window]))[0]) - center
    root = math.hypot(window, 1.0)
    total += c_left * math.log(root / (x + window))
    total += c_right * math.log((window - x) / root)

    return total / math.pi


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

    # regularization term: x-independent, exact per linear cell with
    # antiderivatives (1/2)log(1+t^2) and t - arctan t
    slope = np.diff(v) / h
    intercept = v[:-1] - slope * ts[:-1]
    g1 = 0.5 * np.log1p(ts * ts)
    g2 = ts - np.arctan(ts)
    reg = float(np.sum(intercept * np.diff(g1) + slope * np.diff(g2)))

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
