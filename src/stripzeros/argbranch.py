"""Continuous argument branches for strip zeros and their sums.

For a zero ``z = x + iy`` (``y > 0``) the continuous branch phi_z is the
argument that vanishes at ``t = 0`` and has derivative

    phi_z'(t) = y / (y^2 + (t - x)^2) > 0,

so phi_z is strictly increasing, lies in ``(-pi, pi)`` and has the sign of
``t``; at unit distance from ``x`` the derivative is at least
``min(alpha/(alpha^2+1), beta/(beta^2+1))`` on a strip
``alpha <= y <= beta``, the per-zero growth constant used by the
growth-window search.  Its tangent is ``y*t / (|z|^2 - x*t)``, and tan is
one-to-one on ``(0, pi)`` and on ``(-pi, 0)``, so

    phi_z(t) = atan2(y*t, y^2 + x*(x - t))

exactly, with ``|z|^2 - x*t`` written as ``y^2 + x*(x - t)`` so that it
stays accurate for zeros with huge ``|x|`` sampled near ``t = x``.

Every input must lie in one range: ``|x|, y, |t| <= 2^511`` and
``y >= 2^-511``.  There ``y^2`` is a normal float and every product above
stays finite, so a value is never degraded by overflow or underflow; any
other input, NaN included, is a :class:`PreconditionError`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _numutil
from ._numutil import BLOCK_ELEMS
from .errors import PreconditionError, TruncationError, VerificationError
from .zeros import ZeroSet, window_count

__all__ = [
    "ArgBranchValue",
    "PhiSumResult",
    "growth_constant",
    "phi",
    "phi_derivative",
    "phi_sum",
    "find_growth_window",
]

# |phi_z(t)| <= TAIL_CONSTANT * |t| * y/|z|^2 once |z| > 2|t|; see phi_sum
TAIL_CONSTANT = 2.0

# fewest zeros per block of the branch kernel; nodes follow from BLOCK_ELEMS
ZERO_BLOCK = 1024

# fewest blocks' worth of zero-node pairs (BLOCK_ELEMS each) a thread of the
# branch kernel takes: on a 2-CPU host a helper for a grid of fewer than
# 2*MIN_SHARE_BLOCKS blocks' worth costs more than it saves, whatever its cut
MIN_SHARE_BLOCKS = 2

# the input range of phi, phi_derivative and phi_sum; see the module docstring
RANGE_MAX = 2.0**511
RANGE_MIN_IM = 2.0**-511


class ArgBranchValue(NamedTuple):
    """Continuous branch value."""

    value: float


@dataclass(frozen=True)
class PhiSumResult:
    """Truncated branch sum with a certified bound for the omitted terms.

    ``value`` and ``tail_bound`` are floats for a scalar ``t`` and arrays
    shaped like ``t`` otherwise.
    """

    value: float | np.ndarray
    tail_bound: float | np.ndarray


def _check_range(x_abs: float, y_lo: float, y_hi: float, t_abs: float) -> None:
    """Reject inputs outside ``|x|, y, |t| <= 2^511`` and ``y >= 2^-511``.

    The arguments are the largest ``|x|``, the smallest and largest ``y``
    and the largest ``|t|`` of the inputs; NaN fails every comparison.
    """
    if not (
        x_abs <= RANGE_MAX
        and RANGE_MIN_IM <= y_lo
        and y_hi <= RANGE_MAX
        and t_abs <= RANGE_MAX
    ):
        raise PreconditionError(
            "zeros or nodes outside the exact range |Re z|, Im z, |t| <= 2**511, "
            f"Im z >= 2**-511: max|Re z| = {x_abs}, Im z in [{y_lo}, {y_hi}], "
            f"max|t| = {t_abs}"
        )


def growth_constant(alpha: float, beta: float) -> float:
    """``min(alpha/(alpha^2+1), beta/(beta^2+1))`` for ``0 < alpha <= beta``."""
    if not alpha > 0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    if beta < alpha:
        raise PreconditionError(f"need alpha <= beta, got {alpha} > {beta}")
    return min(alpha / (alpha * alpha + 1.0), beta / (beta * beta + 1.0))


def phi(z: complex, t: float) -> ArgBranchValue:
    """Continuous branch value ``atan2(y*t, y^2 + x*(x - t))`` at ``t``."""
    x, y = z.real, z.imag
    _check_range(abs(x), y, y, abs(t))
    return ArgBranchValue(math.atan2(y * t, y * y + x * (x - t)))


def phi_derivative(z: complex, t: float) -> float:
    """Strictly positive derivative ``y/(y^2 + (t - x)^2)`` of the branch."""
    x, y = z.real, z.imag
    _check_range(abs(x), y, y, abs(t))
    # y/h/h with h = hypot(y, t - x): (t - x)^2 overflows at |t - x| = 2^512
    h = math.hypot(y, t - x)
    return y / h / h


def _node_blocks(res, ims, weights, ts, starts, rows, cols, scratch, acc, errors, k) -> None:
    """Add ``sum_z weights_z * phi_z(t)`` to ``acc`` for the node blocks at ``starts``.

    Each block of up to ``cols`` nodes from index ``j`` adds to
    ``acc[j:j+cols]`` the partial ``atan2(y*t, y*y + x*(x - t)) @ weights``
    of each block of ``rows`` zeros ``res + i*ims``, in zero-block order.
    The temporaries ``d`` and ``vals`` and the partial are built in place
    in ``scratch``.  An exception is stored in ``errors[k]``.
    """
    try:
        part = scratch[2 * rows * cols :]
        for j in starts:
            t = ts[j : j + cols, None]
            for i in range(0, res.size, rows):
                x = res[i : i + rows]
                size = t.size * x.size
                d = scratch[:size].reshape(t.size, x.size)
                vals = scratch[rows * cols : rows * cols + size].reshape(d.shape)
                np.subtract(x, t, out=d)
                d *= x
                y = ims[i : i + rows]
                d += y * y
                yt = np.multiply(y, t, out=vals)
                np.arctan2(yt, d, out=vals)
                acc[j : j + cols] += np.matmul(vals, weights[i : i + rows], out=part[: t.size])
    except BaseException as exc:
        errors[k] = exc


def _branch_sum(res, ims, weights, ts) -> np.ndarray:
    """``sum_z weights_z * phi_z(t)`` at every node ``t`` of ``ts``.

    The zeros are ``res + i*ims``, and every input lies in the range of
    the module docstring, so no product overflows.  The grid is cut into blocks
    of ``cols`` nodes by ``rows`` zeros, at least ``ZERO_BLOCK`` zeros (or
    all of them) and within ``BLOCK_ELEMS`` elements; the cut depends only
    on the numbers of zeros and nodes.  Each node's sum is its zero blocks'
    partials added in zero-block order, so it is the same sequence of float
    operations whichever thread computes it and for any number of CPUs.

    The node blocks go round-robin to the calling thread and one helper
    thread per further CPU, each writing only its own slices of the sum;
    there are no more threads than node blocks, nor than multiples of
    ``MIN_SHARE_BLOCKS * BLOCK_ELEMS`` zero-node pairs.  Every helper is
    joined before this returns, and its exception is raised here.
    """
    acc = np.zeros(ts.size)
    rows = max(1, min(res.size, max(ZERO_BLOCK, BLOCK_ELEMS // ts.size)))
    cols = max(1, BLOCK_ELEMS // rows)
    starts = range(0, ts.size, cols)
    share_pairs = MIN_SHARE_BLOCKS * BLOCK_ELEMS
    shares = max(1, min(_numutil.affinity_cpus(), len(starts), res.size * ts.size // share_pairs))
    # allocated here, not in the helpers, which would raise the peak RSS
    scratch = np.empty((shares, 2 * rows * cols + cols))
    errors = [None] * shares
    args = [
        (res, ims, weights, ts, starts[k::shares], rows, cols, scratch[k], acc, errors, k)
        for k in range(shares)
    ]
    helpers = [threading.Thread(target=_node_blocks, args=a) for a in args[1:]]
    started = []
    try:
        for helper in helpers:
            helper.start()
            started.append(helper)
        _node_blocks(*args[0])
    finally:
        for helper in started:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return acc


def phi_sum(zs: ZeroSet, t, truncation_radius: float | None) -> PhiSumResult:
    """Multiplicity-weighted branch sum over ``|z| <= truncation_radius``.

    ``t`` is a scalar or an array of nodes.  A radius of ``None`` keeps
    every zero: the sum runs over the set's own arrays and the tail bound
    is exactly ``0.0``.  A given radius must exceed ``2*max|t|``.  For an
    omitted zero, ``|z| > 2|t|`` forces ``|z|^2 - x*t > |z|^2/2 > 0``, so
    ``|phi_z(t)| <= 2*|t|*y/|z|^2``; the omitted terms are therefore bounded
    by ``2*|t|`` times ``sum mult * y/|z|^2`` over the omitted zeros, which
    is summed here from the same radii ``|z|`` that pick the kept zeros.
    The kept zeros and the nodes must lie in the range of the module
    docstring, or :class:`PreconditionError` is raised before the sum.
    """
    ts = np.asarray(t, dtype=float)
    t_abs = float(np.abs(ts).max())
    if truncation_radius is None:
        # zs.res is sorted, so its ends hold the largest |x|
        res, ims, mults, remainder = zs.res, zs.ims, zs.mults, 0.0
        x_abs, y_lo, y_hi = max(abs(float(res[0])), abs(float(res[-1]))), zs.alpha, zs.beta
    elif not truncation_radius > 2.0 * t_abs:
        raise TruncationError(
            f"truncation radius {truncation_radius} too small: "
            f"needs > 2|t| = {2.0 * t_abs}"
        )
    else:
        radii = np.hypot(zs.res, zs.ims)
        keep = radii <= truncation_radius
        res, ims, mults = zs.res[keep], zs.ims[keep], zs.mults[keep]
        x_abs = float(np.abs(res).max(initial=0.0))
        y_lo, y_hi = float(ims.min(initial=np.inf)), float(ims.max(initial=-np.inf))
        omit = ~keep
        r = radii[omit]  # im/r/r: re**2 would overflow beyond |Re z| ~ 1.3e154
        remainder = float(np.sum(zs.ims[omit] / r / r * zs.mults[omit]))
    _check_range(x_abs, y_lo, y_hi, t_abs)
    value = _branch_sum(res, ims, mults, ts.ravel())
    tail = TAIL_CONSTANT * np.abs(ts) * remainder
    if ts.ndim == 0:
        return PhiSumResult(float(value[0]), float(tail))
    return PhiSumResult(value.reshape(ts.shape), tail)


def find_growth_window(zs: ZeroSet, target: float) -> float | None:
    """First unit window whose zero count certifies a branch-sum jump.

    Scans anchors ``{re - 1, re - 1/2, re}`` in increasing order and returns
    the first ``a`` whose multiplicity-weighted count in ``[a, a+1)``
    reaches ``target / growth_constant(alpha, beta)``.  The certified jump
    is then rechecked numerically; a shortfall is an internal error, since
    every zero's branch value is nondecreasing in ``t``.
    Returns ``None`` when no window qualifies in the data.
    """
    if not target > 0:
        raise PreconditionError(f"target must be positive, got {target}")
    c = growth_constant(zs.alpha, zs.beta)
    needed = target / c
    anchors = np.unique(np.concatenate((zs.res - 1.0, zs.res - 0.5, zs.res)))
    counts = window_count(zs, anchors, 1.0)
    ok = np.nonzero(counts >= needed - 1e-12)[0]
    if ok.size == 0:
        return None
    a = float(anchors[ok[0]])
    ends = phi_sum(zs, np.array([a, a + 1.0]), None).value
    increment = ends[1] - ends[0]
    if increment < target - 1e-9:
        raise VerificationError(
            f"window [{a}, {a + 1}] holds {int(counts[ok[0]])} zeros "
            f"(enough for a jump of {target}) but the computed jump is "
            f"{increment}; truncation or branch bug"
        )
    return a

