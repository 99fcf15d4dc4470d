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
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

# nodes per block of the branch kernel; zeros per block follow from BLOCK_ELEMS
NODE_BLOCK = 4096

# fewest zero blocks a thread of the branch kernel takes, so a node block of
# fewer than 2*MIN_SHARE_BLOCKS zero blocks starts no thread: on a 2-CPU host
# a helper for a node block of 2 or 3 zero blocks costs more than it saves
MIN_SHARE_BLOCKS = 2

# floats of partial sums each helper thread of the branch kernel holds
HELD_ELEMS = 1 << 17

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
    truncation_radius: float
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


def _kernel_cpus() -> int:
    """CPUs of the process's affinity mask (the CPU count where it has none)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block(res, ims, weights, t, i, rows, scratch, out) -> None:
    """``out = weights[i:i+rows] @ atan2(y*t, y*y + x*(x - t))``.

    The zeros are ``res + i*ims`` from index ``i``; the two temporaries
    ``d`` and ``vals`` are built in place in the two rows of ``scratch``.
    """
    x = res[i : i + rows, None]
    y = ims[i : i + rows, None]
    shape = (x.shape[0], t.shape[1])
    size = shape[0] * shape[1]
    d = scratch[0, :size].reshape(shape)
    vals = scratch[1, :size].reshape(shape)
    np.subtract(x, t, out=d)
    d *= x
    d += y * y
    np.multiply(y, t, out=vals)
    np.arctan2(vals, d, out=vals)
    np.matmul(weights[i : i + rows], vals, out=out)


def _helper(res, ims, weights, t, starts, rows, scratch, held, errors, k) -> None:
    """Partials of the zero blocks at ``starts`` into the rows of ``held``.

    An exception is stored in ``errors[k]`` for the calling thread to raise.
    """
    try:
        for n, i in enumerate(starts):
            _block(res, ims, weights, t, i, rows, scratch, held[n, : t.shape[1]])
    except BaseException as exc:
        errors[k] = exc


def _branch_sum(res, ims, weights, ts) -> np.ndarray:
    """``sum_z weights_z * phi_z(t)`` at every node ``t`` of ``ts``.

    The zeros are ``res + i*ims``, and every input lies in the range of the
    module docstring, so no product overflows.  Work proceeds in blocks of
    up to ``NODE_BLOCK`` nodes by as many zeros as keep a block within
    ``BLOCK_ELEMS`` elements.  Each zero block's partial sum
    ``weights @ atan2(...)`` is added to the node block's sum in zero-block
    order, whichever thread computed it, so every sum is the same sequence
    of float operations for any number of CPUs.

    The zero blocks of a node block are cut into contiguous shares, one per
    CPU, each of at least ``MIN_SHARE_BLOCKS`` blocks; a single node takes
    one share.  The calling thread computes the first share and adds each
    partial as it goes; a helper thread per later share stores at most
    ``HELD_ELEMS`` floats of partials, which the caller adds in block order
    once the helper is joined.  Zero blocks beyond what the helpers can
    hold run in further rounds.  Every helper is joined before this
    returns, and a helper's exception is raised here.
    """
    acc = np.zeros(ts.size)
    cols = min(ts.size, NODE_BLOCK)
    rows = max(1, BLOCK_ELEMS // cols)
    starts = range(0, res.size, rows)
    # one node: a block's product is one long dot, which BLAS already threads
    cpus = _kernel_cpus() if cols > 1 else 1
    shares = max(1, min(cpus, len(starts) // MIN_SHARE_BLOCKS))
    held_rows = max(1, HELD_ELEMS // cols)
    # each round cuts its zero blocks into `shares` pieces of <= held_rows
    pieces = shares * max(1, -(-len(starts) // (shares * held_rows)))
    cuts = [len(starts) * m // pieces for m in range(pieces + 1)]
    scratch = np.empty((shares, 2, rows * cols))
    held = np.empty((shares - 1, held_rows, cols))
    part = np.empty(cols)
    for j in range(0, ts.size, NODE_BLOCK):
        t = ts[None, j : j + NODE_BLOCK]
        sums = acc[j : j + NODE_BLOCK]
        out = part[: t.shape[1]]
        for p in range(0, pieces, shares):
            own, *rest = (starts[a:b] for a, b in zip(cuts[p : p + shares], cuts[p + 1 :]))
            errors = [None] * len(rest)
            helpers = [
                threading.Thread(
                    target=_helper,
                    args=(res, ims, weights, t, piece, rows, scratch[k + 1], held[k], errors, k),
                )
                for k, piece in enumerate(rest)
            ]
            started = []
            try:
                for helper in helpers:
                    helper.start()
                    started.append(helper)
                for i in own:
                    _block(res, ims, weights, t, i, rows, scratch[0], out)
                    sums += out
            finally:
                for helper in started:
                    helper.join()
            for k, piece in enumerate(rest):
                if errors[k] is not None:
                    raise errors[k]
                for n in range(len(piece)):
                    sums += held[k, n, : t.shape[1]]
    return acc


def phi_sum(zs: ZeroSet, t, truncation_radius: float | None) -> PhiSumResult:
    """Multiplicity-weighted branch sum over ``|z| <= truncation_radius``.

    ``t`` is a scalar or an array of nodes; a radius of ``None`` keeps every
    zero, taking ``max(2*max|t| + 1, max|z| + 1)``.  For an omitted zero,
    ``|z| > 2|t|`` forces ``|z|^2 - x*t > |z|^2/2 > 0``, so
    ``|phi_z(t)| <= 2*|t|*y/|z|^2``; the omitted terms are therefore bounded
    by ``2*|t|`` times ``sum mult * y/|z|^2`` over the omitted zeros, which
    is summed here from the same radii ``|z|`` that pick the kept zeros.
    The kept zeros and the nodes must lie in the range of the module
    docstring, or :class:`PreconditionError` is raised before the sum.
    """
    ts = np.asarray(t, dtype=float)
    t_abs = float(np.abs(ts).max())
    radii = np.hypot(zs.res, zs.ims)
    if truncation_radius is None:
        truncation_radius = max(2.0 * t_abs + 1.0, float(radii.max()) + 1.0)
    elif not truncation_radius > 2.0 * t_abs:
        raise TruncationError(
            f"truncation radius {truncation_radius} too small: "
            f"needs > 2|t| = {2.0 * t_abs}"
        )
    keep = radii <= truncation_radius
    res, ims = zs.res[keep], zs.ims[keep]
    _check_range(
        float(np.abs(res).max(initial=0.0)),
        float(ims.min(initial=np.inf)),
        float(ims.max(initial=-np.inf)),
        t_abs,
    )
    value = _branch_sum(res, ims, zs.mults[keep], ts.ravel())
    omit = ~keep
    r = radii[omit]  # im/r/r: re**2 would overflow beyond |Re z| ~ 1.3e154
    remainder = float(np.sum(zs.ims[omit] / r / r * zs.mults[omit]))
    tail = TAIL_CONSTANT * np.abs(ts) * remainder
    if ts.ndim == 0:
        return PhiSumResult(float(value[0]), float(truncation_radius), float(tail))
    return PhiSumResult(value.reshape(ts.shape), float(truncation_radius), tail)


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

