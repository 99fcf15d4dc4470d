"""Continuous argument branches for strip zeros and their sums.

For a zero ``z = x + iy`` (``y > 0``) the raw angle is

    psi_z(t) = arctan( y*t / (|z|^2 - x*t) ),

taken in the principal branch.  The continuous branch phi_z adds +pi above
the swap point ``t = |z|^2/x`` when ``x > 0`` and subtracts pi below it
when ``x < 0``; exactly at the swap point the value is +-pi/2.  For
``x = 0`` psi is already continuous and odd, so phi = psi.

phi_z is strictly increasing with derivative

    phi_z'(t) = y*(x^2+y^2) / ((x^2+y^2 - x*t)^2 + y^2*t^2),

which, with ``t = x + d``, equals ``y/(y^2 + d^2)``: at unit distance this
is at least ``min(alpha/(alpha^2+1), beta/(beta^2+1))`` on a strip
``alpha <= y <= beta``, the per-zero growth constant used by the
growth-window search.

The denominator ``|z|^2 - x*t`` is evaluated as ``y^2 + x*(x - t)`` so the
branch test stays exact for zeros with huge ``|x|`` sampled near ``t = x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._numutil import BLOCK_ELEMS
from .errors import PreconditionError, TruncationError, VerificationError
from .zeros import ZeroSet, blaschke_tail, window_count

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


class ArgBranchValue(NamedTuple):
    """Branch value and where ``t`` sits relative to the swap point."""

    value: float
    region: str  # "below", "at" or "above" t = |z|^2/x


@dataclass(frozen=True)
class PhiSumResult:
    """Truncated branch sum with a certified bound for the omitted terms.

    ``value`` and ``tail_bound`` are floats for a scalar ``t`` and arrays
    shaped like ``t`` otherwise.
    """

    value: float | np.ndarray
    truncation_radius: float
    tail_bound: float | np.ndarray


def _check_upper(z: complex) -> tuple[float, float]:
    x, y = z.real, z.imag
    if not y > 0:
        raise PreconditionError(f"zero must have positive imaginary part, got {z}")
    return x, y


def growth_constant(alpha: float, beta: float) -> float:
    """``min(alpha/(alpha^2+1), beta/(beta^2+1))`` for ``0 < alpha <= beta``."""
    if not alpha > 0:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    if beta < alpha:
        raise PreconditionError(f"need alpha <= beta, got {alpha} > {beta}")
    return min(alpha / (alpha * alpha + 1.0), beta / (beta * beta + 1.0))


def phi(z: complex, t: float) -> ArgBranchValue:
    """Continuous branch value at ``t`` with its branch region."""
    x, y = _check_upper(z)
    d = y * y + x * (x - t)
    if x == 0.0:
        return ArgBranchValue(math.atan(t / y), "below")
    if d == 0.0:
        return ArgBranchValue(math.copysign(math.pi / 2, x), "at")
    raw = math.atan(y * t / d)
    if x > 0.0:
        if d < 0.0:
            return ArgBranchValue(raw + math.pi, "above")
        return ArgBranchValue(raw, "below")
    if d < 0.0:
        return ArgBranchValue(raw - math.pi, "below")
    return ArgBranchValue(raw, "above")


def phi_derivative(z: complex, t: float) -> float:
    """Strictly positive derivative of the continuous branch."""
    x, y = _check_upper(z)
    d = y * y + x * (x - t)
    return y * (x * x + y * y) / (d * d + y * y * t * t)


def _branch_sum(res, ims, weights, ts, radii) -> np.ndarray:
    """``sum_z weights_z * phi_z(t)`` at every node ``t`` of ``ts``.

    The zeros are ``res + i*ims`` with moduli ``radii``.  Work proceeds in
    blocks of up to ``NODE_BLOCK`` nodes by as many zeros as keep a block
    within ``BLOCK_ELEMS`` elements, and blocks of zeros are added in
    order.  Overflow and 0/0 are left to :func:`phi_sum`'s finiteness
    check.  A branch correction at a zero with ``|z| > 2|t|`` raises
    :class:`VerificationError`: the tail bound of :func:`phi_sum` presumes
    there is none.
    """
    acc = np.zeros(ts.size)
    rows = max(1, BLOCK_ELEMS // min(ts.size, NODE_BLOCK))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(0, ts.size, NODE_BLOCK):
            t = ts[None, j : j + NODE_BLOCK]
            for i in range(0, res.size, rows):
                x = res[i : i + rows, None]
                y = ims[i : i + rows, None]
                # d = y*y + x*(x - t) and vals = arctan(y*t/d), built in place
                # so that a block holds two large temporaries; the rounding is
                # the same
                d = x - t
                d *= x
                d += y * y
                vals = y * t
                vals /= d  # d == 0 gives +-pi/2 via arctan(+-inf)
                np.arctan(vals, out=vals)
                nonpos = d <= 0.0
                if nonpos.any():
                    # indexed: dense block-sized masks raised the scan's peak memory
                    ii, jj = np.nonzero(nonpos)
                    if (radii[i + ii] > 2.0 * np.abs(t[0, jj])).any():
                        raise VerificationError(
                            "branch correction triggered beyond 2|t|; tail bound invalid"
                        )
                    vals[ii, jj] += np.where(
                        d[ii, jj] < 0.0, np.where(x[ii, 0] > 0.0, math.pi, -math.pi), 0.0
                    )
                acc[j : j + NODE_BLOCK] += weights[i : i + rows] @ vals
    return acc


def phi_sum(zs: ZeroSet, t, truncation_radius: float | None) -> PhiSumResult:
    """Multiplicity-weighted branch sum over ``|z| <= truncation_radius``.

    ``t`` is a scalar or an array of nodes; a radius of ``None`` keeps every
    zero, taking ``max(2*max|t| + 1, max|z| + 1)``.  For an omitted zero,
    ``|z| > 2|t|`` forces ``|z|^2 - x*t > |z|^2/2 > 0``, so no branch
    correction applies there and ``|phi_z(t)| <= 2*|t|*y/|z|^2``; the
    omitted terms are therefore bounded by ``2*|t|`` times the truncation
    remainder of the summability series.  A sum that is not finite (``|z|``
    near the float range overflows) raises :class:`PreconditionError`.
    """
    ts = np.asarray(t, dtype=float)
    required = 2.0 * float(np.abs(ts).max())
    radii = np.hypot(zs.res, zs.ims)
    if truncation_radius is None:
        truncation_radius = max(required + 1.0, float(radii.max()) + 1.0)
    elif not truncation_radius > required:
        raise TruncationError(
            f"truncation radius {truncation_radius} too small: "
            f"needs > 2|t| = {required}"
        )
    keep = radii <= truncation_radius
    value = _branch_sum(
        zs.res[keep], zs.ims[keep], zs.mults[keep], ts.ravel(), radii[keep]
    )
    if not np.isfinite(value).all():
        raise PreconditionError("branch sum is not finite; zero coordinates overflow")
    tail = TAIL_CONSTANT * np.abs(ts) * blaschke_tail(zs, truncation_radius)
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

