"""Hilbert-transform models of a log-modulus and the divergence pipeline.

The transform of the log-modulus of a strip-zero model is, up to a
constant, a linear term ``(T/2) t`` minus the branch sum over the zeros.
The divergence scan samples that expression near the densest unit window
of each model in a family, takes the best mean oscillation over intervals
of one fixed length, and reports the resulting BMO lower bounds: for
families whose window counts grow, the bounds grow with them, while the
fixed interval length keeps the linear term's contribution constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .argbranch import phi_sum
from .errors import HelsonSzegoBoundError, PreconditionError
from .hilbert import hilbert_transform_sampled
from .oscillation import OscillationReport, bmo_estimate
from .sampled import SampledFunction
from .zeros import ZeroSet
from .zoo import ZooModel, hot_unit_window, relative_zero_set

__all__ = [
    "HilbertLogModel",
    "hlf_samples",
    "reconstruct_log_modulus",
    "compose_helson_szego",
    "DivergenceRow",
    "theorem_divergence_scan",
]

HALF_PI = math.pi / 2.0

# divergence-scan geometry, fixed across a family: intervals of one length
# on a grid of this step spanning this far either side of the hot window
SCAN_INTERVAL = 3.0
SCAN_HALFSPAN = 6.5
SCAN_STEP = 0.005

# two-tier samples (hlf_samples): zeros whose re lies beyond NEAR of the grid
# enter at every COARSE-th node only, carried onto the grid by a cubic with a
# certified interpolation error
NEAR = 16.0
COARSE = 64


@dataclass(frozen=True)
class HilbertLogModel:
    """Width of the indicator diagram and the zeros.

    The additive constant has no formula and every oscillation quantity
    kills it, so it is taken as zero.
    """

    indicator_width: float
    zeros: ZeroSet

    def __post_init__(self):
        if not self.indicator_width >= 0:
            raise PreconditionError(
                f"indicator width must be >= 0, got {self.indicator_width}"
            )


def _cubic_stencils(coarse: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Cubic Lagrange weights of nodes ``0..n-1`` on the coarse nodes ``coarse``.

    A node's stencil is the four coarse nodes around its cell, clamped to
    the first four or the last four at the ends.  Returns the stencils
    (indices into ``coarse``, shape ``(n, 4)``), the weights, and the
    largest ``|prod (j - c)|`` of a node ``j`` over its own stencil.  All of
    it is in node units: the products are exact integers, so each weight is
    one rounded quotient, 1 and 0 at a coarse node.
    """
    j = np.arange(n)
    cell = np.searchsorted(coarse, j, side="right") - 1
    stencils = np.clip(cell - 1, 0, coarse.size - 4)[:, None] + np.arange(4)
    c = coarse[stencils].T
    d = j - c
    weights = np.empty((n, 4))
    for a in range(4):
        p, q, r = (b for b in range(4) if b != a)
        weights[:, a] = d[p] * d[q] * d[r] / ((c[a] - c[p]) * (c[a] - c[q]) * (c[a] - c[r]))
    return stencils, weights, float(np.abs(d[0] * d[1] * d[2] * d[3]).max())


def hlf_samples(
    model: HilbertLogModel, template: SampledFunction
) -> tuple[SampledFunction, float]:
    """Two-tier samples of ``(T/2)*t - phi_sum`` on the template grid, and their error E.

    Zeros whose ``re`` lies within ``NEAR`` of the grid interval enter the
    branch sum at every node.  The sum over the other, far zeros is taken at
    every ``COARSE``-th node and the last, and carried onto the grid by the
    cubic through the four coarse nodes around each cell (see
    :func:`_cubic_stencils`).  That cubic is off by ``f''''(xi)*omega(t)/4!``,
    where ``omega(t)`` is the product of ``t - c`` over the node's stencil,
    and ``|phi_z''''(t)| <= 24*y/|t - x|^5``, since ``phi_z' = -Im 1/(s + iy)``
    with ``s = t - x`` and ``|sin 4a| <= 4|sin a|``.  So the samples lie
    within ``E = max|omega| * sum mult*y/d^5`` (and rounding) of the full
    sum's, where ``d`` is a far zero's distance to the grid interval.  With
    no far zero, or fewer than four coarse nodes, every zero enters at every
    node and E is ``0.0``.
    """
    ts = template.grid
    zs = model.zeros
    lo, hi = float(ts[0]), float(ts[-1])
    coarse = np.unique(np.append(np.arange(0, ts.size, COARSE), ts.size - 1))
    # zs.res is sorted, so the near zeros are one slice
    i = int(np.searchsorted(zs.res, lo - NEAR, side="left"))
    j = int(np.searchsorted(zs.res, hi + NEAR, side="right"))
    if coarse.size < 4:
        i, j = 0, len(zs)
    branches, err = np.zeros(ts.size), 0.0
    if i < j:
        near = zs if j - i == len(zs) else zs._select(slice(i, j))
        branches = phi_sum(near, ts, None).value
    if j - i < len(zs):
        far = zs._select(np.r_[0:i, j : len(zs)])
        res, ims, mults = far.res, far.ims, far.mults
        far_branches = phi_sum(far, ts[coarse], None).value
        stencils, weights, omega = _cubic_stencils(coarse, ts.size)
        branches = branches + (weights * far_branches[stencils]).sum(axis=1)
        d = np.where(res < lo, lo - res, res - hi)
        h = template.h
        # y/d^5 as a chain of divisions, since d^5 overflows from d ~ 1e61
        err = omega * h * h * h * h * float(np.sum(mults * ims / d / d / d / d / d))
    return template.like(0.5 * model.indicator_width * ts - branches), err


def reconstruct_log_modulus(
    model: HilbertLogModel, template: SampledFunction
) -> SampledFunction:
    """Minus the transform of the model samples: the log-modulus up to a constant.

    Every zero enters the branch sum at every node.  The transform inverts
    itself up to sign and additive constants, so the output tracks the
    log-modulus only modulo a vertical offset; compare after subtracting
    means.
    """
    ts = template.grid
    g = template.like(0.5 * model.indicator_width * ts - phi_sum(model.zeros, ts, None).value)
    out = hilbert_transform_sampled(g)
    return out.like(-out.values)


# ----------------------------------------------------------------------
# Helson-Szego composition


def compose_helson_szego(u: SampledFunction, v: SampledFunction) -> SampledFunction:
    """Log weight ``u + Hv`` on the grid of ``v``, gated by ``max|v| < pi/2``.

    The weight ``exp(u + Hv)`` is not formed, since a bounded ``u`` may
    still overflow it.
    """
    v_sup = float(np.abs(v.values).max())
    if v_sup >= HALF_PI:
        raise HelsonSzegoBoundError(f"Helson-Szego bound violated: max|v| = {v_sup!r} >= pi/2")
    return v.like(u.value_at(v.grid) + hilbert_transform_sampled(v).values)


# ----------------------------------------------------------------------
# divergence scan


@dataclass(frozen=True)
class DivergenceRow:
    """One family member: its label as given, BMO lower bound, and the witness."""

    label: int | float
    bound: float
    witness: tuple[float, float]
    window_count: int
    tail_bound: float


def theorem_divergence_scan(
    family: Sequence[tuple[int | float, ZooModel]]
) -> list[DivergenceRow]:
    """BMO lower bounds of the transform model near each member's hot window.

    The grid geometry (``SCAN_*``) is fixed across the family, and each
    member uses its own indicator width.  The grid is
    anchored at each member's densest unit window and the zeros enter as
    offsets from that anchor, since oscillation over an interval is
    unchanged by translating zeros and grid together and the
    anchor-dependent constants drop out.  Every zero is kept.  The samples
    of :func:`hlf_samples` lie within E of the model's, so the oscillation
    of their interpolant is within 2E of the model interpolant's: each row
    reports ``bound = oscillation - 2E`` and ``tail_bound = 2E``, which is
    0 when no zero lies beyond ``NEAR`` of the grid.
    """
    rows = []
    n = int(round(2.0 * SCAN_HALFSPAN / SCAN_STEP)) + 1
    for label, model in family:
        base, rel_anchor, count = hot_unit_window(model)
        zs_rel = relative_zero_set(model, base)
        t0 = rel_anchor + 0.5 - SCAN_HALFSPAN
        template = SampledFunction(t0, SCAN_STEP, np.zeros(n))
        # (T/2)*base is constant over the window and is dropped
        hlf_model = HilbertLogModel(model.indicator_width, zs_rel)
        g, err = hlf_samples(hlf_model, template)
        rep: OscillationReport = bmo_estimate(g, SCAN_INTERVAL, SCAN_INTERVAL)
        gap = 2.0 * err
        rows.append(
            DivergenceRow(label, rep.oscillation - gap, (base + rep.a, base + rep.b), count, gap)
        )
    return rows
