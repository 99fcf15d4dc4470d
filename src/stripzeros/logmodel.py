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


def hlf_samples(model: HilbertLogModel, template: SampledFunction) -> SampledFunction:
    """Samples of ``(T/2)*t - phi_sum`` over every zero on the template grid."""
    ts = template.grid
    return template.like(0.5 * model.indicator_width * ts - phi_sum(model.zeros, ts, None).value)


def reconstruct_log_modulus(
    model: HilbertLogModel, template: SampledFunction
) -> SampledFunction:
    """Minus the transform of the model samples: the log-modulus up to a constant.

    The transform inverts itself up to sign and additive constants, so the
    output tracks the log-modulus only modulo a vertical offset; compare
    after subtracting means.
    """
    out = hilbert_transform_sampled(hlf_samples(model, template))
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
    anchor-dependent constants drop out.  Every zero is kept, so the tail
    bound is zero.
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
        g = hlf_samples(hlf_model, template)
        rep: OscillationReport = bmo_estimate(g, SCAN_INTERVAL, SCAN_INTERVAL)
        rows.append(
            DivergenceRow(label, rep.oscillation, (base + rep.a, base + rep.b), count, 0.0)
        )
    return rows
