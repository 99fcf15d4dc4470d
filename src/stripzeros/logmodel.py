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
    "HSWitness",
    "ComposedWeight",
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
    zeros: ZeroSet | None

    def __post_init__(self):
        if not self.indicator_width >= 0:
            raise PreconditionError(
                f"indicator width must be >= 0, got {self.indicator_width}"
            )


def hlf_samples(
    model: HilbertLogModel,
    template: SampledFunction,
    truncation_radius: float | None = None,
) -> tuple[SampledFunction, float]:
    """Samples of ``(T/2)*t - phi_sum`` on the template grid, and the worst tail bound."""
    ts = template.grid
    acc = 0.5 * model.indicator_width * ts
    tail = 0.0
    if model.zeros is not None:
        r = phi_sum(model.zeros, ts, truncation_radius)
        acc -= r.value
        tail = float(r.tail_bound.max())
    return template.like(acc), tail


def reconstruct_log_modulus(
    model: HilbertLogModel, template: SampledFunction
) -> SampledFunction:
    """Minus the transform of the model samples: the log-modulus up to a constant.

    The transform inverts itself up to sign and additive constants, so the
    output tracks the log-modulus only modulo a vertical offset; compare
    after subtracting means.
    """
    samples, _ = hlf_samples(model, template)
    out = hilbert_transform_sampled(samples)
    return out.like(-out.values)


# ----------------------------------------------------------------------
# Helson-Szego composition


@dataclass(frozen=True)
class HSWitness:
    """Bounded pair ``(u, v)``; admissible only while ``max|v| < pi/2``."""

    u: SampledFunction
    v: SampledFunction

    @property
    def v_sup(self) -> float:
        return float(np.abs(self.v.values).max())


@dataclass(frozen=True)
class ComposedWeight:
    weight: SampledFunction
    log_weight: SampledFunction


def compose_helson_szego(witness: HSWitness) -> ComposedWeight:
    """Samples of ``exp(u + Hv)`` on the grid of ``v``, gated by ``max|v| < pi/2``."""
    if witness.v_sup >= HALF_PI:
        raise HelsonSzegoBoundError(
            f"Helson-Szego bound violated: max|v| = {witness.v_sup!r} >= pi/2"
        )
    v = witness.v
    log_weight = v.like(witness.u.value_at(v.grid) + hilbert_transform_sampled(v).values)
    return ComposedWeight(v.like(np.exp(log_weight.values)), log_weight)


# ----------------------------------------------------------------------
# divergence scan


@dataclass(frozen=True)
class DivergenceRow:
    """One family member: its label, BMO lower bound, and the witness."""

    label: float
    bound: float
    witness: tuple[float, float]
    window_count: int
    tail_bound: float


def theorem_divergence_scan(
    family: Sequence[tuple[float, ZooModel]]
) -> list[DivergenceRow]:
    """BMO lower bounds of the transform model near each member's hot window.

    The grid geometry (``SCAN_*``) is fixed across the family, and each
    member uses its own indicator width.  The grid is
    anchored at each member's densest unit window and the zeros enter as
    offsets from that anchor, since oscillation over an interval is
    unchanged by translating zeros and grid together and the
    anchor-dependent constants drop out.  Every zero is kept, so the tail
    bound is zero unless a truncation is forced by the data.
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
        g, tail = hlf_samples(hlf_model, template)
        rep: OscillationReport = bmo_estimate(g, SCAN_INTERVAL, SCAN_INTERVAL)
        rows.append(
            DivergenceRow(
                float(label),
                rep.oscillation,
                (base + rep.a, base + rep.b),
                count,
                tail,
            )
        )
    return rows
