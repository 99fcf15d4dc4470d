"""Model zero sets: a bounded-modulus control and two high-density families.

The control is a vertically shifted sine, whose zeros are unit-spaced and
whose log-modulus stays in a band of width ``log(cosh/sinh)``.  The two
counterexample families have unit-window zero counts that grow without
bound:

* ``referee_example1``: factors ``cos^n(z/n^3)``, so the factor-``n`` zeros
  at ``n^3*pi*(m+1/2)`` carry multiplicity ``n``.
* ``referee_example2``: factors ``cos[(pi/2)(3^-n + 3^-n^2) z]`` whose
  zeros include ``z(k,n) = 3^k - delta(k,n)`` with
  ``delta(k,n) = 3^k / (3^(n^2-n) + 1)`` for every ``n < k``; the offsets
  ``delta`` span hundreds of orders of magnitude, so points are stored as
  ``(3^k, log3 delta)`` pairs and every interval predicate is evaluated on
  ``delta``, never on the catastrophic float difference ``3^k - delta``.

All generators are pure; evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ._numutil import read_text, write_text
from .errors import InputFormatError, PreconditionError
from .zeros import StripPoint, ZeroSet, upper_density_profile

__all__ = [
    "DeltaPoint",
    "ZooModel",
    "sine_type_model",
    "referee_example1",
    "referee_example2",
    "cluster_model",
    "count_claim_check",
    "shift_to_strip",
    "hot_unit_window",
    "relative_zero_set",
    "write_delta_csv",
    "load_delta_csv",
]

LOG3 = math.log(3.0)


class DeltaPoint(NamedTuple):
    """Zero at ``3^k - 3^delta_log3``; ``n`` records the factor (or -1)."""

    k: int
    n: int
    delta_log3: float

    @property
    def position(self) -> float:
        """Float position; collapses onto 3^k once delta underflows its ulp."""
        return 3.0**self.k - 3.0**self.delta_log3


@dataclass(eq=False)
class ZooModel:
    """A generated zero set together with its log-modulus evaluator.

    ``zeros`` is None until the model is shifted into the strip (the raw
    counterexamples have real zeros).  ``log_modulus_at_shift`` rebuilds
    the evaluator for any vertical shift, in closed form per factor via
    ``|cos(a+ib)|^2 = cos^2 a + sinh^2 b``.
    """

    name: str
    zeros: ZeroSet | None
    log_modulus: Callable | None
    shift: float = 0.0
    indicator_width: float = 0.0
    truncation: int | None = None
    raw_points: tuple[tuple[float, int], ...] | None = None
    delta_points: tuple[DeltaPoint, ...] | None = None
    log_modulus_at_shift: Callable[[float], Callable] | None = None


def _as_array(x):
    xa = np.asarray(x, dtype=float)
    return xa, (xa.ndim == 0)


def sine_type_model(h: float, truncation: int = 100) -> ZooModel:
    """Zeros ``n + ih`` for ``|n| <= truncation``; log-modulus in a band.

    ``|sin(pi(x - ih))|^2 = sin^2(pi x) + sinh^2(pi h)``, so the
    log-modulus lies in ``[log sinh(pi h), log cosh(pi h)]`` for every real
    ``x``.  The indicator-diagram width is ``2*pi``.
    """
    if not h > 0:
        raise PreconditionError(f"height must be positive, got {h}")
    if truncation < 0:
        raise PreconditionError(f"truncation must be >= 0, got {truncation}")
    pts = [StripPoint(float(n), h, 1) for n in range(-truncation, truncation + 1)]

    def at_shift(extra: float) -> Callable:
        sh2 = math.sinh(math.pi * (h + extra)) ** 2

        def log_modulus(x):
            xa, scalar = _as_array(x)
            out = 0.5 * np.log(np.sin(math.pi * xa) ** 2 + sh2)
            return float(out) if scalar else out

        return log_modulus

    return ZooModel(
        name="sine",
        zeros=ZeroSet(pts),
        log_modulus=at_shift(0.0),
        shift=0.0,
        indicator_width=2.0 * math.pi,
        truncation=truncation,
        log_modulus_at_shift=at_shift,
    )


def referee_example1(factors: int, window: float = 500.0) -> ZooModel:
    """Truncation of the product of ``cos^n(z/n^3)`` over ``n <= factors``.

    Real zeros at ``n^3*pi*(m+1/2)`` with multiplicity ``n``, for all
    positions inside ``[-window, window]``.  The unshifted evaluator is
    ``-inf`` exactly at those zeros (the tagged-singularity convention);
    shifting into the strip removes all real singularities.
    """
    if factors < 1:
        raise PreconditionError(f"need at least one factor, got {factors}")
    if not window > 0:
        raise PreconditionError(f"window must be positive, got {window}")
    raw: list[tuple[float, int]] = []
    for n in range(1, factors + 1):
        step = n**3 * math.pi
        m_lo = math.ceil(-window / step - 0.5)
        m_hi = math.floor(window / step - 0.5)
        raw.extend((step * (m + 0.5), n) for m in range(m_lo, m_hi + 1))
    raw.sort()

    def at_shift(extra: float) -> Callable:
        def log_modulus(x):
            xa, scalar = _as_array(x)
            total = np.zeros_like(xa)
            with np.errstate(divide="ignore"):
                for n in range(1, factors + 1):
                    scaled = xa / n**3
                    total += n * 0.5 * np.log(
                        np.cos(scaled) ** 2 + math.sinh(extra / n**3) ** 2
                    )
            return float(total) if scalar else total

        return log_modulus

    return ZooModel(
        name="example1",
        zeros=None,
        log_modulus=at_shift(0.0),
        truncation=factors,
        raw_points=tuple(raw),
        log_modulus_at_shift=at_shift,
    )


def referee_example2(k_max: int) -> ZooModel:
    """Offset-form zeros ``3^k - delta(k, n)`` for ``1 <= n < k <= k_max``.

    ``delta(k, n) = 3^k / (3^(n^2-n) + 1)``, kept as ``log3 delta``; the
    sign of that log decides ``delta < 1`` exactly, which is the interval
    predicate every count uses.  The evaluator sums the ``n <= k_max``
    factors ``cos[(pi/2)(3^-n + 3^-n^2) x]``.
    """
    if k_max < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    deltas = []
    for k in range(2, k_max + 1):
        for n in range(1, k):
            correction = math.log1p(3.0 ** (n - n * n)) / LOG3
            deltas.append(DeltaPoint(k, n, (k - n * n + n) - correction))

    def at_shift(extra: float) -> Callable:
        freqs = [
            0.5 * math.pi * (3.0 ** (-n) + 3.0 ** (-n * n))
            for n in range(1, k_max + 1)
        ]

        def log_modulus(x):
            xa, scalar = _as_array(x)
            total = np.zeros_like(xa)
            with np.errstate(divide="ignore"):
                for c in freqs:
                    total += 0.5 * np.log(
                        np.cos(c * xa) ** 2 + math.sinh(c * extra) ** 2
                    )
            return float(total) if scalar else total

        return log_modulus

    return ZooModel(
        name="example2",
        zeros=None,
        log_modulus=at_shift(0.0),
        truncation=k_max,
        delta_points=tuple(deltas),
        log_modulus_at_shift=at_shift,
    )


def cluster_model(count: int, center: float = 0.5, height: float = 1.0) -> ZooModel:
    """One zero of multiplicity ``count`` at ``center + i*height``."""
    if count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    if not height > 0:
        raise PreconditionError(f"height must be positive, got {height}")

    def at_shift(extra: float) -> Callable:
        y = height + extra

        def log_modulus(x):
            xa, scalar = _as_array(x)
            out = count * 0.5 * np.log((xa - center) ** 2 + y * y)
            return float(out) if scalar else out

        return log_modulus

    return ZooModel(
        name="cluster",
        zeros=ZeroSet([StripPoint(center, height, count)]),
        log_modulus=at_shift(0.0),
        truncation=count,
        log_modulus_at_shift=at_shift,
    )


def shift_to_strip(model: ZooModel, h: float) -> ZooModel:
    """Translate all zeros by ``+ih`` and rebuild the evaluator in closed form."""
    if not h > 0:
        raise PreconditionError(f"shift must be positive, got {h}")
    new_shift = model.shift + h
    if model.zeros is not None:
        zeros = ZeroSet(
            StripPoint(p.re, p.im + h, p.mult) for p in model.zeros.points
        )
    elif model.delta_points is not None:
        zeros = ZeroSet(
            StripPoint(p.position, new_shift, 1) for p in model.delta_points
        )
    elif model.raw_points is not None:
        zeros = ZeroSet(
            StripPoint(x, new_shift, mult) for x, mult in model.raw_points
        )
    else:
        raise PreconditionError("model carries no zeros to shift")
    log_modulus = (
        model.log_modulus_at_shift(new_shift)
        if model.log_modulus_at_shift is not None
        else None
    )
    return replace(model, zeros=zeros, log_modulus=log_modulus, shift=new_shift)


def _cluster_count(model: ZooModel, k: int) -> int:
    """Offset-form zeros strictly inside ``(3^k - 1, 3^k)``: ``log3 delta < 0``."""
    return sum(1 for p in model.delta_points if p.k == k and p.delta_log3 < 0.0)


def count_claim_check(model: ZooModel, k: int) -> tuple[int, bool]:
    """Zeros strictly inside ``(3^k - 1, 3^k)`` and whether they reach k/2.

    The membership test is ``0 < delta < 1``, i.e. ``log3 delta < 0``,
    evaluated in log space; the verdict may legitimately fail for small k.
    """
    if model.delta_points is None:
        raise PreconditionError("count claim applies to offset-form models only")
    if model.truncation is not None and k > model.truncation:
        raise PreconditionError(f"k={k} beyond the model truncation {model.truncation}")
    count = _cluster_count(model, k)
    return count, count >= k / 2.0


def hot_unit_window(model: ZooModel) -> tuple[float, float, int]:
    """Densest unit window as ``(base, anchor relative to base, count)``.

    Offset-form models are scanned in delta space (their clusters sit
    within float rounding of ``3^k``, where half-open float windows start
    to miscount); other models use the exact density scan.
    """
    if model.delta_points is not None:
        best_k, best_count = 0, -1
        ks = sorted({p.k for p in model.delta_points})
        for k in ks:
            count = _cluster_count(model, k)
            if count >= best_count:
                best_k, best_count = k, count
        return 3.0**best_k, -1.0, best_count
    if model.zeros is None:
        raise PreconditionError("model has no strip zeros; shift it first")
    entry = upper_density_profile(model.zeros, [1.0]).entries[0]
    return entry.witness, 0.0, entry.sup_count


def relative_zero_set(model: ZooModel, base: float) -> ZeroSet:
    """Zeros as offsets from ``base``; exact for offset-form models.

    With ``base = 3^k`` the differences ``3^k' - base`` are exact integer
    float subtractions (for ``k <= 33``) and the cluster offsets come out
    as ``-delta`` at full precision, which is what growth-window sampling
    near a cluster needs.
    """
    if model.delta_points is not None:
        if not model.shift > 0:
            raise PreconditionError("shift the model into the strip first")
        pts = [
            StripPoint(
                (3.0**p.k - base) - 3.0**p.delta_log3, model.shift, 1
            )
            for p in model.delta_points
        ]
        return ZeroSet(pts)
    if model.zeros is None:
        raise PreconditionError("model has no strip zeros; shift it first")
    return model.zeros.translated(-base)


# ----------------------------------------------------------------------
# offset-form export: `re_base,delta_log3,im,mult` rows under a flag line


def write_delta_csv(model: ZooModel, target) -> None:
    if model.delta_points is None:
        raise PreconditionError("only offset-form models export delta CSV")
    lines = ["# format: delta-log3", "re_base,delta_log3,im,mult"]
    for p in model.delta_points:
        lines.append(f"{3**p.k},{p.delta_log3!r},{model.shift!r},1")
    write_text(target, "\n".join(lines) + "\n")


def _power_of_three(value: int, lineno: int) -> int:
    k = 0
    v = value
    while v > 1 and v % 3 == 0:
        v //= 3
        k += 1
    if v != 1:
        raise InputFormatError(f"line {lineno}: re_base {value} is not a power of 3")
    return k


def load_delta_csv(source) -> ZooModel:
    """Rebuild an offset-form point set from a path or a text stream."""
    lines = read_text(source).splitlines()
    if not lines or "delta-log3" not in lines[0]:
        raise InputFormatError("missing the delta-log3 format flag line")
    deltas: list[DeltaPoint] = []
    shift = 0.0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("re_base"):
            continue
        try:
            base_s, dlog_s, im_s, _mult_s = line.split(",")
            k = _power_of_three(int(base_s), lineno)
            deltas.append(DeltaPoint(k, -1, float(dlog_s)))
            shift = float(im_s)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
    if not deltas:
        raise InputFormatError("no points in delta CSV")
    zeros = None
    if shift > 0:
        zeros = ZeroSet(StripPoint(p.position, shift, 1) for p in deltas)
    return ZooModel(
        name="example2-import",
        zeros=zeros,
        log_modulus=None,
        shift=shift,
        delta_points=tuple(deltas),
    )
