"""Model zero sets: a bounded-modulus control and two high-density families.

The control is the zero set of the shifted sine ``sin(pi(z - ih))``:
unit-spaced zeros, and a log-modulus that stays in a band of width
``log(cosh/sinh)``.  The two counterexample families have unit-window
zero counts that grow without bound:

* ``referee_example1``: factors ``cos^n(z/n^3)``, so the factor-``n`` zeros
  at ``n^3*pi*(m+1/2)`` carry multiplicity ``n``.
* ``referee_example2``: factors ``cos[(pi/2)(3^-n + 3^-n^2) z]`` whose
  zeros include ``z(k,n) = 3^k - delta(k,n)`` with
  ``delta(k,n) = 3^k / (3^(n^2-n) + 1)`` for every ``n < k``; the offsets
  ``delta`` span hundreds of orders of magnitude, so the model keeps the
  exact arrays ``k`` and ``log3 delta`` and every interval predicate is
  evaluated on ``delta``, never on the catastrophic float difference
  ``3^k - delta``.

All generators are pure.  ``zoo`` exports every model, ``example2`` too,
as the plain ``re,im,mult`` zero-set CSV of its float ``re``; the exact
arrays stay in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError
from .zeros import ZeroSet, upper_density_profile

__all__ = [
    "ZooModel",
    "sine_type_model",
    "referee_example1",
    "referee_example2",
    "cluster_model",
    "count_claim_check",
    "shift_to_strip",
    "hot_unit_window",
    "relative_zero_set",
]

LOG3 = math.log(3.0)


def _integer(value, name: str) -> int:
    """``value`` as an int; a count that is not a whole number is an error."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise PreconditionError(f"{name} must be an integer, got {value!r}")


@dataclass(eq=False)
class ZooModel:
    """Zeros ``re + i*height`` with multiplicity ``mult``.

    ``height`` is the common imaginary part of the zeros: 0 for the raw
    counterexamples, whose zeros are real.  Offset-form models
    (``referee_example2``) also keep the exact ``k`` and ``delta_log3``
    arrays of the zeros ``3^k - 3^delta_log3`` that ``re`` rounds; only
    ``re`` is exported, as for every model.
    """

    re: np.ndarray
    height: float
    mult: np.ndarray | None = None  # None: every zero is simple
    indicator_width: float = 0.0
    k: np.ndarray | None = None
    delta_log3: np.ndarray | None = None

    @property
    def zeros(self) -> ZeroSet | None:
        """The zeros as a strip zero set; None while they are real."""
        if not self.height > 0:
            return None
        return ZeroSet(self.re, np.full(self.re.size, self.height), self.mult)


def sine_type_model(h: float, truncation: int = 100) -> ZooModel:
    """Zeros ``n + ih`` for ``|n| <= truncation``: the bounded control.

    They are the zeros of ``sin(pi(z - ih))``, and
    ``|sin(pi(x - ih))|^2 = sin^2(pi x) + sinh^2(pi h)``, so that
    function's log-modulus lies in ``[log sinh(pi h), log cosh(pi h)]`` for
    every real ``x``.  The indicator-diagram width is ``2*pi``.
    """
    if not h > 0:
        raise PreconditionError(f"height must be positive, got {h}")
    truncation = _integer(truncation, "truncation")
    if truncation < 0:
        raise PreconditionError(f"truncation must be >= 0, got {truncation}")
    re = np.arange(-truncation, truncation + 1, dtype=float)
    return ZooModel(re, h, indicator_width=2.0 * math.pi)


def referee_example1(factors: int, window: float = 500.0) -> ZooModel:
    """Truncation of the product of ``cos^n(z/n^3)`` over ``n <= factors``.

    Real zeros at ``n^3*pi*(m+1/2)`` with multiplicity ``n``, for all
    positions inside ``[-window, window]``.
    """
    factors = _integer(factors, "factors")
    if factors < 1:
        raise PreconditionError(f"need at least one factor, got {factors}")
    if not window > 0:
        raise PreconditionError(f"window must be positive, got {window}")
    re: list[float] = []
    mult: list[int] = []
    for n in range(1, factors + 1):
        step = n**3 * math.pi
        m_lo = math.ceil(-window / step - 0.5)
        m_hi = math.floor(window / step - 0.5)
        re.extend(step * (m + 0.5) for m in range(m_lo, m_hi + 1))
        mult.extend([n] * (m_hi + 1 - m_lo))
    return ZooModel(np.array(re), 0.0, mult=np.array(mult, dtype=np.int64))


def referee_example2(k_max: int) -> ZooModel:
    """Offset-form zeros ``3^k - delta(k, n)`` for ``1 <= n < k <= k_max``.

    ``delta(k, n) = 3^k / (3^(n^2-n) + 1)``, kept as ``log3 delta``; the
    sign of that log decides ``delta < 1`` exactly, which is the interval
    predicate every count uses.  ``k_max`` stops at 646, the last k whose
    ``3.0**k`` is a finite float.
    """
    k_max = _integer(k_max, "k_max")
    if not 2 <= k_max <= 646:
        raise PreconditionError(f"k_max must be >= 2 and <= 646, got {k_max}")
    ks, delta_log3 = [], []
    for k in range(2, k_max + 1):
        for n in range(1, k):
            correction = math.log1p(3.0 ** (n - n * n)) / LOG3
            ks.append(k)
            delta_log3.append((k - n * n + n) - correction)
    # scalar float powers: numpy's differ from them by an ulp on some offsets
    re = np.array([3.0**k - 3.0**dl for k, dl in zip(ks, delta_log3)])
    return ZooModel(re, 0.0, k=np.array(ks, dtype=np.int64), delta_log3=np.array(delta_log3))


def cluster_model(count: int, height: float = 1.0) -> ZooModel:
    """One zero of multiplicity ``count`` at ``0.5 + i*height``.

    ``count`` must fit the int64 ``mult`` of a zero set: ``1 <= count < 2^63``.
    """
    count = _integer(count, "count")
    if not 1 <= count < 2**63:
        raise PreconditionError(f"count must be >= 1 and < 2^63, got {count}")
    if not height > 0:
        raise PreconditionError(f"height must be positive, got {height}")
    return ZooModel(np.array([0.5]), height, mult=np.array([count], dtype=np.int64))


def shift_to_strip(model: ZooModel, h: float) -> ZooModel:
    """Raise every zero by ``h``."""
    if not h > 0:
        raise PreconditionError(f"shift must be positive, got {h}")
    return replace(model, height=model.height + h)


def _cluster_counts(model: ZooModel) -> np.ndarray:
    """Per k, the zeros strictly inside ``(3^k - 1, 3^k)``: ``log3 delta < 0``."""
    if model.k is None:
        raise PreconditionError("count claim applies to offset-form models only")
    return np.bincount(model.k[model.delta_log3 < 0.0], minlength=int(model.k.max()) + 1)


def count_claim_check(model: ZooModel, k: int) -> tuple[int, bool]:
    """Zeros strictly inside ``(3^k - 1, 3^k)`` and whether they reach k/2.

    The verdict may legitimately fail for small k.  A k beyond the
    model's largest k, which its zeros cannot answer, is an error.
    """
    counts = _cluster_counts(model)
    if k >= counts.size:
        raise PreconditionError(f"k={k} beyond the model's largest k, {counts.size - 1}")
    count = int(counts[k]) if k >= 0 else 0
    return count, count >= k / 2.0


def hot_unit_window(model: ZooModel) -> tuple[float | int, float, int]:
    """Densest unit window as ``(base, anchor relative to base, count)``.

    Offset-form models are scanned in delta space (their clusters sit
    within float rounding of ``3^k``, where half-open float windows start
    to miscount), and the base is the exact integer ``3^k`` of the largest
    k with the most zeros; other models use the exact density scan.
    """
    if model.k is not None:
        counts = _cluster_counts(model)
        best_k = counts.size - 1 - int(np.argmax(counts[::-1]))
        return 3**best_k, -1.0, int(counts[best_k])
    zs = model.zeros
    if zs is None:
        raise PreconditionError("model has no strip zeros; shift it first")
    entry = upper_density_profile(zs, [1.0]).entries[0]
    return entry.witness, 0.0, entry.sup_count


def relative_zero_set(model: ZooModel, base: float | int) -> ZeroSet:
    """Zeros as offsets from ``base``; exact for offset-form models.

    With an integer ``base = 3^K`` an offset-form zero's offset is
    ``3^k - 3^K - 3^delta_log3`` computed exactly and rounded once, for
    every k.  The cluster offsets at ``k = K`` come out as ``-delta`` at
    full precision, which is what growth-window sampling near a cluster
    needs.
    """
    if not model.height > 0:
        raise PreconditionError("model has no strip zeros; shift it first")
    if model.k is None:
        re = model.re - base
    else:
        re = []
        for k, dl in zip(model.k.tolist(), model.delta_log3.tolist()):
            # int / int is correctly rounded, so this is the exact offset rounded once
            n, d = (3.0**dl).as_integer_ratio()
            re.append(((3**k - base) * d - n) / d)
    return ZeroSet(re, np.full(len(re), model.height), model.mult)
