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
  ``delta`` span hundreds of orders of magnitude, so the model keeps the
  exact arrays ``k`` and ``log3 delta`` and every interval predicate is
  evaluated on ``delta``, never on the catastrophic float difference
  ``3^k - delta``.

All generators are pure; ``ZooModel.log_modulus`` accepts scalars or numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from ._numutil import read_rows, read_text, write_csv
from .errors import InputFormatError, PreconditionError
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
    "write_delta_csv",
    "load_delta_csv",
]

LOG3 = math.log(3.0)


@dataclass(eq=False)
class ZooModel:
    """Zeros ``re + i*height`` (multiplicity ``mult``) and their log-modulus.

    ``height`` is the common imaginary part of the zeros: 0 for the raw
    counterexamples, whose zeros are real.  ``evaluator(x, height)`` is the
    log-modulus for zeros at that height, in closed form per factor via
    ``|cos(a+ib)|^2 = cos^2 a + sinh^2 b``.  Offset-form models also keep
    the exact ``k`` and ``delta_log3`` arrays of the zeros
    ``3^k - 3^delta_log3`` that ``re`` rounds.
    """

    name: str
    re: np.ndarray
    height: float
    evaluator: Callable[[np.ndarray, float], np.ndarray] | None
    mult: np.ndarray | None = None  # None: every zero is simple
    indicator_width: float = 0.0
    truncation: int | None = None
    k: np.ndarray | None = None
    delta_log3: np.ndarray | None = None

    @property
    def zeros(self) -> ZeroSet | None:
        """The zeros as a strip zero set; None while they are real."""
        if not self.height > 0:
            return None
        return ZeroSet(self.re, np.full(self.re.size, self.height), self.mult)

    def log_modulus(self, x):
        """``log|F(x)|`` at a scalar (a float) or an array of reals."""
        xa = np.asarray(x, dtype=float)
        out = self.evaluator(xa, self.height)
        return float(out) if xa.ndim == 0 else out


def _offset_form(
    ks: list[int], delta_log3: list[float], name: str, height: float, evaluator, **fields
) -> ZooModel:
    """Simple zeros at ``3^k - 3^delta_log3``.

    The powers are scalar float powers: numpy's differ from them by an ulp
    on some offsets.
    """
    re = np.array([3.0**k - 3.0**dl for k, dl in zip(ks, delta_log3)])
    return ZooModel(name, re, height, evaluator, k=np.array(ks, dtype=np.int64),
                    delta_log3=np.array(delta_log3), **fields)


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

    def log_modulus(x, height):
        return 0.5 * np.log(np.sin(math.pi * x) ** 2 + math.sinh(math.pi * height) ** 2)

    re = np.arange(-truncation, truncation + 1, dtype=float)
    return ZooModel("sine", re, h, log_modulus, indicator_width=2.0 * math.pi,
                    truncation=truncation)


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
    re: list[float] = []
    mult: list[int] = []
    for n in range(1, factors + 1):
        step = n**3 * math.pi
        m_lo = math.ceil(-window / step - 0.5)
        m_hi = math.floor(window / step - 0.5)
        re.extend(step * (m + 0.5) for m in range(m_lo, m_hi + 1))
        mult.extend([n] * (m_hi + 1 - m_lo))

    def log_modulus(x, height):
        total = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            for n in range(1, factors + 1):
                total += n * 0.5 * np.log(
                    np.cos(x / n**3) ** 2 + math.sinh(height / n**3) ** 2
                )
        return total

    return ZooModel("example1", np.array(re), 0.0, log_modulus,
                    mult=np.array(mult, dtype=np.int64), truncation=factors)


def referee_example2(k_max: int) -> ZooModel:
    """Offset-form zeros ``3^k - delta(k, n)`` for ``1 <= n < k <= k_max``.

    ``delta(k, n) = 3^k / (3^(n^2-n) + 1)``, kept as ``log3 delta``; the
    sign of that log decides ``delta < 1`` exactly, which is the interval
    predicate every count uses.  The evaluator sums the ``n <= k_max``
    factors ``cos[(pi/2)(3^-n + 3^-n^2) x]``.
    """
    if k_max < 2:
        raise PreconditionError(f"k_max must be >= 2, got {k_max}")
    ks, delta_log3 = [], []
    for k in range(2, k_max + 1):
        for n in range(1, k):
            correction = math.log1p(3.0 ** (n - n * n)) / LOG3
            ks.append(k)
            delta_log3.append((k - n * n + n) - correction)
    freqs = [0.5 * math.pi * (3.0 ** (-n) + 3.0 ** (-n * n)) for n in range(1, k_max + 1)]

    def log_modulus(x, height):
        total = np.zeros_like(x)
        with np.errstate(divide="ignore"):
            for c in freqs:
                total += 0.5 * np.log(np.cos(c * x) ** 2 + math.sinh(c * height) ** 2)
        return total

    return _offset_form(ks, delta_log3, "example2", 0.0, log_modulus, truncation=k_max)


def cluster_model(count: int, height: float = 1.0) -> ZooModel:
    """One zero of multiplicity ``count`` at ``0.5 + i*height``."""
    if count < 1:
        raise PreconditionError(f"count must be >= 1, got {count}")
    if not height > 0:
        raise PreconditionError(f"height must be positive, got {height}")

    def log_modulus(x, height):
        return count * 0.5 * np.log((x - 0.5) ** 2 + height * height)

    return ZooModel("cluster", np.array([0.5]), height, log_modulus,
                    mult=np.array([count], dtype=np.int64), truncation=count)


def shift_to_strip(model: ZooModel, h: float) -> ZooModel:
    """Raise every zero by ``h``; the evaluator follows the height."""
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

    The verdict may legitimately fail for small k.
    """
    counts = _cluster_counts(model)
    if model.truncation is not None and k > model.truncation:
        raise PreconditionError(f"k={k} beyond the model truncation {model.truncation}")
    count = int(counts[k]) if 0 <= k < counts.size else 0
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
        re = [
            float((3**k - base) - Fraction(3.0**dl))
            for k, dl in zip(model.k.tolist(), model.delta_log3.tolist())
        ]
    return ZeroSet(re, np.full(len(re), model.height), model.mult)


# ----------------------------------------------------------------------
# offset-form export: `re_base,delta_log3,im,mult` rows under a flag line


def write_delta_csv(model: ZooModel, target) -> None:
    if model.k is None:
        raise PreconditionError("only offset-form models export delta CSV")
    n = model.k.size
    write_csv(
        target,
        "# format: delta-log3\nre_base,delta_log3,im,mult\n",
        np.array([3**k for k in model.k.tolist()], dtype=object),
        model.delta_log3,
        np.full(n, model.height),
        np.ones(n, dtype=np.int64),
    )


# re_base stays text, for an exact int: 3^k passes int64
_ROW = np.dtype([("re_base", object), ("delta_log3", float), ("im", float),
                 ("mult", np.int64)])


def _power_of_three(text: str, lineno: int) -> int:
    """The k with ``3^k`` equal to ``text``, read as numpy reads an integer."""
    text = text.strip()
    digits = text.removeprefix("+")
    # 4000 digits stay below int()'s limit and far beyond any float 3^k
    v = int(digits) if digits.isascii() and digits.isdigit() and len(digits) < 4000 else 0
    k = round(math.log(v, 3)) if v else 0
    if 3**k != v:
        raise InputFormatError(f"line {lineno}: re_base {text} is not a power of 3")
    return k


def load_delta_csv(source) -> ZooModel:
    """Rebuild an offset-form point set from a path or a text stream.

    Every row must carry ``mult`` 1 and the first row's ``im``, which must
    be finite and >= 0 (0 means the zeros are real).
    """
    lines = read_text(source).splitlines()
    if not lines or "delta-log3" not in lines[0]:
        raise InputFormatError("missing the delta-log3 format flag line")
    # the flag line and the re_base column headers hold no row
    data = [""] + [line.split("#", 1)[0].strip() for line in lines[1:]]
    data = ["" if row.startswith("re_base") else row for row in data]
    table = read_rows(data, _ROW, "a re_base,delta_log3,im,mult row", lines)
    linenos = [i for i, row in enumerate(data, start=1) if row]
    if not linenos:
        raise InputFormatError("no points in delta CSV")
    rows = table.tolist()
    height = rows[0][2]
    ks: list[int] = []
    for lineno, (base, dl, im, mult) in zip(linenos, rows):
        k = _power_of_three(base, lineno)
        if not dl < math.inf:
            raise InputFormatError(f"line {lineno}: delta_log3 must be below inf, got {dl}")
        if mult != 1:
            raise InputFormatError(f"line {lineno}: mult must be 1, got {mult}")
        if not 0 <= im < math.inf:
            raise InputFormatError(f"line {lineno}: im must be finite and >= 0, got {im}")
        if im != height:
            raise InputFormatError(f"line {lineno}: im {im!r} differs from the first row's")
        ks.append(k)
    try:
        return _offset_form(ks, table["delta_log3"].tolist(), "example2-import", height, None)
    except OverflowError:
        raise InputFormatError("an offset-form zero lies beyond the float range") from None
