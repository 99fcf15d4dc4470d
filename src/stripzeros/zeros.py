"""Zero sequences in a horizontal strip: counting, density, separation.

A zero set is a finite multiset of points ``re + i*im`` with ``im > 0``,
kept sorted by real part.  Window counts are multiplicity-weighted and use
half-open windows ``[x, x+r)`` so that adjacent windows partition the line.

Everything here is a pure function of immutable inputs; density scans
reduce with ``max``/``min`` over a fixed anchor order, so results are
deterministic and safe to compute concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numutil import evaluate_on_grid, read_rows, read_text, write_csv
from .errors import InputFormatError, PreconditionError

_ROW = np.dtype([("re", float), ("im", float), ("mult", np.int64)])  # a CSV row

__all__ = [
    "ZeroSet",
    "ProfileEntry",
    "DensityProfile",
    "CartwrightEstimate",
    "load_zero_set",
    "save_zero_set",
    "window_count",
    "upper_density_profile",
    "separation_constant",
    "decompose_uniformly_discrete",
    "blaschke_sum",
    "blaschke_tail",
    "cartwright_integral_estimate",
]


class _BadZero(InputFormatError):
    """Row ``row`` of the constructor's input is rejected for ``reason``."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"zero {row}: {reason}")
        self.row, self.reason = row, reason


class ZeroSet:
    """Finite multiset of strip points sorted by re (ties: im, then mult).

    The three arrays ``res``, ``ims`` and ``mults`` are the whole state.
    ``alpha``/``beta`` are the smallest and largest imaginary parts
    actually attained, i.e. the tight strip bounds of the data.
    """

    __slots__ = ("alpha", "beta", "_re", "_im", "_mult", "_cum")

    def __init__(self, re, im, mult=None):
        """Validate and sort the zeros ``re[i] + i*im[i]`` (``mult`` defaults to 1).

        ``re`` must be finite, ``im`` finite and positive, ``mult`` integral
        and at least 1; the first offending row raises ``InputFormatError``.
        """
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
        mult = np.ones(re.shape, dtype=np.int64) if mult is None else np.asarray(mult)
        if not (re.ndim == 1 and re.shape == im.shape == mult.shape):
            raise PreconditionError("re, im and mult must be 1-d arrays of one length")
        if re.size == 0:
            raise PreconditionError("a ZeroSet needs at least one point")
        m = mult.astype(float)
        whole = (m >= 1) & (m == np.floor(m)) & (m < 2.0**63)  # below 2^63: fits int64
        checks = (
            ("re must be finite", re, np.isfinite(re)),
            ("im must be positive and finite", im, np.isfinite(im) & (im > 0)),
            ("mult must be an integer >= 1", mult, whole),
        )
        ok = np.logical_and.reduce([good for _, _, good in checks])
        if not ok.all():
            row = int(np.argmin(ok))
            what, values = next((w, v) for w, v, good in checks if not good[row])
            raise _BadZero(row, f"{what}, got {values[row]}")
        order = np.lexsort((mult, im, re))
        self._re = re[order]
        self._im = im[order]
        self._mult = mult[order].astype(np.int64)
        # prefix sums of multiplicity for O(log n) window counts
        self._cum = np.concatenate(([0], np.cumsum(self._mult)))
        for a in (self._re, self._im, self._mult, self._cum):
            a.flags.writeable = False
        self.alpha = float(self._im.min())
        self.beta = float(self._im.max())

    def __len__(self) -> int:
        return len(self._re)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZeroSet)
            and np.array_equal(self._re, other._re)
            and np.array_equal(self._im, other._im)
            and np.array_equal(self._mult, other._mult)
        )

    def __repr__(self) -> str:
        return (
            f"ZeroSet({len(self)} points, weight {self.weight}, "
            f"alpha={self.alpha:g}, beta={self.beta:g})"
        )

    @property
    def weight(self) -> int:
        """Total number of zeros counted with multiplicity."""
        return int(self._cum[-1])

    @property
    def res(self) -> np.ndarray:
        return self._re

    @property
    def ims(self) -> np.ndarray:
        return self._im

    @property
    def mults(self) -> np.ndarray:
        return self._mult

    def expanded(self) -> "ZeroSet":
        """The same multiset with every multiplicity written out as copies."""
        return ZeroSet(np.repeat(self._re, self._mult), np.repeat(self._im, self._mult))


@dataclass(frozen=True)
class ProfileEntry:
    """One row of a density profile; ``density == sup_count / r`` exactly."""

    r: float
    sup_count: int
    density: float
    witness: float


@dataclass(frozen=True)
class DensityProfile:
    entries: tuple[ProfileEntry, ...]


@dataclass(frozen=True)
class CartwrightEstimate:
    """Truncated log-integrability estimate, reported with its radius."""

    value: float
    radius: float
    skipped_nodes: int
    total_nodes: int


# ----------------------------------------------------------------------
# file formats


def load_zero_set(source) -> ZeroSet:
    """Read a zero set from CSV (``re,im[,mult]`` rows) or a JSON array.

    ``source`` is a path or a text stream.  CSV goes through the one CSV
    reader, :func:`read_rows`.  JSON input is an array of objects
    ``{"re": ..., "im": ..., "mult": ...}`` (``mult`` optional, an integer).
    A row that :class:`ZeroSet` rejects is reported by its line (CSV) or
    record (JSON) number.
    """
    text = read_text(source)
    stripped = text.lstrip()
    if not stripped:
        raise InputFormatError("empty zero-set input")
    if stripped[0] == "[":
        unit = "record"
        try:
            records = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad JSON: {exc}") from None
        res, ims, mults = [], [], []
        for i, rec in enumerate(records):
            try:
                res.append(float(rec["re"]))
                ims.append(float(rec["im"]))
                mult = rec.get("mult", 1)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"record {i}: {exc}") from None
            if isinstance(mult, bool) or not isinstance(mult, (int, float)):
                raise InputFormatError(f"record {i}: mult must be an integer, got {mult!r}")
            mults.append(mult)
        rows = range(len(res))  # record numbers
    else:
        unit = "line"
        lines = text.splitlines()
        data = [_with_mult(line) for line in lines]
        table = read_rows(data, _ROW, "a re,im[,mult] row of numbers", lines)
        res, ims, mults = table["re"], table["im"], table["mult"]
        rows = [i for i, row in enumerate(data, start=1) if row]  # line numbers
    if not rows:
        raise InputFormatError("empty zero-set input")
    try:
        return ZeroSet(res, ims, mults)
    except _BadZero as exc:
        raise InputFormatError(f"{unit} {rows[exc.row]}: {exc.reason}") from None


def _with_mult(line: str) -> str:
    """``line`` without comment and outer spaces; ``re,im`` and ``re,im,`` get mult 1."""
    row = line.split("#", 1)[0].strip()
    if row.count(",") == 1:
        return row + ",1"
    return row + "1" if row.endswith(",") and row.count(",") == 2 else row


def save_zero_set(zs: ZeroSet, target) -> None:
    """Write a zero set as ``re,im,mult`` CSV lines; floats round-trip bit-exactly."""
    write_csv(target, "", zs.res, zs.ims, zs.mults)


# ----------------------------------------------------------------------
# counting and densities


def window_count(zs: ZeroSet, x: float | np.ndarray, r: float) -> int | np.ndarray:
    """Multiplicity-weighted number of zeros with re in ``[x, x+r)``.

    ``x`` is one anchor (the count is an ``int``) or an array of anchors
    (an array of counts).
    """
    if not r > 0:
        raise PreconditionError(f"window length must be positive, got {r}")
    lo = np.searchsorted(zs.res, x, side="left")
    hi = np.searchsorted(zs.res, x + r, side="left")
    counts = zs._cum[hi] - zs._cum[lo]
    return int(counts) if np.ndim(x) == 0 else counts


def _validate_radii(radii: Sequence[float]) -> list[float]:
    radii = list(radii)
    if not radii:
        raise PreconditionError("radii must be nonempty")
    if any(not 0 < r < math.inf for r in radii):
        raise PreconditionError("radii must be positive and finite")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly increasing")
    return radii


def upper_density_profile(zs: ZeroSet, radii: Sequence[float]) -> DensityProfile:
    """Sup over window position of count/length, per window length.

    The count as a function of the anchor is piecewise constant with jumps
    at ``{re_i}`` and ``{re_i - r}``, and its sup is attained on that finite
    candidate set, so the scan is exact for finite data.  No limit in ``r``
    is taken: the whole profile is reported.
    """
    entries = []
    for r in _validate_radii(radii):
        anchors = np.unique(np.concatenate((zs.res, zs.res - r)))
        counts = window_count(zs, anchors, r)
        best = int(np.argmax(counts))
        sup = int(counts[best])
        entries.append(ProfileEntry(float(r), sup, sup / r, float(anchors[best])))
    return DensityProfile(tuple(entries))


# ----------------------------------------------------------------------
# separation and decomposition


def separation_constant(zs: ZeroSet) -> float:
    """Smallest pairwise distance, zero when any point repeats.

    Points are counted with multiplicity, so a multiplicity above one makes
    the set non-separated by definition.
    """
    if zs.weight < 2:
        raise PreconditionError("separation needs at least two points with multiplicity")
    if int(zs.mults.max()) > 1:
        return 0.0
    res, ims = zs.res, zs.ims
    best = math.inf
    n = len(res)
    for i in range(n - 1):
        j = i + 1
        while j < n and res[j] - res[i] < best:
            d = math.hypot(res[j] - res[i], ims[j] - ims[i])
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
            j += 1
    return float(best)


def decompose_uniformly_discrete(
    zs: ZeroSet, delta: float
) -> tuple[list[ZeroSet], int]:
    """Partition into classes with pairwise distances >= ``delta``.

    Greedy first-fit over points sorted by re (multiplicities expanded to
    repeated points).  Returns the classes and the certified class-count
    bound: the max multiplicity-weighted count over windows of length
    ``2*delta``.  When a point cannot join any of ``c`` classes, each class
    blocks it within distance < ``delta``, so those ``c`` points plus the
    point itself sit in one such window; hence #classes never exceeds the
    bound.
    """
    if not delta > 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    expanded = zs.expanded()
    res, ims = expanded.res.tolist(), expanded.ims.tolist()
    classes: list[list[int]] = []
    for i, (x, y) in enumerate(zip(res, ims)):
        placed = False
        for members in classes:
            ok = True
            for j in reversed(members):
                if x - res[j] >= delta:
                    break
                if math.hypot(x - res[j], y - ims[j]) < delta:
                    ok = False
                    break
            if ok:
                members.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    bound = upper_density_profile(expanded, [2 * delta]).entries[0].sup_count
    return [ZeroSet(expanded.res[m], expanded.ims[m]) for m in classes], bound


# ----------------------------------------------------------------------
# summability diagnostics

# share of nonfinite log-modulus nodes cartwright_integral_estimate tolerates
MAX_SKIP_FRACTION = 0.01


def blaschke_sum(zs: ZeroSet) -> float:
    """``sum mult * im / |z|^2`` over the whole set."""
    return blaschke_tail(zs, 0.0)


def blaschke_tail(zs: ZeroSet, radius: float) -> float:
    """The same sum restricted to ``|z| > radius`` (truncation remainder)."""
    h = np.hypot(zs.res, zs.ims)  # im/h/h: re**2 overflows beyond |re| ~ 1.3e154
    mask = h > radius
    h = h[mask]
    return float(np.sum(zs.ims[mask] / h / h * zs.mults[mask]))


def cartwright_integral_estimate(
    log_modulus: Callable, radius: float, grid_step: float
) -> CartwrightEstimate:
    """Trapezoid estimate of ``integral of max(log|F|, 0)/(1+x^2)`` on ``[-R, R]``.

    Grid nodes where the evaluator is not finite (real zeros of the model
    give ``-inf``) are skipped; since ``max(., 0)`` sends them to zero they
    cost nothing, but more than ``MAX_SKIP_FRACTION`` of them is an error.
    The radius is reported back so callers can inspect convergence in R.
    """
    if not radius > 0:
        raise PreconditionError(f"radius must be positive, got {radius}")
    if not 0 < grid_step < 2 * radius:
        raise PreconditionError(f"bad grid step {grid_step} for radius {radius}")
    n = int(round(2 * radius / grid_step)) + 1
    xs = np.linspace(-radius, radius, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = evaluate_on_grid(log_modulus, xs)
    finite = np.isfinite(vals)
    skipped = int(n - finite.sum())
    if skipped > MAX_SKIP_FRACTION * n:
        raise PreconditionError(
            f"{skipped} of {n} nodes are nonfinite, beyond the {MAX_SKIP_FRACTION:.0%} budget"
        )
    integrand = np.where(finite, np.maximum(vals, 0.0), 0.0) / (1.0 + xs**2)
    return CartwrightEstimate(float(np.trapezoid(integrand, xs)), radius, skipped, n)
