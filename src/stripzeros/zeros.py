"""Zero sequences in a horizontal strip: counting, density, separation.

A zero set is a finite multiset of points ``re + i*im`` with ``im > 0``,
kept sorted by real part.  Window counts are multiplicity-weighted and use
half-open windows ``[x, x+r)`` so that adjacent windows partition the line.

Everything here is a pure function of immutable inputs; density scans
reduce with ``max``/``min`` over a fixed anchor order, so results are
deterministic and safe to compute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numutil import read_rows, read_text, write_csv
from .errors import InputFormatError, PreconditionError

_ROW = np.dtype([("re", float), ("im", float), ("mult", np.int64)])  # a CSV row

__all__ = [
    "ZeroSet",
    "ProfileEntry",
    "DensityProfile",
    "load_zero_set",
    "save_zero_set",
    "window_count",
    "upper_density_profile",
    "separation_constant",
    "decompose_uniformly_discrete",
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
        A total multiplicity of 2^63 or more raises ``PreconditionError``.
        """
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
        mult = np.ones(re.shape, dtype=np.int64) if mult is None else np.asarray(mult)
        if not (re.ndim == 1 and re.shape == im.shape == mult.shape):
            raise PreconditionError("re, im and mult must be 1-d arrays of one length")
        if re.size == 0:
            raise PreconditionError("a ZeroSet needs at least one point")
        m = mult.astype(float)
        # int64 fits below 2^63; integer dtypes compare exactly, as near 2^63
        # their float casts round up to it
        fits = mult <= 2**63 - 1 if mult.dtype.kind in "iu" else m < 2.0**63
        whole = (m >= 1) & (m == np.floor(m)) & fits
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
        # one sort by re, then only the runs of equal re by (re, im, mult), their
        # rows in input order so that full ties (0.0, -0.0) keep it, as in one lexsort
        order = np.argsort(re)
        s = re[order]
        eq = np.concatenate(([False], s[1:] == s[:-1], [False]))  # s[k] == s[k - 1]
        g = np.flatnonzero(eq[:-1] | eq[1:])  # positions in a run of equal re
        idx = np.sort(order[g])
        order[g] = idx[np.lexsort((mult[idx], im[idx], re[idx]))]
        self._re = re[order]
        self._im = im[order]
        self._mult = mult[order].astype(np.int64)
        # prefix sums of multiplicity for O(log n) window counts; each mult is
        # below 2^63, so a partial sum past the int64 range wraps negative
        self._cum = np.concatenate(([0], np.cumsum(self._mult)))
        if self._cum.min() < 0:
            total = sum(self._mult.tolist())
            raise PreconditionError(f"total multiplicity must be < 2^63, got {total}")
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


# ----------------------------------------------------------------------
# file formats


def load_zero_set(source) -> ZeroSet:
    """Read a zero set from CSV ``re,im[,mult]`` rows.

    ``source`` is a path (read as UTF-8) or a text stream.  Rows go
    through the one CSV reader, :func:`read_rows`.  A row that
    :class:`ZeroSet` rejects is reported by its file line.
    """
    lines = read_text(source).split("\n")
    table = read_rows(lines, _ROW, "a re,im[,mult] row of numbers", rewrite=_with_mult)
    if table.size == 0:
        raise InputFormatError("empty zero-set input")
    try:
        return ZeroSet(table["re"], table["im"], table["mult"])
    except _BadZero as exc:
        n = [i for i, line in enumerate(lines, start=1) if _with_mult(line)][exc.row]
        raise InputFormatError(f"line {n}: {exc.reason}") from None


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
    is taken: the whole profile is reported.  The witness is the smallest
    anchor of largest count; as ``0.0 == -0.0``, a witness of zero may
    carry either sign.
    """
    entries = []
    for r in _validate_radii(radii):
        # each anchor array is sorted, so argmax finds its smallest best anchor
        best = []
        for anchors in (zs.res, zs.res - r):
            counts = window_count(zs, anchors, r)
            i = int(np.argmax(counts))
            best.append((-int(counts[i]), float(anchors[i])))
        count, witness = min(best)
        sup = -count
        entries.append(ProfileEntry(float(r), sup, sup / r, witness))
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
