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
        self._seal()
        if self._cum.min() < 0:
            total = sum(self._mult.tolist())
            raise PreconditionError(f"total multiplicity must be < 2^63, got {total}")

    def _seal(self) -> None:
        """Form ``_cum``, ``alpha`` and ``beta`` of the sorted arrays; make all read-only."""
        # prefix sums of multiplicity for O(log n) window counts; each mult is
        # below 2^63, so a partial sum past the int64 range wraps negative
        self._cum = np.concatenate(([0], np.cumsum(self._mult)))
        for a in (self._re, self._im, self._mult, self._cum):
            a.flags.writeable = False
        self.alpha = float(self._im.min())
        self.beta = float(self._im.max())

    def _select(self, idx) -> ZeroSet:
        """The zeros at ``idx``: a slice or increasing indices, selecting at least one.

        The selection of a sorted, validated set is sorted and valid, and its
        total multiplicity is at most this set's, so it is neither checked
        nor sorted again; a slice shares this set's arrays.  The result
        equals ``ZeroSet(self.res[idx], self.ims[idx], self.mults[idx])``.
        """
        sub = ZeroSet.__new__(ZeroSet)
        sub._re, sub._im, sub._mult = self._re[idx], self._im[idx], self._mult[idx]
        sub._seal()
        return sub

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


@dataclass(frozen=True)
class ProfileEntry:
    """One row of a density profile; ``density == sup_count / r`` exactly."""

    r: float
    sup_count: int
    density: float
    witness: float


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

    The end ``x + r`` is compared exactly, not as its rounded float.
    ``x`` is one anchor (the count is an ``int``) or an array of anchors
    (an array of counts).  A length ``r`` not above the float spacing at
    the outermost zero raises ``PreconditionError``: a window there holds
    at most one float, and its count would silently come out short.
    """
    if not r > 0:
        raise PreconditionError(f"window length must be positive, got {r}")
    far = max(abs(zs.res[0]), abs(zs.res[-1]))
    if not np.spacing(far) < r:
        raise PreconditionError(
            f"window length {r} is not above the float spacing {np.spacing(far)} "
            f"at |re| = {far}, so windows there cannot be counted exactly"
        )
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    # TwoSum: x + r == s + e exactly, and z < x + r iff z < s, or z == s with e > 0
    s = xs + r
    b = s - xs
    rounded_down = (xs - (s - b)) + (r - b) > 0
    lo = np.searchsorted(zs.res, xs, side="left")
    hi = np.searchsorted(zs.res, s, side="left")
    tie = rounded_down & (zs.res[np.minimum(hi, len(zs) - 1)] == s)
    hi[tie] = np.searchsorted(zs.res, s[tie], side="right")
    counts = zs._cum[hi] - zs._cum[lo]
    return int(counts[0]) if np.ndim(x) == 0 else counts


def _validate_radii(radii: Sequence[float]) -> list[float]:
    radii = list(radii)
    if not radii:
        raise PreconditionError("radii must be nonempty")
    if any(not 0 < r < math.inf for r in radii):
        raise PreconditionError("radii must be positive and finite")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly increasing")
    return radii


def upper_density_profile(zs: ZeroSet, radii: Sequence[float]) -> tuple[ProfileEntry, ...]:
    """Sup over window position of count/length: one entry per window length.

    The count as a function of the anchor is piecewise constant with jumps
    at ``{re_i}`` and ``{re_i - r}``, and its sup is attained on that finite
    candidate set, so the scan is exact for finite data.  No limit in ``r``
    is taken: the whole profile is reported.  The witness is the smallest
    *candidate* anchor of largest count, the candidates being ``{re_i}``
    and the rounded ``{fl(re_i - r)}``, not the smallest float anchor:
    where ``fl(re_i - r)`` rounds below ``re_i - r`` its window misses
    ``re_i``, and a float just above it, which is no candidate, may hold as
    many zeros as the witness.  As ``0.0 == -0.0``, a witness of zero may
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
    return tuple(entries)


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


def _clear(members: list[int], res: list, ims: list, x: float, y: float, delta: float) -> bool:
    """No member (sorted by re, none past ``x``) lies closer than ``delta`` to ``x + iy``."""
    for j in reversed(members):
        if x - res[j] >= delta:
            return True
        if math.hypot(x - res[j], y - ims[j]) < delta:
            return False
    return True


def decompose_uniformly_discrete(zs: ZeroSet, delta: float) -> tuple[list[ZeroSet], int]:
    """Partition into classes with pairwise distances >= ``delta``.

    Greedy first-fit over zeros sorted by re: a zero of multiplicity ``m``
    joins the first ``m`` classes it clears and opens one class per copy
    left over, since its copies, at distance 0, block each other.  Returns
    the classes and the certified class-count bound: the max
    multiplicity-weighted count over windows of length ``2*delta``.  When
    a copy clears none of ``c`` classes, each class blocks it within
    distance < ``delta``, so those ``c`` points plus the copy sit in one
    such window; hence #classes never exceeds the bound.
    """
    if not delta > 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    res, ims = zs.res.tolist(), zs.ims.tolist()
    classes: list[list[int]] = []
    for i, (x, y, m) in enumerate(zip(res, ims, zs.mults.tolist())):
        for members in classes:
            if _clear(members, res, ims, x, y, delta):
                members.append(i)
                m -= 1
                if not m:
                    break
        classes += [[i] for _ in range(m)]
    bound = upper_density_profile(zs, [2 * delta])[0].sup_count
    return [ZeroSet(zs.res[m], zs.ims[m]) for m in classes], bound
