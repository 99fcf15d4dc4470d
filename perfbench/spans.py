"""In-memory spans around the package's public functions.

The tracer patches the functions listed in ``LAYERS`` (in every
``stripzeros`` module that imported them by name) with wrappers that record
``[metric, start, end, parent]`` spans, and restores the originals on
``uninstall``.  Nothing inside the package is instrumented.  A span's self
time is its duration minus that of its child spans, so the self times of
all spans of a job add up to the job's time; the job's own span is named
``cli.self_s`` and takes what no wrapped function covers.

Counts are made at the same boundaries from the call's arguments, outside
the timed span, so they count the work requested rather than the steps an
implementation happens to take.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_METRIC = "cli.self_s"


def _zeros_within(cache: dict, zs, radius) -> int:
    """Zeros with ``|z| <= radius`` (all of them when ``radius`` is None)."""
    if radius is None:
        return len(zs)
    if cache.get("zs") is not zs:
        cache["zs"], cache["abs"] = zs, np.sort(np.hypot(zs.res, zs.ims))
    return int(np.searchsorted(cache["abs"], radius, side="right"))


def _dyadic_family_size(f, min_len: float, max_len: float) -> int:
    """Intervals in the sweep: lengths ``min_len * 2^k``, quarter-length anchors."""
    span = f.t_end - f.t0
    total, length = 0, float(min_len)
    while length <= max_len * (1 + 1e-12):
        total += int(math.floor((span - length) / (length / 4.0) + 1e-9)) + 1
        length *= 2.0
    return total


def _size(target) -> int:
    """Bytes in a file path or, after a write, in a text buffer."""
    if hasattr(target, "tell"):
        return target.tell()
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _kernel_pairs(tr, args, kwargs) -> int:
    """Zero-node pairs of ``hlf_samples(model, template, truncation_radius)``."""
    model, template = args[0], args[1]
    if model.zeros is None:
        return 0
    radius = args[2] if len(args) > 2 else kwargs.get("truncation_radius")
    return template.n * _zeros_within(tr.cache, model.zeros, radius)


# (module, attribute path, self-time metric, counter) -- the counter maps
# (tracer, args, kwargs, result) to {count metric: increment}.
LAYERS = [
    ("zeros", "load_zero_set", "zeros.load_s", None),
    ("zeros", "ZeroSet.__init__", "zeros.construct_s",
     lambda tr, a, k, r: {"zeros.points": len(a[0])}),
    ("zeros", "upper_density_profile", "zeros.density_s", None),
    ("zeros", "save_zero_set", "zeros.save_s", None),
    ("argbranch", "phi_sum", "argbranch.phi_sum_s",
     lambda tr, a, k, r: {"argbranch.phi_sum_calls": 1,
                          "argbranch.pair_evals": _zeros_within(tr.cache, a[0], a[2])}),
    ("sampled", "SampledFunction.from_csv", "sampled.from_csv_s",
     lambda tr, a, k, r: {"sampled.bytes_read": _size(a[1])}),
    ("sampled", "SampledFunction.to_csv", "sampled.to_csv_s",
     lambda tr, a, k, r: {"sampled.bytes_written": _size(a[1])}),
    ("hilbert", "hilbert_transform_sampled", "hilbert.sampled_s",
     lambda tr, a, k, r: {"hilbert.nodes": a[0].n}),
    ("oscillation", "bmo_estimate", "oscillation.bmo_s",
     lambda tr, a, k, r: {"oscillation.intervals": _dyadic_family_size(*a[:3])}),
    ("logmodel", "hlf_samples", "logmodel.hlf_samples_s",
     lambda tr, a, k, r: {"logmodel.kernel_pairs": _kernel_pairs(tr, a, k)}),
    ("logmodel", "theorem_divergence_scan", "logmodel.scan_s", None),
    ("zoo", "sine_type_model", "zoo.build_s", None),
    ("zoo", "referee_example1", "zoo.build_s", None),
    ("zoo", "referee_example2", "zoo.build_s", None),
    ("zoo", "cluster_model", "zoo.build_s", None),
    ("zoo", "shift_to_strip", "zoo.build_s", None),
    ("zoo", "hot_unit_window", "zoo.hot_window_s", None),
    ("zoo", "relative_zero_set", "zoo.relative_s", None),
]

# rates reported from the totals: (metric, count, time)
RATES = [
    ("argbranch.pairs_per_s", "argbranch.pair_evals", "argbranch.phi_sum_s"),
    ("logmodel.pairs_per_s", "logmodel.kernel_pairs", "logmodel.hlf_samples_s"),
    ("oscillation.intervals_per_s", "oscillation.intervals", "oscillation.bmo_s"),
]

TIME_METRICS = sorted({m for _, _, m, _ in LAYERS} | {ROOT_METRIC})
COUNT_METRICS = [
    "zeros.points", "argbranch.phi_sum_calls", "argbranch.pair_evals",
    "sampled.bytes_read", "sampled.bytes_written", "hilbert.nodes",
    "oscillation.intervals", "logmodel.kernel_pairs", "cli.bytes_out",
]


class Tracer:
    """Records spans while installed; one job at a time, one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.cache: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    def span(self, metric: str, fn, counter=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [metric, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(rec)
            self.stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                for key, inc in counter(self, args, kwargs, result).items():
                    self.counts[key] += inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if n == "stripzeros" or n.startswith("stripzeros.")]
        for mod_name, attr, metric, counter in LAYERS:
            mod = importlib.import_module(f"stripzeros.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    self._set(cls, meth, classmethod(self.span(metric, orig.__func__, counter)))
                else:
                    self._set(cls, meth, self.span(metric, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self.span(metric, orig, counter)
            for m in pkg_modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, name, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def run_job(self, fn, *args):
        """Run one job under the root span."""
        return self.span(ROOT_METRIC, fn)(*args)

    def totals(self) -> dict[str, float]:
        """Self seconds per time metric, and the counts."""
        child = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {m: 0.0 for m in TIME_METRICS}
        for (metric, start, end, _), c in zip(self.spans, child):
            out[metric] += (end - start) - c
        for m in COUNT_METRICS:
            out[m] = float(self.counts.get(m, 0.0))
        return out
