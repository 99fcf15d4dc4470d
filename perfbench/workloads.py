"""Seeded inputs and job lists of the three benchmark workloads.

Each workload is a fixed cycle of ``stripzeros`` CLI jobs.  The inputs are
built here from the workload seed, independently of the package: the
zero set is drawn with numpy, and the two sampled signals are evaluated
from their closed forms.  The package only ever sees the written files and
the argv lists.

Why these three:

* ``divergence`` is the paper's headline computation (the divergence
  scan behind ``verify-theorem``).  Its time is the branch kernel in
  ``logmodel.hlf_samples`` plus a single-length BMO sweep; it reads no
  files and runs no Hilbert FFT.  Its argv lists are the acceptance-gate
  families, so the seed only rotates the cycle order.
* ``zeroset`` stresses zero-set parsing, ``ZeroSet`` construction, the
  density scan and the per-t ``phi_sum`` loop, and writes a large zero set
  beside the reads, so that a faster reader bought with slower
  construction shows.  It never touches BMO or the Hilbert transform.
* ``signal`` stresses sampled-CSV parsing and formatting, the Hilbert FFT
  and the dyadic BMO sweep, with no zero sets and no branch kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# divergence: the families of the acceptance gate (criteria 8 and 9) plus
# example1; every verify-theorem job also runs the built-in N=200 control.
VERIFY_JOBS = {
    "verify_cluster": ["--model", "cluster", "--K", "12,60,120,240", "--thresholds", "1,4,9,19"],
    "verify_example1": ["--model", "example1", "--K", "5,10,20"],
    "verify_example2": ["--model", "example2", "--K", "10,15,20,25,30", "--thresholds", "5"],
    "verify_sine": ["--model", "sine", "--K", "400,1600"],
}

# zeroset
BACKGROUND_ZEROS = 49_000
CLUSTERS = 4
CLUSTER_SIZE = 250
RE_SPAN = 1.0e5
DENSITY_RADII = "1,10,100,1000"
PHI_GRID = (-10.0, 0.1, 201)
EXPORT_K = 25_000
EXPORT_SHIFT = 1.0

# signal
HILBERT_N = 500_001
HILBERT_H = 0.001
HILBERT_K = 20  # factors of example2 in log|F|
BMO_N = 20_000
BMO_H = 0.01
BMO_LENGTHS = (0.04, 50.0)


@dataclass
class Job:
    """One CLI invocation; ``argv`` lacks ``--out``, which the runner adds."""

    name: str
    command: str
    argv: list[str]
    check: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    probe: str  # the smallest job, timed from interpreter start for setup_s
    inputs: dict = field(default_factory=dict)  # name -> {path, bytes, ...}
    params: dict = field(default_factory=dict)


def _write(path: Path, text: str) -> dict:
    path.write_text(text)
    return {"path": str(path), "bytes": path.stat().st_size}


def _sampled_text(t0: float, h: float, values: np.ndarray) -> str:
    """The package's sampled-CSV layout: header pins the grid, repr rows."""
    ts = t0 + h * np.arange(values.size)
    rows = [f"# t0={t0!r} h={h!r} n={values.size}", "t,value"]
    rows += [f"{t!r},{v!r}" for t, v in zip(ts.tolist(), values.tolist())]
    return "\n".join(rows) + "\n"


def zeroset_arrays(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Background zeros over a wide span plus a few planted dense clusters.

    One cluster sits inside the ``phi`` grid so the branch sum there has
    real jumps; the others sit far out, where only ``density`` sees them.
    """
    rng = np.random.default_rng([seed, 1])
    re = [rng.uniform(-RE_SPAN, RE_SPAN, BACKGROUND_ZEROS)]
    centers = [rng.uniform(-8.0, 8.0)] + list(
        rng.uniform(-0.9 * RE_SPAN, 0.9 * RE_SPAN, CLUSTERS - 1)
    )
    for c in centers:
        width = rng.uniform(0.2, 3.0)
        re.append(c + width * rng.random(CLUSTER_SIZE))
    re = np.concatenate(re)
    n = re.size
    im = rng.uniform(0.5, 2.0, n)
    mult = rng.choice(np.array([1, 2, 3]), size=n, p=[0.7, 0.2, 0.1])
    order = rng.permutation(n)
    return re[order], im[order], mult[order]


def example2_log_modulus(x: np.ndarray, k_max: int, shift: float) -> np.ndarray:
    """log|F| of the example-2 product with its zeros lifted by ``shift``.

    ``F`` is the product of ``cos[(pi/2)(3^-n + 3^-n^2) z]`` over
    ``n <= k_max``, and ``|cos(a + ib)|^2 = cos^2 a + sinh^2 b``.
    """
    total = np.zeros_like(x)
    for n in range(1, k_max + 1):
        c = 0.5 * math.pi * (3.0 ** (-n) + 3.0 ** (-n * n))
        total += 0.5 * np.log(np.cos(c * x) ** 2 + math.sinh(c * shift) ** 2)
    return total


def signal_arrays(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    shift = float(rng.uniform(0.9, 1.1))
    h_t0 = -250.0 + float(rng.uniform(0.0, 0.5))
    h_vals = example2_log_modulus(
        h_t0 + HILBERT_H * np.arange(HILBERT_N), HILBERT_K, shift
    )
    # log|t| with the grid offset off the singularity at 0
    b_t0 = -100.0 + BMO_H * float(rng.uniform(0.1, 0.9))
    b_vals = np.log(np.abs(b_t0 + BMO_H * np.arange(BMO_N)))
    return {
        "shift": shift,
        "hilbert": (h_t0, HILBERT_H, h_vals),
        "bmo": (b_t0, BMO_H, b_vals),
    }


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs under ``workdir`` and list its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "divergence":
        jobs = [
            Job(key, "verify-theorem", ["verify-theorem", *argv], {"kind": key})
            for key, argv in VERIFY_JOBS.items()
        ]
        r = seed % len(jobs)
        return Workload(name, jobs[r:] + jobs[:r], probe="verify_cluster")

    if name == "zeroset":
        re, im, mult = zeroset_arrays(seed)
        text = "".join(
            f"{x!r},{y!r},{m}\n" for x, y, m in zip(re.tolist(), im.tolist(), mult.tolist())
        )
        zinfo = _write(workdir / "zeros.csv", text)
        zinfo["zeros"] = int(re.size)
        zinfo["weight"] = int(mult.sum())
        t0, h, n = PHI_GRID
        zeros = {"re": re, "im": im, "mult": mult}
        jobs = [
            Job("export", "zoo", ["zoo", "--model", "sine", "--K", str(EXPORT_K),
                                  "--shift", repr(EXPORT_SHIFT)],
                {"K": EXPORT_K, "shift": EXPORT_SHIFT}),
            Job("density", "density", ["density", "--zeros", zinfo["path"],
                                       "--radii", DENSITY_RADII],
                {"zeros": zeros, "radii": [float(r) for r in DENSITY_RADII.split(",")]}),
            Job("phi", "phi", ["phi", "--zeros", zinfo["path"], f"--grid={t0!r}:{h!r}:{n}"],
                {"zeros": zeros, "grid": PHI_GRID, "seed": seed}),
        ]
        return Workload(name, jobs, probe="export", inputs={"zeros": zinfo})

    if name == "signal":
        sig = signal_arrays(seed)
        inputs = {}
        for key in ("hilbert", "bmo"):
            t0, h, vals = sig[key]
            inputs[key] = _write(workdir / f"{key}.csv", _sampled_text(t0, h, vals))
            inputs[key]["samples"] = int(vals.size)
        lo, hi = BMO_LENGTHS
        jobs = [
            Job("hilbert", "hilbert", ["hilbert", "--input", inputs["hilbert"]["path"]],
                {"signal": sig["hilbert"], "seed": seed}),
            Job("bmo", "bmo", ["bmo", "--input", inputs["bmo"]["path"],
                               "--lengths", f"{lo!r}:{hi!r}"],
                {"signal": sig["bmo"], "lengths": BMO_LENGTHS, "seed": seed}),
        ]
        return Workload(name, jobs, probe="hilbert", inputs=inputs,
                        params={"shift": sig["shift"]})

    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("divergence", "zeroset", "signal")
