"""Benchmark of the stripzeros command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py`` for why each exists): ``divergence``,
``zeroset`` and ``signal``.  Each is a cycle of CLI jobs run in-process by
one closed-loop client in a child process (``worker.py``), with BLAS and
OpenMP pinned to one thread.  Inputs are generated from the seed before
anything is timed, and every job's output is checked afterwards against
the oracles in ``checks.py``.

Every time is reported in reference seconds: the measured seconds scaled
by how much slower than usual a fixed calibration loop ran right next to
the measurement (``calib.py``), which cancels the drift of a shared
host's speed.  The raw seconds are printed and recorded too.

``--trace 0`` prints the end-to-end metrics:

* ``jobs_per_s``: jobs completed per second of job time.
* ``cycle_s``: seconds to run the workload's cycle of jobs once, as the
  sum over its jobs of each job's median time.
* ``setup_s``: median over fresh interpreters of the time from spawning
  one to the end of the workload's smallest job (``probe.py``), so work
  moved from import into first use still shows.
* ``peak_rss_mb``: peak RSS of the process that ran the jobs.

``--trace 1`` alternates untraced and traced cycles (``spans.py``) over
the seconds and prints the per-layer metrics: self seconds and counts
per cycle for each wrapped function, the set-up split, the median seconds
per job of each CLI command (0 where the workload does not run it), the
failed fraction and the tracing overhead.

The last line of standard output is the JSON result; the lines before it
give every metric with its unit and sample count, the environment, the
input sizes and a digest of the outputs.  A copy of the full record goes
to ``.bench_work/results/``.  Exit status is 0 whenever a result is
printed (``correct`` says whether all outputs passed) and 2 when the
checkout holds no ``src/stripzeros`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from calib import REF_S, Calibration  # noqa: E402
import workloads  # noqa: E402

PROBES = 3  # fresh interpreters per run for setup_s (and setup.import_s)
DEADLINE_S = 170.0

END_TO_END = {"jobs_per_s": "1/s", "cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = {"verify-theorem": "verify_s", "density": "density_s", "phi": "phi_s",
                   "zoo": "export_s", "hilbert": "hilbert_s", "bmo": "bmo_s"}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("frac"):
        return "frac"
    return "count"


PER_LAYER = {name: _unit(name) for name in [
    "setup.import_s", "setup.scipy_import_s",
    *spans.TIME_METRICS, *spans.COUNT_METRICS, *(r for r, _, _ in spans.RATES),
    *COMMAND_METRICS.values(), "failed_frac", "trace.overhead_frac",
]}


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def probe(job: workloads.Job, out: Path, calib: Calibration, importtime: bool = False) -> dict:
    """Time one fresh interpreter from spawn to the end of ``job``.

    The calibration loop runs in this process right before and after.  The
    probe's stderr (with ``-X importtime``, the import log) goes to
    ``out`` with the suffix ``.err``.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else [])]
    cmd += [str(HERE / "probe.py"), str(SRC), *job.argv, "--out", str(out)]
    err_path = out.with_suffix(".err")
    before = calib.measure(0.1)
    with open(err_path, "w") as err:
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate()
    rec = {"name": job.name, "command": job.command, "out": str(out), "seconds": elapsed,
           "calib": (before + calib.measure(0.1)) / 2, "rc": proc.returncode or -1, "import_s": 0.0,
           "stderr": err_path.read_text()[-2000:], "err_path": str(err_path)}
    parts = line.split()
    if proc.returncode == 0 and len(parts) == 3 and parts[0] == "done":
        rec["rc"], rec["import_s"] = int(parts[2]), float(parts[1])
    return rec


def ref_s(rec: dict, key: str = "seconds") -> float:
    """A measured time in reference seconds (see ``calib.py``)."""
    return rec[key] * REF_S / rec["calib"]


def scipy_share(importtime: Path) -> float:
    """Share of ``import stripzeros.cli`` spent in ``scipy`` modules.

    From a ``-X importtime`` log: self time of every ``scipy`` module over
    the cumulative time of the top-level ``stripzeros`` imports.  The log's
    own overhead inflates both, so only their ratio is used.
    """
    scipy_us = total_us = 0
    for line in importtime.read_text().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        if name.strip() == "scipy" or name.strip().startswith("scipy."):
            scipy_us += int(fields[0])
        if name.startswith(" stripzeros"):
            total_us += int(fields[1])
    return scipy_us / total_us if total_us else 0.0


def check_outputs(wl: workloads.Workload, records: list[dict]) -> tuple[list[str], dict]:
    """Check every record's output; identical bytes are checked once."""
    by_name = {j.name: j for j in wl.jobs}
    verdicts: dict[str, list[str]] = {}
    digests: dict[str, set] = {}
    controls = []
    problems = []
    for rec in records:
        job = by_name[rec["name"]]
        if rec["rc"] != 0:
            rec["problems"] = [f"exit code {rec['rc']}: {rec.get('stderr', '').strip()[-300:]}"]
        else:
            try:
                data = Path(rec["out"]).read_bytes()
            except OSError as exc:
                data, rec["problems"] = None, [f"no output: {exc}"]
            if data is not None:
                digest = hashlib.sha256(data).hexdigest()
                digests.setdefault(job.name, set()).add(digest)
                if digest not in verdicts:
                    text = data.decode()
                    try:
                        verdicts[digest] = checks.check_job(job, text)
                    except (ValueError, IndexError, KeyError) as exc:
                        verdicts[digest] = [f"malformed output: {exc!r}"]
                    if job.command == "verify-theorem" and not verdicts[digest]:
                        controls.append(checks.parse_verify(text)[1])
                rec["problems"] = verdicts[digest]
        problems += [f"{rec['name']}: {p}" for p in rec["problems"]]
    problems += checks.check_controls(controls)
    summary = hashlib.sha256(
        "".join(f"{n}:{d}\n" for n in sorted(digests) for d in sorted(digests[n])).encode()
    ).hexdigest()
    return problems, {"workload": summary, "jobs": {n: sorted(d) for n, d in digests.items()}}


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            n_probes: int | None = None) -> dict:
    """Generate, set up, run, check; returns the full record of the run."""
    start = perf_counter()
    env = environment()
    wl = workloads.build(name, seed, workdir / "in")
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(SRC / "stripzeros"), quiet=1)
    probe_job = next(j for j in wl.jobs if j.name == wl.probe)

    n_probes = n_probes or PROBES
    calib = Calibration()
    probes = [probe(probe_job, outdir / f"p{i}-{probe_job.name}.csv", calib)
              for i in range(n_probes)]
    share = 0.0
    if trace:
        probes.append(probe(probe_job, outdir / f"p{n_probes}-{probe_job.name}.csv", calib,
                            importtime=True))
        share = scipy_share(Path(probes[-1]["err_path"]))

    spec = {"root": str(ROOT), "outdir": str(outdir), "seconds": seconds, "trace": trace,
            "jobs": [{"name": j.name, "command": j.command, "argv": j.argv} for j in wl.jobs]}
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    budget = max(DEADLINE_S - (perf_counter() - start), 10.0)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                   check=True, timeout=budget)
    result = json.loads(result_path.read_text())
    records = result["records"]
    every = probes + records
    problems, digest = check_outputs(wl, every)
    attempted = len(every)
    failed = sum(1 for r in every if r["problems"])

    per_cycle = len(wl.jobs)
    plain = [r for r in records if r["phase"] == "u"]

    def cycle(recs: list[dict], value) -> float:
        """Sum over the cycle's jobs of each job's median time."""
        return sum(statistics.median(value(r) for r in recs if r["name"] == j.name)
                   for j in wl.jobs)

    n_plain = len(plain) // per_cycle
    e2e = {
        "jobs_per_s": (len(plain) / sum(map(ref_s, plain)), len(plain)),
        "cycle_s": (cycle(plain, ref_s), n_plain),
        "setup_s": (statistics.median(map(ref_s, probes[:n_probes])), n_probes),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    raw = {
        "jobs_per_s": len(plain) / sum(r["seconds"] for r in plain),
        "cycle_s": cycle(plain, lambda r: r["seconds"]),
        "setup_s": statistics.median(p["seconds"] for p in probes[:n_probes]),
        "calib_s": statistics.median(r["calib"] for r in probes + records),
    }
    layers = {}
    coverage = None
    if trace:
        traced = [r for r in records if r["phase"] == "t"]
        n_cycles = len(traced) // per_cycle
        scale = REF_S / statistics.median(r["calib"] for r in traced)
        totals = result["layers"]
        for key in spans.TIME_METRICS:
            layers[key] = (totals[key] * scale / n_cycles, n_cycles)
        for key in spans.COUNT_METRICS:
            layers[key] = (totals[key] / n_cycles, n_cycles)
        for rate, count, time in spans.RATES:
            layers[rate] = (layers[count][0] / layers[time][0] if layers[time][0] else 0.0,
                            n_cycles)
        import_s = statistics.median(ref_s(p, "import_s") for p in probes[:n_probes])
        layers["setup.import_s"] = (import_s, n_probes)
        layers["setup.scipy_import_s"] = (share * import_s, n_probes)
        layers["trace.overhead_frac"] = (
            sum(map(ref_s, traced)) / sum(map(ref_s, plain)) - 1.0, len(traced))
        for command, metric in COMMAND_METRICS.items():
            times = [ref_s(r) for r in plain if r["command"] == command]
            layers[metric] = (statistics.median(times) if times else 0.0, len(times))
        layers["failed_frac"] = (failed / attempted, attempted)
        coverage = (sum(totals[m] for m in spans.TIME_METRICS)
                    / sum(r["seconds"] for r in traced))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "inputs": {k: {kk: vv for kk, vv in v.items() if kk != "path"}
                   for k, v in wl.inputs.items()},
        "params": wl.params, "jobs": [j.argv for j in wl.jobs],
        "digest": digest, "problems": problems[:50],
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "raw": raw, "per_layer": layers, "coverage": coverage,
        "records": [{k: r[k] for k in ("name", "phase", "seconds", "calib", "rc")
                     if k in r} for r in every],
        "wall_s": perf_counter() - start,
    }


def report_lines(rec: dict) -> list[str]:
    lines = [f"# workload {rec['workload']} seed {rec['seed']} seconds {rec['seconds']} "
             f"trace {rec['trace']}",
             f"# environment {json.dumps(rec['environment'])}",
             f"# inputs {json.dumps(rec['inputs'])} params {json.dumps(rec['params'])}",
             f"# digest {rec['digest']['workload']}",
             f"# span self times / traced job time {rec['coverage']!r}",
             f"# raw seconds, before scaling by the calibration loop {json.dumps(rec['raw'])}",
             f"# failed_frac {rec['failed'] / rec['attempted']!r} frac "
             f"({rec['failed']} of {rec['attempted']} jobs)"]
    for table, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for key, (value, n) in rec[table].items():
            lines.append(f"# {table} {key} {value!r} {units[key]} (n={n})")
    lines += [f"# problem {p}" for p in rec["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle per workload, metric names, corrupted outputs")
    args = parser.parse_args(argv)
    if not (SRC / "stripzeros" / "cli.py").is_file():
        print(f"no package to measure: {SRC / 'stripzeros'} is missing", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke

        return smoke.main()
    if args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        rec = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (work / "results").mkdir(parents=True, exist_ok=True)
    (work / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(rec, indent=1))
    print("\n".join(report_lines(rec)))
    table, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    print(json.dumps({
        "correct": not rec["problems"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": rec[table][k][0], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
