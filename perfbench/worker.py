"""Closed-loop job runner: one client, one job at a time, one process.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``

The spec lists the cycle of jobs (argv without ``--out``), the output
directory and the seconds to measure.  One warm-up cycle runs first (lazy
set-up inside the package, the page cache of the inputs; ``setup_s``
measures the cold start separately).  Then whole cycles run until the
summed job time reaches the target, so every job of the cycle is equally
represented.

Each job is ``stripzeros.cli.main(argv + ["--out", path])`` with stderr
captured; its wall time covers argv parsing, compute and the CSV write.
The calibration loop (``calib.py``) runs after each job, outside the
job's time, for a tenth of it; a job is scaled by the mean of the
calibrations right before and right after it.  With ``trace`` set,
untraced and traced cycles alternate over the seconds, so the two see the
same machine and their ratio is the tracing overhead; the traced cycles
give the per-layer totals.  The result file holds one record per job,
tagged with its phase (``w``, ``u``, ``t``), and the peak RSS of this
process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calib import Calibration


def run_cycle(cli, calib, jobs, outdir: Path, phase: str, records: list[dict],
              tracer=None) -> float:
    """Run every job once, appending their records; returns the job time."""
    busy = 0.0
    for job in jobs:
        out = outdir / f"{len(records):05d}{phase}-{job['name']}.csv"
        argv = job["argv"] + ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(argv) if tracer is None else tracer.run_job(cli.main, argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crashing job is a failed job, not a failed run
                traceback.print_exc()
                rc = -1
            dt = perf_counter() - t0
        busy += dt
        records.append({"name": job["name"], "command": job["command"], "phase": phase,
                        "seconds": dt, "calib": calib.around(dt), "rc": rc, "out": str(out),
                        "stderr": err.getvalue()[-2000:]})
        if tracer is not None and out.exists():
            tracer.counts["cli.bytes_out"] += out.stat().st_size
    return busy


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import stripzeros.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"stripzeros imported from {cli.__file__}, not from {src}")
    outdir = Path(spec["outdir"])
    jobs = spec["jobs"]
    calib = Calibration()
    calib.around(0.0)
    records: list[dict] = []
    result: dict = {"records": records}
    run_cycle(cli, calib, jobs, outdir, "w", records)
    busy = 0.0
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        while busy == 0.0 or busy < spec["seconds"] / 2:
            busy += run_cycle(cli, calib, jobs, outdir, "u", records)
            tracer.install()
            try:
                run_cycle(cli, calib, jobs, outdir, "t", records, tracer)
            finally:
                tracer.uninstall()
        result["layers"] = tracer.totals()
    else:
        while busy == 0.0 or busy < spec["seconds"]:
            busy += run_cycle(cli, calib, jobs, outdir, "u", records)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
