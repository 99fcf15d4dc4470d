"""Smoke test of the benchmark itself: ``python3 perfbench/run.py --smoke``.

For every workload it runs one traced cycle (plus the warm-up and one
set-up probe), then asserts that

* every output passed its check,
* every metric named in ``BENCHMARK.json`` is reported with its unit,
* the self times of the spans add up to the traced job time,
* every check rejects a deliberately corrupted copy of a real output.

Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil

import checks
import run
import workloads


def _edit_rows(text: str, edit, first_only: bool = False, header: bool = True) -> str:
    """Apply ``edit`` to the fields of every data row (or only the first)."""
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    data = data[1:] if header else data
    for k in data[:1] if first_only else data:
        lines[k] = ",".join(edit(lines[k].split(",")))
    return "\n".join(lines) + "\n"


def _scale_values(text: str, factor: float) -> str:
    header, ts, vals = checks.parse_sampled(text)
    rows = [f"# t0={header['t0']} h={header['h']} n={header['n']}", "t,value"]
    rows += [f"{t!r},{v!r}" for t, v in zip(ts.tolist(), (vals * factor).tolist())]
    return "\n".join(rows) + "\n"


# one plausible defect per command, each small enough to need the oracle
CORRUPT = {
    "zoo": lambda t: _edit_rows(t, lambda f: [repr(float(f[0]) + 0.5), *f[1:]],
                                first_only=True, header=False),
    "density": lambda t: _edit_rows(t, lambda f: [f[0], str(int(f[1]) + 1), *f[2:]],
                                    first_only=True),
    "phi": lambda t: _edit_rows(t, lambda f: [f[0], repr(float(f[1]) + 1e-6), f[2]]),
    "hilbert": lambda t: _scale_values(t, 1 + 1e-6),
    "bmo": lambda t: _edit_rows(t, lambda f: [*f[:3], repr(float(f[3]) * 0.999)]),
    "verify-theorem": lambda t: _edit_rows(t, lambda f: [f[0], repr(float(f[1]) / 2), *f[2:]]),
}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    work = run.ROOT / ".bench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            workdir = work / name
            rec = run.measure(name, 1, 0.0, True, workdir, n_probes=1)
            print("\n".join(run.report_lines(rec)))
            failures += [f"{name}: {p}" for p in rec["problems"]]
            got_e2e = {k: run.END_TO_END[k] for k in rec["end_to_end"]}
            got_layer = {k: run.PER_LAYER[k] for k in rec["per_layer"]}
            if got_e2e != want_e2e:
                failures.append(f"{name}: end-to-end metrics {got_e2e} != {want_e2e}")
            if got_layer != want_layer:
                failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got_layer) ^ set(want_layer))}")
            if abs(rec["coverage"] - 1.0) > 0.01:
                failures.append(f"{name}: span self times cover {rec['coverage']:.4f} "
                                "of the traced job time")
            wl = workloads.build(name, 1, workdir / "in")
            for job in wl.jobs:
                text = next((workdir / "out").glob(f"*u-{job.name}.csv")).read_text()
                bad = CORRUPT[job.command](text)
                if bad == text or not checks.check_job(job, bad):
                    failures.append(f"{name}: check of {job.name} accepts a corrupted output")
                else:
                    print(f"# smoke {name} {job.name}: corrupted output rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"# smoke FAIL {f}")
    print(f"# smoke {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
