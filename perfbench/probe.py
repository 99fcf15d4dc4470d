"""Set-up probe: a fresh interpreter that imports the CLI and runs one job.

Usage: ``python3 perfbench/probe.py SRC_DIR ARGV...``

The caller times from spawning this process to reading the ``done`` line,
which is printed right after the job, so the time covers interpreter start,
the import and the first call.  The line carries the import time measured
here and the job's exit code.
"""

import sys
from time import perf_counter

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    t0 = perf_counter()
    import stripzeros.cli as cli

    t1 = perf_counter()
    rc = cli.main(sys.argv[2:])
    print(f"done {t1 - t0!r} {rc}", flush=True)
