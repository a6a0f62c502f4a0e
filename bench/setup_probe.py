"""Set-up probe: a fresh interpreter imports disclab and builds one round
of a workload's inputs, then prints ``time.perf_counter()``.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

perf_counter reads the system-wide monotonic clock, so the caller
subtracts the time it took just before starting this process.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import disclab.cli  # noqa: E402,F401  (the import is what is measured)
import workloads  # noqa: E402

workloads.build_round(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter())
