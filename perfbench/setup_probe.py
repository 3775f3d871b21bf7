"""Time one set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing every equimorse module plus building the inputs of the
workload's first solve at SEED.  run.py starts this several times and
reports the median as setup_s.
"""
import sys
import time

start = time.perf_counter()

import run  # noqa: E402  (sits next to this file)

run.import_package()
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].make(int(sys.argv[2]), 0)
print(time.perf_counter() - start)
