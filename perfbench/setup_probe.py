"""Print the set-up time of one fresh process: import the package and build
a workload's inputs, in seconds at reference speed (see ``clock.py``).

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` checks that the library source exists before it starts this.
Only ``os``, ``sys`` and ``time`` are imported before the timed region, so
the standard-library modules the package pulls in count as its import cost.
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import workloads  # noqa: E402  (imports the package)

workloads.build(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - start

import clock  # noqa: E402

print(clock.scale(elapsed, clock.reference_speed(25)))
