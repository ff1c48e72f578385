"""Time one cold set-up: import lightspan and generate a run's seeded instances.

Run as a fresh process so the import is not cached:
    python3 bench/setup_probe.py <path to src> <workload as JSON> <seed>
Prints the elapsed seconds.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from workloads import Workload  # noqa: E402  (imports lightspan)

Workload(**json.loads(sys.argv[2])).instances(int(sys.argv[3]))
print(time.perf_counter() - t0)
