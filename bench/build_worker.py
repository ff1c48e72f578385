"""The timed part of one untraced run, in a process that holds only lightspan.

    python3 bench/build_worker.py <path to src> <workload as JSON> <seed> <seconds>

Alternates cold set-ups (setup_probe.py, each its own process) with builds
of the run's instances, round-robin, so that both are sampled across the
whole run rather than in one burst.  It stops when the next set-ups and
build would end past `seconds`, once each instance is built.  Writes to
stdout one pickled record per measurement: ("setup", seconds) and
("build", instance, seconds, result or None), None when the build raised,
and last ("peak_rss_mb", value).  The output check runs in the calling
process, so its numpy and scipy are not in this peak, and the set-up
processes are children, so theirs is not either.
"""

import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SRC = sys.argv[1]
sys.path.insert(0, SRC)

from workloads import Workload  # noqa: E402  (imports lightspan)

SETUPS_PER_BUILD = 2
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def setup_once(spec: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(PROBE), SRC, spec, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def main() -> None:
    spec, seed, seconds = sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    workload = Workload(**json.loads(spec))
    instances = workload.instances(seed)
    out = sys.stdout.buffer
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    times: list[float] = []
    attempted = 0
    while True:
        for _ in range(SETUPS_PER_BUILD):
            setups.append(setup_once(spec, seed))
            pickle.dump(("setup", setups[-1]), out)
        j = attempted % len(instances)
        attempted += 1
        t0 = time.perf_counter()
        try:
            res = workload.build(instances[j])
        except Exception:  # a raising build is a counted failure, not a crash
            res = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        pickle.dump(("build", j, elapsed, res), out)
        del res  # not alive during the next build, so not in its memory peak
        step = statistics.median(times) + SETUPS_PER_BUILD * statistics.median(setups)
        if attempted >= len(instances) and time.perf_counter() + step > deadline:
            break
    # ru_maxrss is KiB on Linux
    pickle.dump(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0), out)
    out.flush()


if __name__ == "__main__":
    main()
