"""Time one cold set-up of a workload in this fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the host seconds taken by `import stalesim`, parse_config and
build_experiment of the workload's config, then the host seconds of one
run of the reference kernel in the same process. run.py starts this
several times and reports the median ratio of the two, at kernel speed,
as setup_s.
"""

import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    text = workloads.config_text(sys.argv[1], int(sys.argv[2]))
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from stalesim.config import parse_config
    from stalesim.simulator import build_experiment

    build_experiment(parse_config(text))
    setup = time.perf_counter() - t0
    from reference import timed_kernel  # after the timing: it imports numpy

    timed_kernel()  # the first run pays for first calls into numpy
    print(repr(setup), repr(timed_kernel()))


if __name__ == "__main__":
    main()
