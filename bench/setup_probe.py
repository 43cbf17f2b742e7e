"""One fresh-interpreter set-up of a workload: import the library, parse the
workload's presets, run one warm-up operation.  run.py times this process.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).warmup()
