"""Set-up probe: import mirrorwave and build one workload's inputs, then say so.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` starts it several times and times each from process start to
the ``ready`` line; the probe exits right after printing it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports mirrorwave)

WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT, ROOT / ".perfbench")
print("ready", flush=True)
