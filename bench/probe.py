"""Set-up probe: a fresh interpreter imports the library and runs one small op.

``run.py`` times this whole process, start to exit, as one ``setup_s``
sample. Usage: ``python3 bench/probe.py WORKLOAD``.
"""

import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import kantorovich  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        workload = WORKLOADS[sys.argv[1]](Path(workdir))
        workload.run(workload.warmup_inputs())
