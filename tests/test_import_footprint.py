"""Importing the package does not load the process-pool machinery.

``multiprocessing`` and ``concurrent.futures`` (~2 MiB of modules) are
used by ``run_cells(..., shards > 1)`` only, so they are imported on the
first sharded call.  A fresh interpreter is the only place to see what an
import pulls in: the test process itself has long since loaded both.
``tests/bench/test_sharding.py`` covers the sharded path.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.cli, repro.bench, repro.obs.export, repro.faults.chaos
from repro.bench import ShardCell, run_cells
assert run_cells([ShardCell("a", int, ("1",)), ShardCell("b", int, ("2",))]) == [1, 2]
pool = ("multiprocessing", "concurrent")
print(sorted(m for m in sys.modules if m.split(".")[0] in pool))
"""


def test_import_and_sequential_run_load_no_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
