"""Simulation output must not depend on ``PYTHONHASHSEED``.

``determinism.set-iteration`` and ``determinism.unseeded-random`` catch
the syntactic shapes (a set iterated in place, a ``hash()``-built seed).
Hash-order dependence that arrives through a helper, a dict of sets or a
third-party call is only visible at run time: the same command under two
hash seeds must print the same bytes.  The CI jobs that compare documents
pin ``PYTHONHASHSEED=0``, so this is the one place the contract is
exercised.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    ["hotcold", "--writes", "3000", "--json"],
    ["chaos", "--plans", "2", "--transactions", "40", "--json"],
]


def _stdout(command: list[str], hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "repro", *command],
        env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
def test_json_document_is_identical_across_hash_seeds(command):
    assert _stdout(command, "0") == _stdout(command, "777")
