"""Shared benchmark configuration.

``REPRO_BENCH_MODE`` selects the scale, and this file is the only place
that reads it:

* ``quick`` (default) — seconds-scale run that still shows every effect's
  direction; used in CI.
* ``full``  — the paper-scale calibration used for EXPERIMENTS.md numbers.

A catalogue-driven script picks its experiment with
``f"<experiment>.{bench_mode()}"`` (see ``repro.bench.catalogue``); the
mode selects an id, it does not branch on sizes.
"""

import os

import pytest


def bench_mode() -> str:
    mode = os.environ.get("REPRO_BENCH_MODE", "quick")
    if mode not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_MODE must be quick|full, got {mode!r}")
    return mode


@pytest.fixture(scope="session")
def mode() -> str:
    return bench_mode()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    These are simulation experiments (deterministic given the seed), so a
    single round measures wall-clock cost without re-running a multi-minute
    simulation five times.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
