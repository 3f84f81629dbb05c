"""Storage stacks are freed by reference counting the moment they are dropped.

Every reference inside a stack runs one way — database -> buffer pool ->
backend -> store -> regions -> engines -> bookkeeping / device -> dies —
so a dropped ``Database``, ``NoFTLStore`` or FTL is freed at once, not by
a later pass of the cyclic collector.  Peak memory then follows what is
alive, not collector cadence, and a stack can be pickled or forked as a
plain value.

Each scenario below builds, loads, runs and drops a stack with the
collector disabled.  Whatever it leaves behind for the collector is
reference-cycle garbage; with ``gc.DEBUG_SAVEALL`` the final collection
keeps it in ``gc.garbage`` for inspection, and no object of a ``repro``
type may be there.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench import (
    experiment,
    run_ftl_synthetic,
    run_noftl_synthetic,
    synthetic_experiment,
    tpcc_experiment,
)
from repro.core import traditional_placement
from repro.faults import FaultPlan, FaultSpec, run_tpcc_crash_harness
from repro.tpcc import Driver, load_database, tiny_scale


def _tpcc_cell(derived: bool) -> None:
    """A ``fig3.quick``-shaped cell on native flash at tiny scale, WAL on."""
    config = replace(
        tpcc_experiment("fig3.quick"), scale=tiny_scale(), num_transactions=60, buffer_pages=64
    )
    if derived:
        placement = experiment.derive_method_placement(config, 60, profile_transactions=30)
        experiment._parked = None  # drop the paused profiling stack too
    else:
        placement = traditional_placement(64)
    config = replace(config, placement=placement)
    db = experiment.build_database(config)
    load_database(db, config.scale, seed=config.seed)
    db.enable_wal()
    Driver(db, config.scale, terminals=4, seed=config.seed).run(num_transactions=60)


def _crash_harness() -> None:
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="read_transient", probability=0.01, count=5, retries=2),
            FaultSpec(kind="die_fail", at_op=150, die=5),
            FaultSpec(kind="power_cut", at_op=400),
        ),
        seed=3,
    )
    result = run_tpcc_crash_harness(plan, num_transactions=60, seed=21)
    assert result.crashed and result.failed_dies == [5]


_SMALL_FTL = replace(synthetic_experiment("ftl.quick"), writes=2000)

SCENARIOS = {
    "tpcc-traditional-wal": lambda: _tpcc_cell(derived=False),
    "tpcc-derived-wal": lambda: _tpcc_cell(derived=True),
    "crash-harness": _crash_harness,
    "noftl-synthetic": lambda: run_noftl_synthetic(
        replace(synthetic_experiment("hotcold.quick"), writes=2000), True
    ),
    "ftl-page": lambda: run_ftl_synthetic(_SMALL_FTL, "page"),
    "ftl-dftl": lambda: run_ftl_synthetic(_SMALL_FTL, "dftl", cmt_entries=64),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_dropped_stack_leaves_no_cyclic_garbage(scenario):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        SCENARIOS[scenario]()
        gc.collect()
        leaked = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not leaked, f"reference cycles kept alive: {leaked.most_common(10)}"
