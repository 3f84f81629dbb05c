"""End-to-end TPC-C crash-replay harness.

Runs a seeded TPC-C workload with a :class:`~repro.faults.plan.FaultPlan`
attached, survives whatever it injects, and proves it: after a power cut
the host's volatile state is discarded, the store rebuilds its mapping
from OOB metadata (:meth:`NoFTLStore.recover`), the persisted WAL tail is
re-discovered from the log tablespace, and a transactional replay against
a restored backup must reproduce a database that passes the TPC-C
consistency checks.

Durability assumptions (documented, deliberate): the catalog, tablespace
page maps and die-health table are metadata a production system keeps
checkpointed; the simulation reuses the in-process copies.  What is
treated as lost: the logical-to-physical mapping (rebuilt from OOB), the
buffer pool, and any WAL records not yet flushed to flash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.database import Database
from repro.db.wal import WAL_SPACE, WriteAheadLog, replay_log
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.tpcc.consistency import ConsistencyReport, check_consistency
from repro.tpcc.driver import Driver
from repro.tpcc.loader import load_database
from repro.tpcc.schema import ScaleConfig

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.placement import PlacementConfig
    from repro.flash.geometry import FlashGeometry
    from repro.flash.timing import TimingModel


@dataclass
class CrashHarnessResult:
    """Outcome of one harness run.

    Attributes:
        crashed: whether the plan's power cut fired during the run.
        transactions_executed: transactions completed before the cut.
        failed_dies: dies the source store lost and rebuilt around.
        recovery_scan_us: simulated time of the post-crash OOB scan.
        wal_records_replayed: redo records applied to the target.
        consistency: TPC-C consistency report of the replayed target.
        fault_snapshot: final ``faults.*`` counters of the run.
        source: the (crashed and recovered) database under test.
        target: the backup-restored database the WAL was replayed into.
    """

    crashed: bool
    transactions_executed: int
    failed_dies: list[int]
    recovery_scan_us: float
    wal_records_replayed: int
    consistency: ConsistencyReport
    fault_snapshot: dict[str, float] = field(default_factory=dict)
    source: Database | None = None
    target: Database | None = None


def _default_geometry() -> "FlashGeometry":
    from repro.flash.geometry import FlashGeometry

    return FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=48,
        pages_per_block=32,
        page_size=2048,
        oob_size=64,
        max_pe_cycles=1_000_000,
    )


def run_tpcc_crash_harness(
    plan: FaultPlan,
    *,
    geometry: "FlashGeometry | None" = None,
    placement: "PlacementConfig | None" = None,
    scale: ScaleConfig | None = None,
    num_transactions: int = 300,
    terminals: int = 4,
    seed: int = 21,
    timing: "TimingModel | None" = None,
    buffer_pages: int = 256,
) -> CrashHarnessResult:
    """Run TPC-C under ``plan``; crash, recover, replay, and verify.

    The injector is attached *after* load and backup, so the plan's
    operation numbers count from the start of the measured run — "power
    cut at operation N during a TPC-C run" means exactly that.
    """
    from repro.core.placement import traditional_placement
    from repro.flash.timing import instant_timing
    from repro.tpcc.schema import tiny_scale

    geometry = geometry if geometry is not None else _default_geometry()
    placement = placement if placement is not None else traditional_placement(geometry.dies)
    scale = scale if scale is not None else tiny_scale()
    timing = timing if timing is not None else instant_timing()

    def build() -> Database:
        return Database.on_native_flash(
            geometry=geometry,
            placement=placement,
            timing=timing,
            buffer_pages=buffer_pages,
        )

    # ------------------------------------------------------------------
    # Source: load (the backup point), start logging, run under faults
    # ------------------------------------------------------------------
    source = build()
    load_database(source, scale, seed=seed)
    source.enable_wal()
    injector = FaultInjector(plan)
    source.device.attach_fault_injector(injector)

    driver = Driver(source, scale, terminals=terminals, seed=seed)
    metrics = driver.run(num_transactions=num_transactions)
    crashed = driver.crashed
    # the plan's op schedule is defined against the measured run only —
    # recovery, flush and settlement traffic must not fire new faults
    injector.quiesce()

    # ------------------------------------------------------------------
    # Crash recovery on the source
    # ------------------------------------------------------------------
    t = source.now
    recovery_scan_us = 0.0
    if crashed:
        # host mapping, buffer pool and unflushed WAL buffer are gone;
        # rebuild the translation state from page metadata
        scan_end = source.store.recover(t)
        recovery_scan_us = scan_end - t
        t = scan_end
        # a transient read failure whose retry the cut aborted: the read
        # that would have succeeded, issued again by the recovered host
        interrupted = injector.interrupted_read()
        if interrupted is not None:
            __, __, t = source.device.read_page_packed(*interrupted, t)
            injector.stats.recovered_read_retry += 1
        ts = source.catalog.tablespace(f"ts_{WAL_SPACE}")
        wal = WriteAheadLog.for_recovery(source.backend, ts.space_id, at=t)
    else:
        t = source.wal.flush(t)
        wal = source.wal

    # ------------------------------------------------------------------
    # Settle die failures the workload never tripped over: a die killed
    # after its region's last write stays injected-but-unretired, which
    # would leave the accounting identity open.  The rebuild is the same
    # one a write would have triggered; settling an already-rebuilt die
    # is a no-op, and a rebuild the power cut interrupted resumes.
    # ------------------------------------------------------------------
    for die in sorted(injector.dead_dies):
        for region in source.store.regions():
            if die in region.engine.books:
                t = region.retire_failed_die(die, t)
    # a wear-out whose carrying erase was aborted by a simultaneous
    # crash/die failure would dangle injected-but-unretired — land it
    injector.settle_pending_wearout(source.device)
    # likewise a grown-bad retirement whose salvage was interrupted: after
    # a power cut the recovered engine finishes it (salvage, mark bad,
    # count once); after a die failure the rebuild already moved the live
    # pages off the die, so the block only needs recording
    for die, block in injector.unretired_program_faults(source.device):
        owner = next(
            (r for r in source.store.regions() if die in r.engine.books), None
        )
        if owner is not None:
            t = owner.engine.retire_grown_bad_block(die, block, t)
        else:
            source.device.dies[die].mark_bad(block)
            injector.stats.retired_grown_bad_blocks += 1

    # ------------------------------------------------------------------
    # Target: restore the backup and replay the surviving log tail
    # ------------------------------------------------------------------
    target = build()
    load_database(target, scale, seed=seed)
    applied, __ = replay_log(target, wal, t, transactional=True)
    report = check_consistency(target)

    injector.stats.replayed_records += applied
    if crashed:
        injector.stats.recovered_crash_replay += 1

    return CrashHarnessResult(
        crashed=crashed,
        transactions_executed=metrics.transactions,
        failed_dies=source.store.failed_dies(),
        recovery_scan_us=recovery_scan_us,
        wal_records_replayed=applied,
        consistency=report,
        fault_snapshot=injector.stats.snapshot(),
        source=source,
        target=target,
    )
