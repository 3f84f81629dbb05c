"""End-to-end robustness: TPC-C under faults, crash, recover, replay.

The acceptance scenario from the issue: a seeded TPC-C run that loses a
whole die mid-run AND hits a crash-point power cut must complete the
degraded-mode rebuild, rebuild its mapping from OOB metadata, replay the
surviving WAL tail transactionally into a restored backup, and pass the
TPC-C consistency checks — with the fault accounting identity closed and
bit-identical counters across same-seed reruns.

These runs execute a few hundred transactions each; module-scoped
fixtures keep the suite to two full harness executions.
"""

import os

import pytest

from repro.faults import FaultPlan, FaultSpec, run_tpcc_crash_harness

#: CI's fault-matrix job sweeps this over several injector seeds; every
#: assertion below is seed-independent (the die kill and the power cut
#: are at_op-scheduled, and the accounting identity holds for any seed).
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "7"))

#: ~2900 injectable device commands flow in 300 tiny-scale transactions
#: on the harness's default 16-die geometry; the die dies about a third
#: of the way in, the power cut lands about three quarters of the way.
CRASH_PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="read_transient", probability=0.002, count=20, retries=2),
        FaultSpec(kind="program_fail", probability=0.0005, count=3),
        FaultSpec(kind="die_fail", at_op=1000, die=5),
        FaultSpec(kind="power_cut", at_op=2200),
    ),
    seed=FAULT_SEED,
)


@pytest.fixture(scope="module")
def crash_result():
    return run_tpcc_crash_harness(CRASH_PLAN, num_transactions=300, seed=21)


class TestCrashReplayHarness:
    def test_power_cut_fires_and_run_crashes(self, crash_result):
        assert crash_result.crashed
        assert 0 < crash_result.transactions_executed < 300

    def test_die_failure_rebuilds_degraded(self, crash_result):
        assert crash_result.failed_dies == [5]
        assert crash_result.source.store.degraded
        report = crash_result.source.store.capacity_report()
        assert report["degraded"] is True
        assert report["failed_dies"] == [5]

    def test_wal_replay_restores_consistency(self, crash_result):
        # the replayed target is the verified artifact — the crashed
        # source lost its buffer pool and unflushed pages by design
        assert crash_result.wal_records_replayed > 0
        assert crash_result.consistency.ok, crash_result.consistency

    def test_fault_accounting_closes(self, crash_result):
        snap = crash_result.fault_snapshot
        assert snap["injected.total"] > 0
        assert snap["injected.total"] == snap["recovered.total"] + snap["retired.total"]
        assert snap["injected.die_fail"] == 1.0
        assert snap["injected.power_cut"] == 1.0
        assert snap["recovered.crash_replay"] == 1.0
        assert snap["retired.die"] == 1.0
        assert snap["work.rebuild_relocations"] > 0
        assert snap["work.replayed_records"] == float(crash_result.wal_records_replayed)

    def test_same_seed_reproduces_identical_counters(self, crash_result):
        again = run_tpcc_crash_harness(CRASH_PLAN, num_transactions=300, seed=21)
        assert again.fault_snapshot == crash_result.fault_snapshot
        assert again.transactions_executed == crash_result.transactions_executed
        assert again.wal_records_replayed == crash_result.wal_records_replayed
        assert again.failed_dies == crash_result.failed_dies


class TestNoCrashPath:
    def test_fault_free_plan_flushes_and_replays_clean(self):
        result = run_tpcc_crash_harness(
            FaultPlan(), num_transactions=60, seed=21, terminals=2
        )
        assert not result.crashed
        assert result.transactions_executed == 60
        assert result.failed_dies == []
        assert result.wal_records_replayed > 0
        assert result.consistency.ok
        snap = result.fault_snapshot
        assert snap["injected.total"] == 0.0
        assert snap["recovered.total"] == 0.0
        assert snap["retired.total"] == 0.0


class TestInterruptedGrownBadRetirement:
    def test_die_failure_inside_a_program_fault_salvage_closes_accounting(self):
        """The die dies two device ops into the salvage of its own
        program-failed block: the region rebuilds around the die, and
        settlement still records the block's retirement exactly once."""
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="program_fail", at_op=100),
                FaultSpec(kind="die_fail", at_op=102),
            ),
            seed=FAULT_SEED,
        )
        result = run_tpcc_crash_harness(plan, num_transactions=60, seed=21)
        snap = result.fault_snapshot
        assert len(result.failed_dies) == 1
        assert snap["injected.program_fail"] == 1.0
        assert snap["retired.grown_bad_block"] == 1.0
        assert snap["retired.die"] == 1.0
        assert snap["injected.total"] == snap["recovered.total"] + snap["retired.total"]
        result.source.store.check_consistency()
