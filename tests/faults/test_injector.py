"""Engine-level fault injection: retry, scrub, grown-bad, wear-out.

Each test builds a small single-die (or few-die) engine, fills it with
known data, attaches a :class:`FaultInjector` *after* the fill (so plan
operation numbers count from the faulted phase) and asserts both the
recovery outcome and the ``faults.*`` accounting identity:
``injected.total == recovered.total + retired.total``.
"""

import os

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.flash.errors import PowerCutError, ProgramFaultError
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats
from repro.mapping.blockinfo import BlockState


def make_engine(dies=1, blocks_per_plane=12, pages_per_block=8, **engine_kwargs):
    geometry = FlashGeometry(
        channels=max(1, min(2, dies)),
        chips_per_channel=max(1, dies // max(1, min(2, dies))),
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=128,
        oob_size=16,
        max_pe_cycles=1_000_000,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    die_list = list(range(dies))
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in die_list
    }
    engine = FlashSpaceEngine(device, die_list, books, ManagementStats(), **engine_kwargs)
    return engine


def attach(engine, *specs, seed=0):
    injector = FaultInjector(FaultPlan(specs=tuple(specs), seed=seed))
    engine.device.attach_fault_injector(injector)
    return injector


def fill(engine, count, tag=0):
    payloads = {}
    t = 0.0
    for key in range(count):
        payload = bytes([key % 256, tag])
        t = engine.write(key, payload, at=t)
        payloads[key] = payload
    return payloads, t


def commands(device):
    """Injectable commands the device has executed."""
    stats = device.stats
    return stats.reads + stats.programs + stats.copybacks + stats.erases


class FaultLog(FaultInjector):
    """Notes the op number of every command it fails with a program fault."""

    def __init__(self, plan):
        super().__init__(plan)
        self.faulted_ops = []

    def on_command(self, *args):
        try:
            super().on_command(*args)
        except ProgramFaultError:
            self.faulted_ops.append(self.op_number)
            raise


def block_of(engine, key):
    packed = engine._map[key]
    per_die = engine.geometry.pages_per_die
    per_block = engine.geometry.pages_per_block
    return (packed // per_die, (packed % per_die) // per_block)


class TestReadRetry:
    def test_transient_read_recovers_and_scrubs_full_block(self):
        engine = make_engine()
        per_block = engine.geometry.pages_per_block
        payloads, t = fill(engine, per_block)  # block 0 is FULL, all valid
        injector = attach(
            engine, FaultSpec(kind="read_transient", at_op=1, retries=2)
        )
        die, block = block_of(engine, 0)
        data, t = engine.read(0, at=t)
        assert data == payloads[0]
        stats = injector.stats
        assert stats.injected_read_transient == 1
        assert stats.recovered_read_retry == 1
        assert stats.read_retry_attempts == 2  # initial failure + one failed retry
        # the suspect FULL block was scrubbed: live pages relocated, block erased
        assert stats.scrubs == 1
        assert stats.scrub_relocations == per_block
        assert engine.books[die].state[block] != BlockState.FULL
        for key, payload in payloads.items():
            assert engine.read(key, at=t)[0] == payload
        assert stats.accounting_closes()
        engine.check_consistency()

    def test_open_blocks_are_not_scrubbed(self):
        engine = make_engine()
        payloads, t = fill(engine, 3)  # frontier block still OPEN
        injector = attach(
            engine, FaultSpec(kind="read_transient", at_op=1, retries=1)
        )
        data, __ = engine.read(1, at=t)
        assert data == payloads[1]
        assert injector.stats.recovered_read_retry == 1
        assert injector.stats.scrubs == 0
        engine.check_consistency()

    def test_a_power_cut_on_the_retry_leaves_the_read_interrupted(self):
        engine = make_engine()
        __, t = fill(engine, 3)
        injector = attach(
            engine,
            FaultSpec(kind="read_transient", at_op=1, retries=2),
            FaultSpec(kind="power_cut", at_op=2),
        )
        with pytest.raises(PowerCutError):
            engine.read(1, at=t)  # op 1 fails, op 2 fails as pending, op 3 is cut
        assert injector.stats.read_retry_attempts == 2
        assert injector.stats.recovered_read_retry == 0
        assert injector.interrupted_read() == (0, 0, 1)
        engine.device.read_page_packed(0, 0, 1, t)  # gets through the hook
        assert injector.interrupted_read() is None


class TestProgramFault:
    def test_grown_bad_block_salvaged_and_write_redriven(self):
        engine = make_engine()
        payloads, t = fill(engine, 4)  # frontier block OPEN with 4 valid pages
        injector = attach(engine, FaultSpec(kind="program_fail", at_op=1))
        die, block = block_of(engine, 0)
        t = engine.write(9, b"redriven", at=t)
        assert engine.read(9, at=t)[0] == b"redriven"
        stats = injector.stats
        assert stats.injected_program_fail == 1
        assert stats.retired_grown_bad_blocks == 1
        assert stats.redrive_writes == 1
        assert stats.salvage_relocations == 4  # the open block's pages moved out
        # the failing block is bad on the device AND in the bookkeeping
        assert engine.device.dies[die].is_bad(block)
        assert engine.books[die].state[block] == BlockState.BAD
        for key, payload in payloads.items():
            assert engine.read(key, at=t)[0] == payload
        assert stats.accounting_closes()
        engine.check_consistency()

    def test_fault_fires_on_the_nth_engine_command_and_every_command_is_counted(self):
        """The engine issues its writes, GC copybacks and erases through
        the int-coordinate commands; the injector counts each of them, and
        the one it fails is the one its plan names."""
        engine = make_engine()
        device = engine.device
        payloads, t = fill(engine, 4)
        before = commands(device)
        injector = FaultLog(FaultPlan(specs=(FaultSpec(kind="program_fail", at_op=3),)))
        device.attach_fault_injector(injector)
        t = engine.write(10, b"a", at=t)
        t = engine.write(11, b"b", at=t)
        assert (injector.op_number, injector.stats.injected_program_fail) == (2, 0)
        t = engine.write(12, b"c", at=t)  # command 3 faults; salvage + redrive follow
        assert injector.faulted_ops == [3]
        assert injector.stats.retired_grown_bad_blocks == 1
        assert injector.stats.redrive_writes == 1
        assert engine.read(12, at=t)[0] == b"c"
        for key in range(200):  # churn until GC has erased (the salvage copied)
            t = engine.write(key % 40, b"churn", at=t)
        stats = device.stats
        assert stats.copybacks > 0 and stats.erases > 0
        # every command the device executed passed the injector once; the
        # failed program is the one it saw that never executed
        assert injector.op_number == commands(device) - before + 1
        assert injector.stats.accounting_closes()
        engine.check_consistency()

    def test_atomic_batch_survives_program_fault(self):
        engine = make_engine(dies=2)
        payloads, t = fill(engine, 6)
        injector = attach(engine, FaultSpec(kind="program_fail", at_op=1))
        entries = [(20, b"atom-a"), (21, b"atom-b"), (22, b"atom-c")]
        t = engine.write_atomic(entries, at=t)
        for key, payload in entries:
            assert engine.read(key, at=t)[0] == payload
        stats = injector.stats
        assert stats.injected_program_fail == 1
        assert stats.retired_grown_bad_blocks == 1
        assert stats.accounting_closes()
        engine.check_consistency()


class TestWearOutInjection:
    def test_wearout_fires_at_gc_erase_and_block_retires(self):
        engine = make_engine()
        capacity = engine.safe_capacity_pages()
        keys = list(range(capacity // 2))
        payloads, t = fill(engine, len(keys))
        injector = attach(engine, FaultSpec(kind="wearout", every=1, count=1))
        # churn in place until GC erases a block; the injected wear-out
        # retires it through the ordinary _retire_or_recycle path
        i = 0
        while injector.stats.retired_wearout_blocks == 0:
            key = keys[i % len(keys)]
            payloads[key] = bytes([i % 256, 7])
            t = engine.write(key, payloads[key], at=t)
            i += 1
            assert i < capacity * 30, "GC never erased; raise churn"
        stats = injector.stats
        assert stats.injected_wearout == 1
        assert stats.retired_wearout_blocks == 1
        bad = [
            (d, b)
            for d in engine.dies
            for b in range(engine.books[d].blocks_per_die)
            if engine.books[d].state[b] == BlockState.BAD
        ]
        assert len(bad) == 1
        die, block = bad[0]
        assert engine.device.dies[die].is_bad(block)
        for key, payload in payloads.items():
            assert engine.read(key, at=t)[0] == payload
        assert stats.accounting_closes()
        engine.check_consistency()


class TestDeterminism:
    def _run(self):
        engine = make_engine(dies=2)
        capacity = engine.safe_capacity_pages()
        keys = list(range(capacity // 2))
        payloads, t = fill(engine, len(keys))
        injector = attach(
            engine,
            FaultSpec(kind="read_transient", probability=0.05, count=10, retries=2),
            FaultSpec(kind="program_fail", probability=0.002, count=2),
            # swept by CI's fault-matrix job; the assertions are seed-free
            seed=int(os.environ.get("REPRO_FAULT_SEED", "13")),
        )
        for i in range(capacity * 4):
            key = keys[i % len(keys)]
            t = engine.write(key, bytes([i % 256]), at=t)
            if i % 3 == 0:
                engine.read(keys[(i * 7) % len(keys)], at=t)
        engine.check_consistency()
        return injector.stats.snapshot()

    def test_same_plan_and_seed_give_identical_counters(self):
        first = self._run()
        second = self._run()
        assert first == second
        assert first["injected.total"] > 0
        assert first["injected.total"] == first["recovered.total"] + first["retired.total"]
