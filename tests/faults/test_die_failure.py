"""Whole-die failure: degraded regions, rebuild, and die quarantine."""

import pytest

from repro.core import NoFTLStore, RegionConfig, RegionError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import FlashGeometry, instant_timing
from repro.flash.errors import DieFailedError, PowerCutError


def small_store(dies=8, blocks_per_plane=16, pages_per_block=8):
    geometry = FlashGeometry(
        channels=4,
        chips_per_channel=dies // 4,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=128,
        oob_size=16,
        max_pe_cycles=1_000_000,
    )
    return NoFTLStore.create(geometry, timing=instant_timing())


def arm_die_fail(store, die, at_op=1):
    injector = FaultInjector(
        FaultPlan(specs=(FaultSpec(kind="die_fail", at_op=at_op, die=die),))
    )
    store.device.attach_fault_injector(injector)
    return injector


class TestDieFailure:
    def _populated_region(self, store, num_dies=4):
        region = store.create_region(RegionConfig(name="rg"), num_dies=num_dies)
        pages = region.allocate(region.capacity_pages() // 2)
        payloads = {}
        t = 0.0
        for i, rpn in enumerate(pages):
            payloads[rpn] = bytes([i % 256])
            t = region.write(rpn, payloads[rpn], t)
        return region, payloads, t

    def test_region_rebuilds_onto_surviving_dies(self):
        store = small_store()
        region, payloads, t = self._populated_region(store)
        victim = region.dies[1]
        injector = arm_die_fail(store, victim)
        capacity_before = store.capacity_pages()

        # keep writing: the failure surfaces on the victim's next program
        # and the region rebuilds around it mid-write
        rpns = list(payloads)
        i = 0
        while not region.degraded:
            rpn = rpns[i % len(rpns)]
            payloads[rpn] = bytes([i % 256, 1])
            t = region.write(rpn, payloads[rpn], t)
            i += 1
            assert i < 10 * len(rpns), "die failure never surfaced"

        assert region.failed_dies == [victim]
        assert victim not in region.dies
        assert injector.stats.injected_die_fail == 1
        assert injector.stats.retired_dies == 1
        assert injector.stats.rebuild_relocations > 0
        # every page written before the failure is intact on the survivors
        for rpn, payload in payloads.items():
            assert region.read(rpn, t)[0] == payload
        store.check_consistency()
        assert injector.stats.accounting_closes()

        # capacity shrinks and is reported through the store
        assert store.capacity_pages() < capacity_before
        assert store.degraded
        report = store.capacity_report()
        assert report["degraded"] is True
        assert report["failed_dies"] == [victim]
        assert report["capacity_pages"] == store.capacity_pages()
        assert report["regions"]["rg"]["failed_dies"] == [victim]

    def test_failed_die_is_quarantined_from_the_pool(self):
        store = small_store()
        region, payloads, t = self._populated_region(store, num_dies=4)
        victim = region.dies[0]
        arm_die_fail(store, victim)
        rpns = list(payloads)
        i = 0
        while not region.degraded:
            t = region.write(rpns[i % len(rpns)], b"x", t)
            i += 1

        assert store.failed_dies() == [victim]
        assert victim not in store.free_dies()
        # a new region gets only healthy free dies, never the dead one
        other = store.create_region(RegionConfig(name="rg2"), num_dies=4)
        assert victim not in other.dies
        assert not store.free_dies()
        pages = other.allocate(8)
        for rpn in pages:
            t = other.write(rpn, b"fresh", t)
            assert other.read(rpn, t)[0] == b"fresh"
        store.check_consistency()

    def test_a_dropped_region_keeps_its_dead_die_out_of_the_pool(self):
        store = small_store()
        region, payloads, t = self._populated_region(store, num_dies=4)
        victim = region.dies[1]
        arm_die_fail(store, victim)
        rpns = list(payloads)
        i = 0
        while not region.degraded:
            t = region.write(rpns[i % len(rpns)], b"x", t)
            i += 1
        store.drop_region("rg", force=True)

        assert store.failed_dies() == [victim]
        assert store.free_dies() == [d for d in range(8) if d != victim]
        with pytest.raises(RegionError):
            store.create_region(RegionConfig(name="rgAll"), num_dies=8)
        with pytest.raises(RegionError):
            store.create_region(RegionConfig(name="rgDead"), num_dies=1, dies=[victim])
        survivors = store.create_region(RegionConfig(name="rg"), num_dies=7)
        assert victim not in survivors.dies
        assert store.failed_dies() == [victim] and not store.free_dies()

    def test_a_rebuild_cut_by_a_power_loss_keeps_the_die_out_of_the_pool(self):
        store = small_store()
        region, __, t = self._populated_region(store, num_dies=4)
        victim = region.dies[0]
        # op 1 (the rebuild's first read) kills the die, op 3 (its second
        # read, after one page moved) cuts the power
        plan = FaultPlan(specs=(
            FaultSpec(kind="die_fail", at_op=1, die=victim),
            FaultSpec(kind="power_cut", at_op=3),
        ))
        store.device.attach_fault_injector(FaultInjector(plan))
        with pytest.raises(PowerCutError):
            region.retire_failed_die(victim, t)
        assert victim not in region.dies and not region.failed_dies
        assert victim not in store.free_dies()
        store.drop_region("rg", force=True)
        assert store.failed_dies() == [victim]
        assert store.free_dies() == [d for d in range(8) if d != victim]

    def test_a_rebuild_cut_by_a_power_loss_resumes_after_recovery(self):
        # Killed by: a recovery scan that skips a die the engine's books
        # hold but ``dies`` lacks (its live pages drop out of the mapping),
        # or a settle that keys on ``dies`` (the rebuild never resumes).
        store = small_store()
        region, payloads, t = self._populated_region(store, num_dies=4)
        victim = region.dies[0]
        plan = FaultPlan(specs=(
            FaultSpec(kind="die_fail", at_op=1, die=victim),
            FaultSpec(kind="power_cut", at_op=3),
        ))
        injector = FaultInjector(plan)
        store.device.attach_fault_injector(injector)
        with pytest.raises(PowerCutError):
            region.retire_failed_die(victim, t)
        injector.quiesce()
        t = store.recover(t)
        t = region.retire_failed_die(victim, t)

        for rpn, payload in payloads.items():
            assert region.read(rpn, t)[0] == payload
        assert region.failed_dies == [victim] and store.failed_dies() == [victim]
        assert injector.stats.retired_dies == 1
        store.check_consistency()

    def test_atomic_writes_survive_die_failure(self):
        store = small_store()
        region, payloads, t = self._populated_region(store)
        victim = region.dies[2]
        arm_die_fail(store, victim)
        extra = region.allocate(6)
        t = region.write_atomic([(rpn, b"batch") for rpn in extra], t)
        # the batch either triggered the rebuild itself or rode out fine;
        # force the rebuild if the batch happened to dodge the victim
        i = 0
        rpns = list(payloads)
        while not region.degraded:
            t = region.write(rpns[i % len(rpns)], b"y", t)
            i += 1
        for rpn in extra:
            assert region.read(rpn, t)[0] == b"batch"
        store.check_consistency()

    def test_single_die_region_cannot_rebuild(self):
        store = small_store()
        region = store.create_region(RegionConfig(name="solo"), num_dies=1)
        pages = region.allocate(4)
        t = 0.0
        for rpn in pages:
            t = region.write(rpn, b"z", t)
        arm_die_fail(store, region.dies[0])
        with pytest.raises(Exception) as excinfo:
            for __ in range(50):
                t = region.write(pages[0], b"w", t)
        # there is nowhere to rebuild to: the failure propagates
        assert not isinstance(excinfo.value, AssertionError)

    def test_reads_still_served_from_dead_die_before_rebuild(self):
        # the failure model is write/erase-dead, read-alive: that is what
        # makes the rebuild (and recovery scans) possible at all
        store = small_store()
        region, payloads, t = self._populated_region(store)
        victim = region.dies[0]
        injector = arm_die_fail(store, victim, at_op=1)
        # fire the spec via a read (die_fail matches any command) — no
        # DieFailedError is raised for reads, before or after
        for rpn, payload in payloads.items():
            assert region.read(rpn, t)[0] == payload
        assert injector.stats.injected_die_fail == 1
        assert victim in injector.dead_dies
        assert not region.degraded  # no write touched the victim yet
