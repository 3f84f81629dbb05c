"""Block retirement paths: GC, read-disturb refresh, WL and factory bad blocks.

Coverage for the pre-existing ``_retire_or_recycle`` path under every
erase site, plus the accounting of background page moves: whoever pays
(GC or WL) and whichever way the page travels (COPYBACK or the read+program
fallback), a moved page is counted exactly once.
"""

import random

import pytest

from repro.core import NoFTLStore, RegionConfig
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats
from repro.mapping.blockinfo import BlockState


def make_engine(
    dies=1,
    planes_per_die=1,
    blocks_per_plane=12,
    pages_per_block=8,
    max_pe_cycles=1_000_000,
    strict_plane_copyback=False,
    **engine_kwargs,
):
    geometry = FlashGeometry(
        channels=1,
        chips_per_channel=dies,
        dies_per_chip=1,
        planes_per_die=planes_per_die,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=128,
        oob_size=16,
        max_pe_cycles=max_pe_cycles,
    )
    device = FlashDevice(
        geometry, timing=instant_timing(), strict_plane_copyback=strict_plane_copyback
    )
    die_list = list(range(dies))
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in die_list
    }
    return FlashSpaceEngine(device, die_list, books, ManagementStats(), **engine_kwargs)


def bad_blocks(engine):
    return [
        (d, b)
        for d in engine.dies
        for b in range(engine.books[d].blocks_per_die)
        if engine.books[d].state[b] == BlockState.BAD
    ]


def assert_frontiers_skip_bad(engine):
    """No frontier — user, GC or group — may sit on a retired block."""
    for die, block in [*engine._user_frontier.items(), *engine._gc_frontier.items()]:
        if block is not None:
            assert not engine.device.dies[die].is_bad(block)
    for stripe, __ in engine._groups.values():
        for held in stripe:
            if held is not None:
                assert not engine.device.dies[held[0]].is_bad(held[1])


class TestRetireDuringGC:
    def test_worn_block_retires_at_gc_erase_and_frontiers_skip_it(self):
        engine = make_engine(max_pe_cycles=1_000_000)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="wearout", every=1, count=2),))
        )
        engine.device.attach_fault_injector(injector)
        capacity = engine.safe_capacity_pages()
        keys = list(range(capacity // 2))
        payloads = {}
        t = 0.0
        rng = random.Random(5)
        i = 0
        # the first two GC erases hit injected wear-out; keep churning well
        # past them so frontiers must route around the retired blocks
        while injector.stats.retired_wearout_blocks < 2 or i < capacity * 6:
            key = rng.choice(keys)
            payloads[key] = bytes([i % 256])
            t = engine.write(key, payloads[key], at=t)
            i += 1
            assert i < capacity * 40, "GC never retired the worn blocks"
        retired = bad_blocks(engine)
        assert len(retired) == 2
        for die, block in retired:
            assert engine.device.dies[die].is_bad(block)
        assert_frontiers_skip_bad(engine)
        for key, payload in payloads.items():
            assert engine.read(key, at=t)[0] == payload
        engine.check_consistency()


class TestRetireDuringReadDisturbRefresh:
    def test_worn_block_retires_at_refresh_erase(self):
        threshold = 10
        engine = make_engine(read_disturb_threshold=threshold)
        per_block = engine.geometry.pages_per_block
        payloads = {}
        t = 0.0
        for key in range(per_block):  # exactly fills block 0 -> FULL
            payloads[key] = bytes([key])
            t = engine.write(key, payloads[key], at=t)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="wearout", every=1, count=1),))
        )
        engine.device.attach_fault_injector(injector)
        # hammer one page until the patrol refreshes the block; its erase
        # trips the injected wear-out and _retire_or_recycle retires it
        for __ in range(threshold + 2):
            data, t = engine.read(0, at=t)
            assert data == payloads[0]
        assert engine.stats.wl_erases == 1  # the refresh ran
        assert injector.stats.retired_wearout_blocks == 1
        assert bad_blocks(engine) == [(0, 0)]
        assert_frontiers_skip_bad(engine)
        for key, payload in payloads.items():
            assert engine.read(key, at=t)[0] == payload
        engine.check_consistency()


class TestFactoryBadBlocks:
    def test_region_allocation_succeeds_on_factory_marked_device(self):
        geometry = FlashGeometry(
            channels=2,
            chips_per_channel=2,
            dies_per_chip=1,
            planes_per_die=1,
            blocks_per_plane=16,
            pages_per_block=8,
            page_size=128,
            oob_size=16,
        )
        pristine = NoFTLStore.create(geometry, timing=instant_timing())
        store = NoFTLStore.create(
            geometry, timing=instant_timing(), initial_bad_block_rate=0.15, seed=11
        )
        factory_bad = sum(
            len(die.bad_blocks()) for die in store.device.dies
        )
        assert factory_bad > 0, "seed 11 produced no factory bad blocks; adjust"
        region = store.create_region(RegionConfig(name="rg"), num_dies=4)
        baseline = pristine.create_region(RegionConfig(name="rg"), num_dies=4)
        assert region.capacity_pages() < baseline.capacity_pages()
        pages = region.allocate(region.capacity_pages() // 2)
        t = 0.0
        for i, rpn in enumerate(pages):
            t = region.write(rpn, bytes([i % 256]), t)
        for i, rpn in enumerate(pages):
            assert region.read(rpn, t)[0] == bytes([i % 256])
        # no frontier ever landed on a factory-bad block
        assert_frontiers_skip_bad(region.engine)
        store.check_consistency()


def _collect(engine, t):
    engine._collect_block(0, 0, t)


def _scrub(engine, t):
    plan = FaultPlan(specs=(FaultSpec(kind="read_transient", at_op=1, retries=1),))
    engine.device.attach_fault_injector(FaultInjector(plan))
    engine.read(0, at=t)  # fails once, the retry recovers it and scrubs block 0


def _refresh(engine, t):
    for __ in range(engine.read_disturb_threshold):
        __, t = engine.read(0, at=t)


def _wear_level(engine, t):
    # age a free block of the other plane (plane = block % planes_per_die)
    # until its spread over cold block 0 exceeds the threshold
    for __ in range(5):
        engine.device.erase_block_packed(0, 9, t)
    engine._wear_level_die(0, t)


class TestMoveAccounting:
    """One page moved = one count in ``relocated_pages``, whoever pays
    (GC: ``gc_copybacks`` or ``gc_reads``+``gc_programs``; WL: ``wl_moves``)
    and however it moved (strict plane copyback refuses the cross-plane
    COPYBACK, so every move takes the read+program fallback)."""

    @pytest.mark.parametrize("strict", [False, True], ids=["copyback", "fallback"])
    @pytest.mark.parametrize(
        ("empty", "wl_pays"),
        [(_collect, False), (_scrub, False), (_refresh, True), (_wear_level, True)],
        ids=["gc", "scrub", "refresh", "wl"],
    )
    def test_moved_page_counts_once(self, empty, wl_pays, strict):
        engine = make_engine(
            planes_per_die=2, blocks_per_plane=8, pages_per_block=4,
            strict_plane_copyback=strict,
            wear_level_threshold=2, read_disturb_threshold=5,
        )
        moved = engine.geometry.pages_per_block
        t = 0.0
        for key in range(moved):  # block 0 (plane 0) becomes FULL, all valid
            t = engine.write(key, bytes([key]), at=t)

        empty(engine, t)

        stats = engine.stats
        counts = {
            "gc_copybacks": stats.gc_copybacks, "gc_reads": stats.gc_reads,
            "gc_programs": stats.gc_programs, "wl_moves": stats.wl_moves,
            "gc_erases": stats.gc_erases, "wl_erases": stats.wl_erases,
        }
        expected = dict.fromkeys(counts, 0)
        if wl_pays:
            expected.update(wl_moves=moved, wl_erases=1)
        elif strict:
            expected.update(gc_reads=moved, gc_programs=moved, gc_erases=1)
        else:
            expected.update(gc_copybacks=moved, gc_erases=1)
        assert counts == expected
        assert stats.relocated_pages == moved
        assert engine.device.stats.copybacks == (0 if strict else moved)
        assert min(stats.snapshot().values()) >= 0
        for key in range(moved):
            assert engine.read(key, at=t)[0] == bytes([key])
        engine.check_consistency()


class TestRelocationFallbackRedrive:
    def test_program_fault_on_the_read_program_fallback_is_redriven(self):
        # strict-plane copyback refuses the move into the cross-plane GC
        # frontier, so the relocation falls back to read + program — and
        # that program is the one the plan fails
        engine = make_engine(
            planes_per_die=2, blocks_per_plane=8, pages_per_block=4,
            strict_plane_copyback=True,
        )
        t = engine.write(7, b"live", at=0.0)  # lands on block 0 (plane 0)
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(kind="program_fail", at_op=1),), seed=0)
        )
        engine.device.attach_fault_injector(injector)
        engine._gc_frontier[0] = engine.books[0].take_free_block()
        first_target = engine._gc_frontier[0]
        assert engine.geometry.plane_of_block(first_target) == 1

        t = engine._relocate(0, 0, [0], t)

        assert injector.stats.injected_program_fail == 1
        assert injector.stats.retired_grown_bad_blocks == 1
        assert injector.stats.redrive_writes == 1
        assert bad_blocks(engine) == [(0, first_target)]
        assert list(engine._rmap.values()) == [7]  # mapped exactly once
        assert engine._map[7] not in (0, first_target * 4)
        assert engine.read(7, at=t)[0] == b"live"
        assert injector.stats.accounting_closes()
        engine.check_consistency()
