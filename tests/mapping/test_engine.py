"""Unit tests for the shared flash space engine (die scoping, migration)."""

from dataclasses import replace

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import (
    DieBookkeeping,
    FlashSpaceEngine,
    ManagementStats,
    SpaceFullError,
)
from repro.mapping.blockinfo import BlockState


def make_device():
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        oob_size=16,
        max_pe_cycles=10_000,
    )
    return FlashDevice(geometry, timing=instant_timing())


def make_engine(device=None, dies=None, **kwargs):
    device = device or make_device()
    dies = list(range(device.geometry.dies)) if dies is None else dies
    books = {
        d: DieBookkeeping(d, device.geometry.blocks_per_die, device.geometry.pages_per_block)
        for d in dies
    }
    return FlashSpaceEngine(device, dies, books, ManagementStats(), **kwargs)


class TestScoping:
    def test_writes_stay_on_owned_dies(self):
        device = make_device()
        engine = make_engine(device, dies=[1, 3])
        for key in range(40):
            engine.write(key, b"x", at=0.0)
        assert device.stats.programs_per_die[0] == 0
        assert device.stats.programs_per_die[2] == 0
        assert device.stats.programs_per_die[1] > 0
        assert device.stats.programs_per_die[3] > 0

    def test_two_engines_share_device_without_interference(self):
        device = make_device()
        a = make_engine(device, dies=[0, 1])
        b = make_engine(device, dies=[2, 3])
        a.write(1, b"a", at=0.0)
        b.write(1, b"b", at=0.0)  # same key, different engine: independent
        assert a.read(1, at=0.0)[0] == b"a"
        assert b.read(1, at=0.0)[0] == b"b"
        a.check_consistency()
        b.check_consistency()

    def test_requires_at_least_one_die(self):
        device = make_device()
        with pytest.raises(ValueError):
            make_engine(device, dies=[])

    def test_requires_books_for_every_die(self):
        device = make_device()
        with pytest.raises(ValueError):
            FlashSpaceEngine(device, [0, 1], {0: DieBookkeeping(0, 16, 8)}, ManagementStats())


def scanned_physical_pages(engine):
    """``physical_pages`` as it was computed before: every block of every
    die, one state entry at a time."""
    per_block = engine.geometry.pages_per_block
    return sum(
        sum(1 for s in engine.books[d].state if s != BlockState.BAD) * per_block
        for d in engine.dies
    )


class TestPhysicalPages:
    """The BAD-block count is one ``bytearray.count`` per die; it must see
    every way a block goes bad.  (Killed by: counting a state other than
    BAD, counting over the device instead of the engine's dies, or a count
    cached at construction — every step below changes the answer.)"""

    def test_count_follows_mark_bad_factory_marks_and_a_retirement(self):
        device = FlashDevice(
            replace(make_device().geometry, max_pe_cycles=3),
            timing=instant_timing(), initial_bad_block_rate=0.2, seed=5,
        )
        engine = make_engine(device, dies=[1, 2])
        per_block = device.geometry.pages_per_block
        all_good = 2 * device.geometry.blocks_per_die * per_block
        assert engine.physical_pages() == scanned_physical_pages(engine) == all_good

        for die in engine.dies:  # factory marks, as every management layer adopts them
            engine.books[die].adopt_factory_bad_blocks(device.dies[die])
        factory = sum(len(device.dies[d].bad_blocks()) for d in engine.dies)
        assert factory > 0, "seed 5 produced no factory bad blocks on dies 1-2; adjust"
        assert engine.physical_pages() == scanned_physical_pages(engine)
        assert engine.physical_pages() == all_good - factory * per_block

        good = next(
            b for b in range(device.geometry.blocks_per_die) if not device.dies[1].is_bad(b)
        )
        engine.books[1].mark_bad(good)
        engine.books[1].mark_bad(good)  # twice is still one block
        assert engine.physical_pages() == scanned_physical_pages(engine)
        assert engine.physical_pages() == all_good - (factory + 1) * per_block

        # overwrite until GC erases push blocks past their 3 rated cycles
        before = engine.physical_pages()
        i = 0
        while engine.physical_pages() == before:
            engine.write(i % 16, b"x", at=0.0)
            i += 1
            assert i < 20_000, "no block ever wore out"
        assert engine.physical_pages() == scanned_physical_pages(engine) < before


class TestGCScoping:
    def test_gc_only_touches_owned_dies(self):
        device = make_device()
        engine = make_engine(device, dies=[0])
        for i in range(device.geometry.pages_per_die * 3):
            engine.write(i % 8, b"x", at=0.0)
        assert engine.stats.gc_erases > 0
        assert device.stats.erases_per_die[1] == 0
        assert device.stats.erases_per_die[2] == 0

    def test_space_full_when_region_overcommitted(self):
        device = make_device()
        engine = make_engine(device, dies=[0])
        with pytest.raises(SpaceFullError):
            for key in range(device.geometry.pages_per_die):
                engine.write(key, b"x", at=0.0)

    def test_safe_capacity_accounts_reserve(self):
        device = make_device()
        engine = make_engine(device, dies=[0, 1])
        per_die = device.geometry.pages_per_die
        reserve = engine.reserve_blocks_per_die * device.geometry.pages_per_block
        assert engine.safe_capacity_pages() == 2 * (per_die - reserve)

    def test_data_survives_heavy_gc(self):
        import random

        rng = random.Random(5)
        device = make_device()
        engine = make_engine(device, dies=[0, 1])
        capacity = engine.safe_capacity_pages()
        payloads = {}
        for __ in range(capacity * 6):
            key = rng.randrange(int(capacity * 0.8))
            payload = bytes([rng.randrange(256)]) * 4
            engine.write(key, payload, at=0.0)
            payloads[key] = payload
        for key, payload in payloads.items():
            assert engine.read(key, at=0.0)[0] == payload
        engine.check_consistency()


class TestDieMembership:
    def test_add_die_expands_capacity(self):
        device = make_device()
        engine = make_engine(device, dies=[0])
        before = engine.safe_capacity_pages()
        engine.add_die(1, DieBookkeeping(1, 16, 8))
        assert engine.safe_capacity_pages() == 2 * before

    def test_add_duplicate_die_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.add_die(0, DieBookkeeping(0, 16, 8))

    def test_evacuate_die_preserves_data(self):
        device = make_device()
        engine = make_engine(device, dies=[0, 1])
        payloads = {key: bytes([key]) * 4 for key in range(30)}
        for key, payload in payloads.items():
            engine.write(key, payload, at=0.0)
        books, __ = engine.evacuate_die(1, at=0.0)
        assert engine.dies == [0]
        for key, payload in payloads.items():
            assert engine.read(key, at=0.0)[0] == payload
        engine.check_consistency()
        # the released die is fully free again
        assert books.free_count == device.geometry.blocks_per_die

    def test_evacuated_die_can_join_other_engine(self):
        device = make_device()
        a = make_engine(device, dies=[0, 1])
        b = make_engine(device, dies=[2])
        for key in range(20):
            a.write(key, b"a", at=0.0)
        books, __ = a.evacuate_die(1, at=0.0)
        b.add_die(1, books)
        for key in range(40):
            b.write(key, b"b", at=0.0)
        assert device.stats.programs_per_die[1] > 0
        a.check_consistency()
        b.check_consistency()

    def test_cannot_evacuate_last_die(self):
        engine = make_engine(dies=[0])
        with pytest.raises(ValueError):
            engine.evacuate_die(0, at=0.0)

    def test_cannot_evacuate_foreign_die(self):
        engine = make_engine(dies=[0, 1])
        with pytest.raises(ValueError):
            engine.evacuate_die(3, at=0.0)
