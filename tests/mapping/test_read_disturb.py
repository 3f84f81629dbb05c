"""Tests for read-disturb tracking and refresh."""

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats


def make_engine(threshold):
    geometry = FlashGeometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=12,
        pages_per_block=8,
        page_size=128,
        oob_size=16,
        max_pe_cycles=1_000_000,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    dies = [0, 1]
    books = {d: DieBookkeeping(d, 12, 8) for d in dies}
    return FlashSpaceEngine(
        device, dies, books, ManagementStats(), read_disturb_threshold=threshold
    )


class TestBlockCounter:
    def test_reads_counted_and_reset_by_erase(self):
        from repro.flash import small_geometry

        device = FlashDevice(small_geometry(), timing=instant_timing())
        device.program_page_packed(0, 0, 0, b"x", -1, -1, -1, 0.0)
        die = device.dies[0]
        for __ in range(3):
            device.read_page_packed(0, 0, 0, 0.0)
        assert die.reads_since_erase(0) == 3
        device.erase_block_packed(0, 0, 0.0)
        assert die.reads_since_erase(0) == 0


class TestRefresh:
    def fill_block(self, engine, keys):
        """Write keys until at least one FULL block exists; return one."""
        at = 0.0
        for key in keys:
            at = engine.write(key, bytes([key % 256]), at)
        from repro.mapping.blockinfo import BlockState

        for die in engine.dies:
            books = engine.books[die]
            for block in range(books.blocks_per_die):
                if books.state[block] == BlockState.FULL and books.valid_count[block] > 0:
                    return die, block, at
        raise AssertionError("no full block produced")

    def test_hammered_block_gets_refreshed(self):
        engine = make_engine(threshold=50)
        die, block, at = self.fill_block(engine, list(range(40)))
        victim_keys = [
            engine._rmap[
                die * engine.geometry.pages_per_die
                + block * engine.geometry.pages_per_block + p
            ]
            for p in engine.books[die].valid_pages(block)
        ]
        # hammer one key in the full block past the threshold
        target = victim_keys[0]
        for __ in range(60):
            data, at = engine.read(target, at)
        assert engine.stats.wl_erases >= 1
        assert engine.stats.wl_moves > 0
        # all data still readable afterwards
        for key in range(40):
            assert engine.read(key, at)[0] == bytes([key % 256])
        engine.check_consistency()

    def test_no_refresh_below_threshold(self):
        engine = make_engine(threshold=10_000)
        __, __, at = self.fill_block(engine, list(range(40)))
        for key in range(40):
            for __ in range(5):
                __, at = engine.read(key, at)
        assert engine.stats.wl_erases == 0

    def test_disabled_by_default(self):
        engine = make_engine(threshold=None)
        __, __, at = self.fill_block(engine, list(range(40)))
        target = next(iter(engine.keys()))
        for __ in range(200):
            __, at = engine.read(target, at)
        assert engine.stats.wl_erases == 0
