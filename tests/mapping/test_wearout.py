"""Tests for endurance exhaustion: worn-out blocks retire gracefully."""

import random

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import (
    BookkeepingError,
    DieBookkeeping,
    FlashSpaceEngine,
    ManagementStats,
    SpaceFullError,
)
from repro.mapping.blockinfo import BlockState


def churn_until_eol(engine, keys, payloads, rounds, seed):
    """Update random keys until `rounds` writes or device end-of-life."""
    rng = random.Random(seed)
    for i in range(rounds):
        key = rng.choice(keys)
        payload = bytes([i % 256])
        try:
            engine.write(key, payload, at=0.0)
        except (SpaceFullError, BookkeepingError):
            return True  # the device ran out of good blocks: end of life
        payloads[key] = payload
    return False


def make_engine(max_pe_cycles=12, dies=2):
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=12,
        pages_per_block=8,
        page_size=128,
        oob_size=16,
        max_pe_cycles=max_pe_cycles,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    die_list = list(range(dies))
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in die_list
    }
    return FlashSpaceEngine(device, die_list, books, ManagementStats())


class TestWearOut:
    def test_worn_blocks_retire_and_data_survives(self):
        engine = make_engine(max_pe_cycles=10)
        rng = random.Random(1)
        capacity = engine.safe_capacity_pages()
        keys = list(range(capacity // 3))
        payloads = {}
        # churn until some blocks exceed endurance
        for i in range(capacity * 25):
            key = rng.choice(keys)
            payload = bytes([i % 256])
            engine.write(key, payload, at=0.0)
            payloads[key] = payload
            if engine.device.max_erase_count() >= 10:
                break
        bad_blocks = sum(
            1
            for books in engine.books.values()
            for state in books.state
            if state == BlockState.BAD
        )
        assert bad_blocks > 0, "no block wore out; raise churn"
        for key, payload in payloads.items():
            assert engine.read(key, at=0.0)[0] == payload
        engine.check_consistency()

    def test_retired_blocks_never_reused(self):
        engine = make_engine(max_pe_cycles=6)
        capacity = engine.safe_capacity_pages()
        keys = list(range(capacity // 4))
        churn_until_eol(engine, keys, {}, capacity * 30, seed=2)
        # every bad device block is also bad in the bookkeeping
        for die_index in engine.dies:
            device_die = engine.device.dies[die_index]
            books = engine.books[die_index]
            for b in device_die.bad_blocks():
                assert books.state[b] == BlockState.BAD

    def test_capacity_shrinks_as_blocks_retire(self):
        engine = make_engine(max_pe_cycles=6)
        before = engine.safe_capacity_pages()
        keys = list(range(before // 4))
        churn_until_eol(engine, keys, {}, before * 30, seed=3)
        assert engine.safe_capacity_pages() < before
