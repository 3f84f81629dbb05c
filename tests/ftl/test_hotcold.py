"""Unit tests for the on-device hot/cold FTL heuristic."""

import random

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.ftl import HotColdFTL, PageMappingFTL, UpdateFrequencySketch


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
        max_pe_cycles=100_000,
    )
    return FlashDevice(geometry, timing=instant_timing())


def make_hotcold(**kwargs):
    defaults = dict(overprovision=0.4, sketch_slots=64, decay_interval=512)
    defaults.update(kwargs)
    return HotColdFTL(make_device(), **defaults)


class TestSketch:
    def test_counts_updates(self):
        sketch = UpdateFrequencySketch(slots=16)
        for __ in range(5):
            sketch.record(3)
        assert sketch.estimate(3) == 5
        assert sketch.estimate(4) == 0

    def test_aliasing_shares_heat(self):
        sketch = UpdateFrequencySketch(slots=16)
        sketch.record(1)
        assert sketch.estimate(17) == 1  # 17 % 16 == 1: limited resources

    def test_decay_halves_counters(self):
        sketch = UpdateFrequencySketch(slots=4, decay_interval=10)
        for __ in range(10):
            sketch.record(0)
        assert sketch.estimate(0) == 5  # halved at the 10th record

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateFrequencySketch(slots=0)
        with pytest.raises(ValueError):
            UpdateFrequencySketch(decay_interval=0)


class TestHotColdFTL:
    def test_roundtrip(self):
        ftl = make_hotcold()
        for lba in range(20):
            ftl.write(lba, bytes([lba]))
        for lba in range(20):
            assert ftl.read(lba)[0] == bytes([lba])
        ftl.check_consistency()

    def test_learns_hot_lbas(self):
        ftl = make_hotcold()
        for __ in range(50):
            ftl.write(5, b"hot")
        for lba in range(20, 40):
            ftl.write(lba, b"cold")
        assert ftl.classify(5)
        assert not ftl.classify(25)
        assert ftl.hot_writes > 0
        assert ftl.cold_writes > 0

    def test_hot_and_cold_fill_separate_blocks(self):
        ftl = make_hotcold()
        # train: lba 0 is scorching
        for __ in range(60):
            ftl.write(0, b"h")
        cold_lbas = list(range(10, 30))
        for lba in cold_lbas:
            ftl.write(lba, b"c")
        ftl.write(0, b"h")
        engine = ftl.engine
        geometry = ftl.geometry

        def block_of(lba):
            # the engine packs (die, block, page) as one page number
            return divmod(engine._map[lba] // geometry.pages_per_block, geometry.blocks_per_die)

        hot_block = block_of(0)
        cold_blocks = {block_of(lba) for lba in cold_lbas}
        assert hot_block not in cold_blocks

    def test_reduces_copybacks_vs_plain_ftl_under_skew(self):
        def churn(ftl, writes=4000, seed=2):
            rng = random.Random(seed)
            for lba in range(ftl.num_lbas // 2):
                ftl.write(lba, b"seed")
            for __ in range(writes):
                if rng.random() < 0.9:
                    ftl.write(rng.randrange(8), b"hot")
                else:
                    ftl.write(rng.randrange(ftl.num_lbas // 2), b"warm")
            return ftl.stats.gc_copybacks

        plain = churn(PageMappingFTL(make_device(), overprovision=0.4))
        separated = churn(make_hotcold())
        assert separated < plain

    def test_survives_gc_churn(self):
        rng = random.Random(7)
        ftl = make_hotcold()
        payloads = {}
        for __ in range(3000):
            lba = rng.randrange(ftl.num_lbas // 2)
            payload = bytes([rng.randrange(256)])
            ftl.write(lba, payload)
            payloads[lba] = payload
        assert ftl.stats.gc_erases > 0
        for lba, payload in payloads.items():
            assert ftl.read(lba)[0] == payload
        ftl.check_consistency()

    def test_invalid_hot_factor(self):
        with pytest.raises(ValueError):
            make_hotcold(hot_factor=0)
