"""Unit tests for the NoFTLStore storage manager."""

import pytest

from repro.core import NoFTLStore, RegionConfig, RegionError
from repro.flash import FlashDevice, FlashGeometry, SimClock, instant_timing
from repro.obs import combined_management_stats


def geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=512,
        oob_size=32,
        max_pe_cycles=100_000,
    )


class TestConstruction:
    def test_create_builds_device(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        assert store.device.geometry.dies == 8

    def test_wraps_existing_device(self):
        device = FlashDevice(geometry(), timing=instant_timing())
        store = NoFTLStore(device)
        assert store.device is device

    def test_shared_clock(self):
        clock = SimClock(start=500.0)
        store = NoFTLStore.create(geometry(), clock=clock)
        assert store.device.clock is clock
        assert store.device.clock.now == 500.0

    def test_bad_blocks_passed_through(self):
        store = NoFTLStore.create(
            geometry(), timing=instant_timing(), initial_bad_block_rate=0.2, seed=3
        )
        bad = sum(len(d.bad_blocks()) for d in store.device.dies)
        assert bad > 0


class TestFacadeIO:
    def test_read_write_by_region_name(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        region = store.create_region(RegionConfig(name="rg"), num_dies=2)
        [rpn] = region.allocate(1)
        t = store.region("rg").write(rpn, b"payload", 0.0)
        data, __ = store.region("rg").read(rpn, t)
        assert data == b"payload"

    def test_unknown_region_io_rejected(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        with pytest.raises(RegionError):
            store.region("nope")

    def test_regions_sorted_by_name(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        store.create_region(RegionConfig(name="rgB"), num_dies=1)
        store.create_region(RegionConfig(name="rgA"), num_dies=1)
        assert [r.name for r in store.regions()] == ["rgA", "rgB"]


class TestReporting:
    def test_per_region_stats_keys(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        region = store.create_region(RegionConfig(name="rg"), num_dies=2)
        [rpn] = region.allocate(1)
        region.write(rpn, b"x", 0.0)
        snap = store.metrics_registry().snapshot()
        assert snap["region.rg.host_writes"] == 1

    def test_aggregate_sums(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        a = store.create_region(RegionConfig(name="rgA"), num_dies=2)
        b = store.create_region(RegionConfig(name="rgB"), num_dies=2)
        [pa] = a.allocate(1)
        [pb] = b.allocate(1)
        a.write(pa, b"x", 0.0)
        b.write(pb, b"y", 0.0)
        b.read(pb, 0.0)
        total = combined_management_stats(store.regions())
        assert (total.host_writes, total.host_reads) == (2, 1)
        assert total.host_write_latency.count == 2

    def test_check_consistency_covers_all_regions(self):
        store = NoFTLStore.create(geometry(), timing=instant_timing())
        for name in ("rgA", "rgB"):
            region = store.create_region(RegionConfig(name=name), num_dies=2)
            pages = region.allocate(10)
            for p in pages:
                region.write(p, b"z", 0.0)
        store.check_consistency()
