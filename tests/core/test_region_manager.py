"""Unit tests for the store's die pool: die allocation, limits, lifecycle, global WL."""

import pytest

from repro.core import NoFTLStore, RegionConfig, RegionError
from repro.flash import FlashGeometry, instant_timing, paper_geometry


def make_store(**geo_kwargs):
    defaults = dict(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        oob_size=16,
        max_pe_cycles=100_000,
    )
    defaults.update(geo_kwargs)
    return NoFTLStore.create(FlashGeometry(**defaults), timing=instant_timing())


class TestDieAllocation:
    def test_dies_spread_across_channels(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg"), num_dies=4)
        assert len(region.channels_used()) == 4  # one die per channel

    def test_max_channels_respected(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg", max_channels=2), num_dies=4)
        assert len(region.channels_used()) <= 2

    def test_max_chips_respected(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg", max_chips=2), num_dies=4)
        assert len(region.chips_used()) <= 2

    def test_impossible_constraints_rejected(self):
        store = make_store()
        with pytest.raises(RegionError):
            # 1 chip has only 2 dies; 4 dies cannot fit
            store.create_region(RegionConfig(name="rg", max_chips=1), num_dies=4)

    def test_pool_exhaustion_rejected(self):
        store = make_store()
        store.create_region(RegionConfig(name="rgA"), num_dies=12)
        with pytest.raises(RegionError):
            store.create_region(RegionConfig(name="rgB"), num_dies=8)

    def test_regions_get_disjoint_dies(self):
        store = make_store()
        a = store.create_region(RegionConfig(name="rgA"), num_dies=6)
        b = store.create_region(RegionConfig(name="rgB"), num_dies=6)
        assert not set(a.dies) & set(b.dies)

    def test_explicit_die_list(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg"), num_dies=2, dies=[3, 7])
        assert region.dies == [3, 7]
        assert 3 not in store.free_dies()

    def test_explicit_die_list_validates_ownership(self):
        store = make_store()
        store.create_region(RegionConfig(name="rgA"), num_dies=2, dies=[0, 1])
        with pytest.raises(RegionError):
            store.create_region(RegionConfig(name="rgB"), num_dies=2, dies=[1, 2])

    def test_explicit_die_list_validates_limits(self):
        store = make_store()
        with pytest.raises(RegionError):
            store.create_region(
                RegionConfig(name="rg", max_channels=1), num_dies=2, dies=[0, 15]
            )

    def test_duplicate_region_name_rejected(self):
        store = make_store()
        store.create_region(RegionConfig(name="rg"), num_dies=1)
        with pytest.raises(RegionError):
            store.create_region(RegionConfig(name="rg"), num_dies=1)

    def test_paper_geometry_figure2_die_counts_fit(self):
        store = NoFTLStore.create(paper_geometry(blocks_per_plane=8), timing=instant_timing())
        for name, count in [("r0", 2), ("r1", 11), ("r2", 10), ("r3", 29), ("r4", 6), ("r5", 6)]:
            store.create_region(RegionConfig(name=name), num_dies=count)
        assert not store.free_dies()


class TestLifecycle:
    def test_drop_returns_dies_to_pool(self):
        store = make_store()
        store.create_region(RegionConfig(name="rg"), num_dies=4)
        assert len(store.free_dies()) == 12
        store.drop_region("rg")
        assert store.free_dies() == list(range(16))

    def test_drop_nonempty_region_requires_force(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg"), num_dies=2)
        region.allocate(1)
        with pytest.raises(RegionError):
            store.drop_region("rg")
        store.drop_region("rg", force=True)
        assert store.regions() == []

    def test_dropped_dies_are_reusable(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rgA"), num_dies=2)
        pages = region.allocate(20)
        for rpn in pages:
            region.write(rpn, b"x", at=0.0)
        store.drop_region("rgA", force=True)
        fresh = store.create_region(RegionConfig(name="rgB"), num_dies=16)
        pages = fresh.allocate(30)
        for rpn in pages:
            fresh.write(rpn, b"y", at=0.0)
        fresh.engine.check_consistency()

    def test_add_dies_grows_region(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg"), num_dies=2)
        before = region.capacity_pages()
        store.add_dies("rg", 2)
        assert region.capacity_pages() == 2 * before

    def test_remove_die_shrinks_region_and_keeps_data(self):
        store = make_store()
        region = store.create_region(RegionConfig(name="rg"), num_dies=4)
        pages = region.allocate(40)
        for rpn in pages:
            region.write(rpn, bytes([rpn % 256]), at=0.0)
        victim_die = region.dies[0]
        store.remove_die("rg", victim_die)
        assert victim_die not in region.dies
        assert victim_die in store.free_dies()
        for rpn in pages:
            assert region.read(rpn, at=0.0)[0] == bytes([rpn % 256])

    def test_unknown_region_lookup(self):
        store = make_store()
        with pytest.raises(RegionError):
            store.region("nope")


class TestGlobalWearLeveling:
    def _wear_out_region(self, region, pages, rounds):
        for i in range(rounds):
            region.write(pages[i % len(pages)], b"x", at=0.0)

    def test_wear_imbalance_detected_and_fixed(self):
        store = make_store()
        store.global_wl_threshold = 10
        hot = store.create_region(RegionConfig(name="rgHot"), num_dies=4)
        cold = store.create_region(RegionConfig(name="rgCold"), num_dies=4)
        hot_pages = hot.allocate(8)
        cold_pages = cold.allocate(40)
        for rpn in cold_pages:
            cold.write(rpn, b"cold", at=0.0)
        self._wear_out_region(hot, hot_pages, 6000)
        assert store.wear_imbalance() > 10
        before = store.wear_imbalance()
        store.global_wear_level(at=0.0)
        assert store.wl_swaps == 1
        # hot region adopted a fresher die; imbalance strictly reduced
        assert store.wear_imbalance() < before
        # data survived the swap
        for rpn in cold_pages:
            assert cold.read(rpn, at=0.0)[0] == b"cold"
        store.check_consistency()

    def test_no_swap_below_threshold(self):
        store = make_store()
        store.create_region(RegionConfig(name="rgA"), num_dies=2)
        store.create_region(RegionConfig(name="rgB"), num_dies=2)
        store.global_wear_level(at=0.0)
        assert store.wl_swaps == 0


class TestReporting:
    def test_describe_lists_regions_sorted(self):
        store = make_store()
        store.create_region(RegionConfig(name="rgB"), num_dies=1)
        store.create_region(RegionConfig(name="rgA"), num_dies=1)
        names = [row["name"] for row in store.describe()]
        assert names == ["rgA", "rgB"]

    def test_aggregate_stats_sums_regions(self):
        store = make_store()
        a = store.create_region(RegionConfig(name="rgA"), num_dies=2)
        b = store.create_region(RegionConfig(name="rgB"), num_dies=2)
        [pa] = a.allocate(1)
        [pb] = b.allocate(1)
        a.write(pa, b"x", at=0.0)
        b.write(pb, b"y", at=0.0)
        assert store.metrics_registry().snapshot()["mgmt.host_writes"] == 2
