"""Tests for crash recovery: rebuilding translation state from OOB metadata."""

import random

import pytest

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry, instant_timing


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


def build_store(device=None):
    if device is None:
        store = NoFTLStore.create(geometry(), timing=instant_timing())
    else:
        store = NoFTLStore(device)
    store.create_region(RegionConfig(name="rgA"), num_dies=4, dies=[0, 1, 2, 3])
    store.create_region(RegionConfig(name="rgB"), num_dies=4, dies=[4, 5, 6, 7])
    return store


class TestRecovery:
    def write_workload(self, store, seed=1, rounds=400):
        rng = random.Random(seed)
        payloads = {}
        t = 0.0
        for name in ("rgA", "rgB"):
            region = store.region(name)
            pages = region.allocate(40)
            for __ in range(rounds):
                rpn = rng.choice(pages)
                payload = bytes([rng.randrange(256)]) * 4
                t = region.write(rpn, payload, t, group=rng.choice([1, 2]))
                payloads[(name, rpn)] = payload
        return payloads, t

    def test_rebuild_restores_every_live_page(self):
        store = build_store()
        payloads, t = self.write_workload(store)
        # "crash": a fresh store over the same device, same region layout
        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        for (name, rpn), payload in payloads.items():
            assert recovered.region(name).read(rpn, t)[0] == payload
        recovered.check_consistency()

    def test_rebuild_keeps_latest_version_only(self):
        store = build_store()
        region = store.region("rgA")
        [rpn] = region.allocate(1)
        t = 0.0
        for version in range(25):
            t = region.write(rpn, bytes([version]), t)
        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        assert recovered.region("rgA").read(rpn, t)[0] == bytes([24])

    def test_rebuild_is_chargeable_io(self):
        store = NoFTLStore.create(geometry())  # real timing
        store.create_region(RegionConfig(name="rgA"), num_dies=4, dies=[0, 1, 2, 3])
        region = store.region("rgA")
        pages = region.allocate(30)
        t = 0.0
        for p in pages:
            t = region.write(p, b"x", t)
        reads_before = store.device.stats.reads
        end = region.recover(at=t)
        assert end > t  # the scan took virtual time
        assert store.device.stats.reads > reads_before

    def test_recovered_region_accepts_new_writes_and_gc(self):
        store = build_store()
        payloads, t = self.write_workload(store, rounds=300)
        recovered = build_store(device=store.device)
        t = recovered.recover(at=t)
        region = recovered.region("rgA")
        pages = region.allocate(20)
        rng = random.Random(9)
        for __ in range(800):
            t = region.write(rng.choice(pages), b"new", t)
        recovered.check_consistency()

    def test_allocation_state_rederived(self):
        """Free/trim state is volatile: recovery conservatively resurrects
        freed pages whose data was never overwritten (un-journaled TRIM
        semantics); pages freed *and* reused recover with the new owner's
        content."""
        store = build_store()
        region = store.region("rgA")
        pages = region.allocate(10)
        t = 0.0
        for p in pages:
            t = region.write(p, b"x", t)
        region.free(pages[:3])  # host-side only: flash still holds the data
        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        rec_region = recovered.region("rgA")
        # conservative: the freed-but-unwiped pages come back as live
        assert rec_region.used_pages() == 10
        for p in pages[:3]:
            assert recovered.region("rgA").read(p, t)[0] == b"x"
        # and allocation continues above the recovered key space
        fresh = rec_region.allocate(2)
        assert not set(fresh) & set(pages)

    def test_regions_do_not_recover_each_others_pages(self):
        store = build_store()
        a, b = store.region("rgA"), store.region("rgB")
        [pa] = a.allocate(1)
        [pb] = b.allocate(1)
        t = a.write(pa, b"A", 0.0)
        t = b.write(pb, b"B", t)
        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        assert recovered.region("rgA").read(pa, t)[0] == b"A"
        assert recovered.region("rgB").read(pb, t)[0] == b"B"
        assert recovered.region("rgA").used_pages() == 1
