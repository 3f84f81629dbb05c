"""Tests for atomic multi-page writes (paper's NoFTL advantage iv)."""

import pytest

from repro.core import NoFTLStore, RegionConfig
from repro.flash import FlashGeometry, instant_timing


def geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        oob_size=32,
        max_pe_cycles=100_000,
    )


def build_store(device=None):
    store = (
        NoFTLStore.create(geometry(), timing=instant_timing())
        if device is None
        else NoFTLStore(device)
    )
    store.create_region(RegionConfig(name="rg"), num_dies=4, dies=[0, 1, 2, 3])
    return store


class TestAtomicWrite:
    def test_batch_lands_and_reads_back(self):
        store = build_store()
        region = store.region("rg")
        pages = region.allocate(3)
        t = region.write_atomic([(p, bytes([p])) for p in pages], 0.0)
        for p in pages:
            assert region.read(p, t)[0] == bytes([p])
        region.engine.check_consistency()

    def test_batch_replaces_previous_versions(self):
        store = build_store()
        region = store.region("rg")
        pages = region.allocate(3)
        t = 0.0
        for p in pages:
            t = region.write(p, b"old", t)
        t = region.write_atomic([(p, b"new") for p in pages], t)
        for p in pages:
            assert region.read(p, t)[0] == b"new"

    def test_empty_and_duplicate_batches_rejected(self):
        store = build_store()
        region = store.region("rg")
        [p] = region.allocate(1)
        with pytest.raises(ValueError):
            region.engine.write_atomic([], 0.0)
        with pytest.raises(ValueError):
            region.engine.write_atomic([(p, b"a"), (p, b"b")], 0.0)

    def test_unallocated_page_rejected(self):
        from repro.core import RegionError

        store = build_store()
        region = store.region("rg")
        with pytest.raises(RegionError):
            region.write_atomic([(99, b"x")], 0.0)


class TestCrashAtomicity:
    def _seed(self, region, t=0.0):
        pages = region.allocate(3)
        for p in pages:
            t = region.write(p, b"v1", t)
        return pages, t

    def test_complete_batch_survives_crash(self):
        store = build_store()
        region = store.region("rg")
        pages, t = self._seed(region)
        t = region.write_atomic([(p, b"v2") for p in pages], t)
        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        for p in pages:
            assert recovered.region("rg").read(p, t)[0] == b"v2"

    def test_torn_batch_rolls_back_wholesale(self):
        """Simulate a crash mid-batch: hand-program a partial batch with
        atomic metadata, then recover — every page must show v1."""
        store = build_store()
        region = store.region("rg")
        pages, t = self._seed(region)
        # hand-craft 2 pages of a 3-page batch (the third "never made it")
        engine = region.engine
        atomic_id = store.device.next_sequence()
        for p in pages[:2]:
            die = engine._pick_die()
            block = engine._user_frontier[die]
            if block is None:
                block = engine._user_frontier[die] = engine.books[die].take_free_block()
            page = engine.books[die].written[block]
            store.device.program_page_packed(
                die, block, page, b"v2",
                p, store.device.next_sequence(), region.region_id, t,
                {"atomic_id": atomic_id, "atomic_size": 3},
            )
            engine.books[die].note_write(block, page, t)

        recovered = build_store(device=store.device)
        recovered.recover(at=t)
        for p in pages:
            assert recovered.region("rg").read(p, t)[0] == b"v1", (
                "torn atomic batch must roll back completely"
            )
        recovered.check_consistency()

    def test_gc_between_batch_pages_does_not_break_recovery(self):
        """Sequence numbers travel with relocated pages, so a GC running
        concurrently with an atomic batch cannot resurrect old versions."""
        import random

        store = build_store()
        region = store.region("rg")
        rng = random.Random(3)
        pages = region.allocate(40)
        t = 0.0
        for p in pages:
            t = region.write(p, b"seed", t)
        # churn to keep GC busy, interleaved with atomic batches
        for round_no in range(60):
            for __ in range(20):
                t = region.write(rng.choice(pages), b"churn", t)
            batch = rng.sample(pages, 3)
            t = region.write_atomic([(p, f"atom{round_no}".encode()) for p in batch], t)
            expected = {p: f"atom{round_no}".encode() for p in batch}
            recovered = build_store(device=store.device)
            recovered.recover(at=t)
            for p, payload in expected.items():
                assert recovered.region("rg").read(p, t)[0] == payload
        region.engine.check_consistency()
