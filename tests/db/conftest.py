"""Shared fixtures for DBMS-layer tests."""

import pytest

from repro.core import NoFTLStore, RegionConfig
from repro.db.backend import NoFTLBackend, StorageBackend, _Tablespace
from repro.flash import FlashGeometry, instant_timing


class MemoryBackend(StorageBackend):
    """Trivial in-memory backend for isolating buffer/heap/btree logic.

    Pages are stored in a dict and every I/O costs ``io_cost`` virtual
    microseconds, so tests can assert time accounting without a device.
    Like the flash device, it stores a payload as given and hands back that
    same object (a ``bytes`` or a :class:`~repro.flash.DeferredImage`), so
    a test that inspects a stored image reads it with ``bytes()``.
    """

    def __init__(self, page_size: int = 512, io_cost: float = 10.0) -> None:
        super().__init__(page_size)
        self.io_cost = io_cost
        self.pages: dict[tuple[int, int], bytes] = {}
        self.reads = 0
        self.writes = 0
        meta_id = self.create_space("DBMS_METADATA")
        assert meta_id == 0

    def _bind_space(self, space: _Tablespace, region) -> None:
        return None

    def _grow_extent(self, space: _Tablespace, at: float) -> float:
        base = len(space.page_map)
        space.page_map.extend(range(base, base + space.extent_pages))
        return at

    def _read(self, space: _Tablespace, page_no: int, at: float):
        self.reads += 1
        key = (space.space_id, page_no)
        if key not in self.pages:
            raise KeyError(f"page {key} never written")
        return self.pages[key], at + self.io_cost

    def _write(self, space: _Tablespace, page_no: int, data: bytes, at: float) -> float:
        self.writes += 1
        self.pages[(space.space_id, page_no)] = data
        return at + self.io_cost

    def _discard_page(self, space: _Tablespace, page_no: int) -> None:
        self.pages.pop((space.space_id, page_no), None)

    def images(self):
        """Every stored page as bytes, deferred images encoded."""
        return {key: bytes(data) for key, data in self.pages.items()}

    def io_stats(self):
        return {"reads": self.reads, "writes": self.writes}


@pytest.fixture
def memory_backend():
    return MemoryBackend()


@pytest.fixture
def noftl_backend():
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size=512,
        oob_size=16,
        max_pe_cycles=100_000,
    )
    store = NoFTLStore.create(geometry, timing=instant_timing())
    store.create_region(RegionConfig(name="rgDefault"), num_dies=8)
    return NoFTLBackend(store, default_region="rgDefault")
