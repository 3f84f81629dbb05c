"""Storage backends: how tablespaces reach physical storage.

The DBMS above this interface is identical in both worlds; the backend is
where the paper's two architectures diverge:

* :class:`NoFTLBackend` — tablespaces couple to **regions**
  (:mod:`repro.core`); the DBMS performs physical placement itself.
* :class:`BlockDeviceBackend` — tablespaces are carved out of a flat LBA
  space on an FTL-based SSD (:mod:`repro.ftl`); placement is whatever the
  opaque FTL does.

Both backends route *extent-map updates* through a ``DBMS_METADATA`` space
(the paper's region 0 workload): every extent allocation persists the
owning tablespace's map page.

Page addressing above the backend is uniform: ``(space_id, page_no)``.
"""

from __future__ import annotations

import abc
import struct

from repro.core.placement import DBMS_METADATA
from repro.core.region import Region
from repro.core.store import NoFTLStore
from repro.flash.payload import Payload
from repro.ftl.blockdevice import BlockDevice


class BackendError(Exception):
    """Invalid space id, page number, or backend operation."""


#: space_id of the DBMS metadata space, created by every backend at start.
METADATA_SPACE_ID = 0

#: pages added to a tablespace per extent by default (128K / 4K pages).
DEFAULT_EXTENT_PAGES = 32


class _Tablespace:
    """Backend-internal tablespace state: name and the page map."""

    def __init__(self, space_id: int, name: str, extent_pages: int) -> None:
        if extent_pages <= 0:
            raise BackendError(f"tablespace {name!r}: extent_pages must be positive")
        self.space_id = space_id
        self.name = name
        self.extent_pages = extent_pages
        self.page_map: list[int] = []  # page_no -> backend-specific address
        self.free_page_nos: list[int] = []
        self.next_page_no = 0


class StorageBackend(abc.ABC):
    """Uniform page storage addressed by ``(space_id, page_no)``."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._spaces: dict[int, _Tablespace] = {}
        self._space_ids: dict[str, int] = {}
        self._next_space_id = METADATA_SPACE_ID
        self.space_reads: dict[int, int] = {}
        self.space_writes: dict[int, int] = {}

    # -- tablespace management -----------------------------------------
    def create_space(
        self,
        name: str,
        region: str | None = None,
        extent_pages: int = DEFAULT_EXTENT_PAGES,
    ) -> int:
        """Create a tablespace; returns its space id.

        ``region`` selects the backing region (NoFTL backend only; the
        block-device backend accepts and ignores it, as an FTL offers no
        placement control — that asymmetry is the paper's point).
        """
        if name in self._space_ids:
            raise BackendError(f"tablespace {name!r} already exists")
        space_id = self._next_space_id
        self._next_space_id += 1
        space = _Tablespace(space_id, name, extent_pages)
        self._spaces[space_id] = space
        self._space_ids[name] = space_id
        self._bind_space(space, region)
        return space_id

    def space_id(self, name: str) -> int:
        """Space id of tablespace ``name``."""
        try:
            return self._space_ids[name]
        except KeyError:
            raise BackendError(f"no tablespace named {name!r}") from None

    def space_name(self, space_id: int) -> str:
        """Name of tablespace ``space_id``."""
        return self._space(space_id).name

    def spaces(self) -> list[str]:
        """All tablespace names (creation order)."""
        return [self._spaces[i].name for i in sorted(self._spaces)]

    def allocated_pages(self, space_id: int) -> int:
        """Pages currently allocated in the tablespace."""
        space = self._space(space_id)
        return space.next_page_no - len(space.free_page_nos)

    def _space(self, space_id: int) -> _Tablespace:
        try:
            return self._spaces[space_id]
        except KeyError:
            raise BackendError(f"no tablespace with id {space_id}") from None

    # -- page lifecycle ---------------------------------------------------
    def allocate_page(self, space_id: int, at: float) -> tuple[int, float]:
        """Allocate one page; returns ``(page_no, completion_us)``.

        Growing the tablespace by an extent persists the extent map to the
        metadata space (charged as a page write).
        """
        space = self._space(space_id)
        if space.free_page_nos:
            return space.free_page_nos.pop(), at
        page_no = space.next_page_no
        if page_no >= len(space.page_map):
            at = self._grow_extent(space, at)
            if space.space_id != METADATA_SPACE_ID:
                at = self._persist_extent_map(space, at)
        space.next_page_no += 1
        return page_no, at

    def free_page(self, space_id: int, page_no: int) -> None:
        """Return a page to its tablespace's free list."""
        space = self._space(space_id)
        self._check_page(space, page_no)
        if page_no in space.free_page_nos:
            raise BackendError(f"page {page_no} of {space.name!r} already free")
        space.free_page_nos.append(page_no)
        self._discard_page(space, page_no)

    def _check_page(self, space: _Tablespace, page_no: int) -> None:
        if not 0 <= page_no < space.next_page_no:
            raise BackendError(
                f"page {page_no} out of range [0, {space.next_page_no}) in {space.name!r}"
            )

    def _persist_extent_map(self, space: _Tablespace, at: float) -> float:
        """Write the tablespace's extent map into the metadata space."""
        meta = self._space(METADATA_SPACE_ID)
        # one metadata page per tablespace, page_no == space_id - 1
        meta_page = space.space_id - 1
        while meta.next_page_no <= meta_page:
            page_no, at = self.allocate_page(METADATA_SPACE_ID, at)
            assert page_no == meta.next_page_no - 1
        payload = self._encode_extent_map(space)
        return self.write_page(METADATA_SPACE_ID, meta_page, payload, at)

    def _encode_extent_map(self, space: _Tablespace) -> bytes:
        entries = space.page_map[: (self.page_size - 8) // 8]
        header = struct.pack("<II", space.space_id, len(space.page_map))
        body = b"".join(struct.pack("<q", addr) for addr in entries)
        return header + body

    # -- I/O ----------------------------------------------------------------
    def read_page(self, space_id: int, page_no: int, at: float) -> tuple[Payload, float]:
        """Read one page; returns ``(data, completion_us)``, ``data`` being
        the payload as it was written: ``bytes``, or the
        :class:`~repro.flash.payload.DeferredImage` of a buffer-pool
        write-back (``bytes(data)`` encodes it)."""
        space = self._space(space_id)
        self._check_page(space, page_no)
        self.space_reads[space_id] = self.space_reads.get(space_id, 0) + 1
        return self._read(space, page_no, at)

    def write_page(self, space_id: int, page_no: int, data: Payload, at: float) -> float:
        """Write one page; returns completion time."""
        space = self._space(space_id)
        self._check_page(space, page_no)
        if len(data) > self.page_size:
            raise BackendError(f"page image of {len(data)} bytes exceeds {self.page_size}")
        self.space_writes[space_id] = self.space_writes.get(space_id, 0) + 1
        return self._write(space, page_no, data, at)

    # -- backend-specific ----------------------------------------------------
    @abc.abstractmethod
    def _bind_space(self, space: _Tablespace, region: str | None) -> None:
        """Attach a new tablespace to physical storage."""

    @abc.abstractmethod
    def _grow_extent(self, space: _Tablespace, at: float) -> float:
        """Extend the page map by one extent of physical pages."""

    @abc.abstractmethod
    def _read(self, space: _Tablespace, page_no: int, at: float) -> tuple[Payload, float]:
        """Physical read."""

    @abc.abstractmethod
    def _write(self, space: _Tablespace, page_no: int, data: Payload, at: float) -> float:
        """Physical write."""

    @abc.abstractmethod
    def _discard_page(self, space: _Tablespace, page_no: int) -> None:
        """Tell physical storage the page's content is dead."""

    @abc.abstractmethod
    def io_stats(self) -> dict[str, float]:
        """Headline physical-I/O counters for reporting."""


class NoFTLBackend(StorageBackend):
    """Tablespaces on NoFTL regions (the paper's architecture).

    Args:
        store: the NoFTL store whose regions back the tablespaces.
        default_region: region used when ``create_space`` gives none.
        metadata_region: region for the ``DBMS_METADATA`` space; defaults
            to ``default_region``.
    """

    def __init__(
        self,
        store: NoFTLStore,
        default_region: str,
        metadata_region: str | None = None,
        metadata_extent_pages: int = DEFAULT_EXTENT_PAGES,
    ) -> None:
        super().__init__(store.device.geometry.page_size)
        self.store = store
        self.default_region = default_region
        self._regions_by_space: dict[int, Region] = {}
        self._metadata_region = metadata_region or default_region
        meta_id = self.create_space(
            DBMS_METADATA, region=self._metadata_region, extent_pages=metadata_extent_pages
        )
        assert meta_id == METADATA_SPACE_ID

    def region_of_space(self, space_id: int) -> Region:
        """The region backing tablespace ``space_id``."""
        return self._regions_by_space[space_id]

    def _bind_space(self, space: _Tablespace, region: str | None) -> None:
        region_name = region or self.default_region
        self._regions_by_space[space.space_id] = self.store.region(region_name)

    def _grow_extent(self, space: _Tablespace, at: float) -> float:
        region = self._regions_by_space[space.space_id]
        rpns = region.allocate(space.extent_pages)
        space.page_map.extend(rpns)
        return at

    def _read(self, space: _Tablespace, page_no: int, at: float) -> tuple[Payload, float]:
        region = self._regions_by_space[space.space_id]
        return region.read(space.page_map[page_no], at)

    def _write(self, space: _Tablespace, page_no: int, data: Payload, at: float) -> float:
        region = self._regions_by_space[space.space_id]
        return region.write(space.page_map[page_no], data, at, group=space.space_id)

    def _discard_page(self, space: _Tablespace, page_no: int) -> None:
        region = self._regions_by_space[space.space_id]
        region.engine.invalidate(space.page_map[page_no])

    def io_stats(self) -> dict[str, float]:
        stats = self.store.aggregate_stats()
        stats["device_erases"] = float(self.store.device.stats.erases)
        return stats


class BlockDeviceBackend(StorageBackend):
    """Tablespaces carved from a flat LBA space on an FTL SSD.

    The DBMS has no say in physical placement here: extents are just LBA
    ranges handed out sequentially, and everything below the block-device
    interface is the FTL's business.
    """

    def __init__(self, device: BlockDevice) -> None:
        super().__init__(device.sector_size)
        self.device = device
        self._next_lba = 0
        self._free_lbas: list[int] = []
        meta_id = self.create_space(DBMS_METADATA)
        assert meta_id == METADATA_SPACE_ID

    def _bind_space(self, space: _Tablespace, region: str | None) -> None:
        # region hints are accepted but meaningless on a block device
        return None

    def _grow_extent(self, space: _Tablespace, at: float) -> float:
        lbas: list[int] = []
        while self._free_lbas and len(lbas) < space.extent_pages:
            lbas.append(self._free_lbas.pop())
        fresh = space.extent_pages - len(lbas)
        if self._next_lba + fresh > self.device.num_lbas:
            raise BackendError(
                f"block device exhausted: need {fresh} LBAs, "
                f"{self.device.num_lbas - self._next_lba} left"
            )
        lbas.extend(range(self._next_lba, self._next_lba + fresh))
        self._next_lba += fresh
        space.page_map.extend(lbas)
        return at

    def _read(self, space: _Tablespace, page_no: int, at: float) -> tuple[Payload, float]:
        return self.device.read(space.page_map[page_no], at=at)

    def _write(self, space: _Tablespace, page_no: int, data: Payload, at: float) -> float:
        return self.device.write(space.page_map[page_no], data, at=at)

    def _discard_page(self, space: _Tablespace, page_no: int) -> None:
        self.device.trim(space.page_map[page_no])

    def io_stats(self) -> dict[str, float]:
        stats = dict(self.device.stats.snapshot())
        return stats
