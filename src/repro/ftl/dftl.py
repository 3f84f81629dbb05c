"""DFTL: a page-mapping FTL with a *cached* mapping table.

Models the paper's claim (i) — *significant overhead primarily due to
limited on-device resources available to the FTL*.  A real SSD controller
cannot hold the full page-level mapping in SRAM; DFTL (Gupta et al.,
ASPLOS'09) keeps the map on flash in *translation pages* and caches hot
entries in a small Cached Mapping Table (CMT):

* CMT **hit** — no extra flash traffic;
* CMT **miss** — one translation-page *read* before the data access;
* **eviction of a dirty entry** — one translation-page *write* (all dirty
  entries belonging to the same translation page are flushed together,
  DFTL's "batching" optimisation).

Implementation note: the authoritative logical-to-physical map stays in the
host-memory array of :class:`~repro.ftl.page_mapping.PageMappingFTL` (a
simulation convenience — correctness does not depend on decoding flash
payloads); the CMT is the *timing and wear* overlay that injects exactly the
translation I/O a real DFTL would perform.  Translation pages are real flash
pages written through the same frontier/GC machinery, so translation traffic
amplifies GC and wear like it does on a real device.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.flash.device import FlashDevice
from repro.flash.payload import Payload
from repro.ftl.page_mapping import PageMappingFTL


#: Mapping entries per 4 KiB translation page (8 bytes per entry).
ENTRIES_PER_PAGE_BYTES = 8


class DFTL(PageMappingFTL):
    """Demand-paged FTL with a bounded Cached Mapping Table.

    Args:
        device: underlying native flash device.
        cmt_entries: capacity of the cached mapping table, in entries.
            Real controllers cache a small fraction of the map; pick a
            value well below ``num_lbas`` to see translation overhead.
        overprovision / gc_policy: as in :class:`PageMappingFTL`; static
            wear levelling stays off.
    """

    def __init__(
        self,
        device: FlashDevice,
        cmt_entries: int = 4096,
        overprovision: float = 0.1,
        gc_policy: str = "greedy",
    ) -> None:
        if cmt_entries < 1:
            raise ValueError("cmt_entries must be >= 1")
        entries_per_tpage = device.geometry.page_size // ENTRIES_PER_PAGE_BYTES
        # Solve for a user space whose translation pages also fit.
        usable = int(device.geometry.total_pages * (1.0 - overprovision))
        user_pages = (usable * entries_per_tpage) // (entries_per_tpage + 1)
        trans_pages = -(-user_pages // entries_per_tpage)  # ceil
        super().__init__(
            device,
            overprovision=overprovision,
            gc_policy=gc_policy,
            internal_pages=trans_pages,
        )
        self.entries_per_tpage = entries_per_tpage
        self.cmt_entries = cmt_entries
        self._cmt: OrderedDict[int, bool] = OrderedDict()  # lpn -> dirty
        #: translation page index -> its dirty cached LPNs (no CMT scan)
        self._dirty_lpns: defaultdict[int, set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Host interface with translation charging
    # ------------------------------------------------------------------
    def read(self, lba: int, at: float | None = None) -> tuple[Payload, float]:
        """Host read: translation lookup first, then the data read."""
        self.check_lba(lba)
        issue = self.device.clock.now if at is None else at
        t = self._translate(lba, issue, dirty=False)
        data, end = self._read_internal(lba, t)
        self.stats.host_reads += 1
        self.stats.host_read_latency.record(end - issue)
        return data, end

    def write(self, lba: int, data: Payload, at: float | None = None) -> float:
        """Host write: translation lookup, data write, CMT entry dirtied."""
        self.check_lba(lba)
        issue = self.device.clock.now if at is None else at
        t = self._translate(lba, issue, dirty=True)
        end = self._write_internal(lba, data, t)
        self.stats.host_writes += 1
        self.stats.host_write_latency.record(end - issue)
        return end

    # ------------------------------------------------------------------
    # CMT machinery
    # ------------------------------------------------------------------
    def cmt_len(self) -> int:
        """Current number of cached mapping entries."""
        return len(self._cmt)

    def _tpage_lpn(self, lba: int) -> int:
        """Internal LPN of the translation page covering ``lba``."""
        return self.internal_lpn(lba // self.entries_per_tpage)

    def _translate(self, lba: int, at: float, dirty: bool) -> float:
        """Charge translation I/O for accessing ``lba``; return new time."""
        if lba in self._cmt:
            self._cmt.move_to_end(lba)
            if dirty:
                self._cmt[lba] = True
                self._dirty_lpns[lba // self.entries_per_tpage].add(lba)
            return at
        # miss: fetch the translation page (if it was ever persisted)
        tpage = self._tpage_lpn(lba)
        if self.is_mapped(tpage):
            __, at = self._read_internal(tpage, at)
            self.stats.trans_reads += 1
        at = self._cmt_insert(lba, dirty, at)
        return at

    def _cmt_insert(self, lba: int, dirty: bool, at: float) -> float:
        self._cmt[lba] = dirty
        self._cmt.move_to_end(lba)
        if dirty:
            self._dirty_lpns[lba // self.entries_per_tpage].add(lba)
        while len(self._cmt) > self.cmt_entries:
            at = self._evict_lru(at)
        return at

    def _evict_lru(self, at: float) -> float:
        victim, victim_dirty = next(iter(self._cmt.items()))
        if not victim_dirty:
            del self._cmt[victim]
            return at
        # dirty eviction: write back the translation page, flushing every
        # dirty sibling entry that lives in the same page (DFTL batching)
        tpage_index = victim // self.entries_per_tpage
        tpage = self.internal_lpn(tpage_index)
        payload = b"T" * min(64, self.geometry.page_size)  # synthetic body
        at = self._write_internal(tpage, payload, at)
        self.stats.trans_writes += 1
        for lpn in self._dirty_lpns.pop(tpage_index):
            self._cmt[lpn] = False
        del self._cmt[victim]
        return at
