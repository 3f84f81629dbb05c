"""Baseline SSD: page-level mapping FTL behind the block-device interface.

This is the architecture the paper's Section 1 criticises.  The FTL owns
the logical-to-physical mapping, out-of-place updates, garbage collection
and wear levelling — all hidden behind
:class:`~repro.ftl.blockdevice.BlockDevice` with no knowledge of what the
host stores.

Internally the FTL is one :class:`~repro.mapping.engine.FlashSpaceEngine`
spanning **every die of the device**.  That single shared pool is exactly
what distinguishes it from NoFTL regions (:mod:`repro.core`), which run
one engine per region: the machinery is identical by construction, so any
measured difference comes from placement, not implementation detail.

Host writes that land while GC is reclaiming a die queue behind the GC
traffic on that die's timeline — reproducing the *unpredictable
performance caused by background FTL processes* the paper cites [1].

The class also serves as the engine underneath
:class:`repro.ftl.dftl.DFTL`: the internal logical page space is larger
than the exported LBA space so a subclass can store its own metadata
(translation pages) through the same frontier/GC machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.flash.device import FlashDevice
from repro.flash.payload import Payload
from repro.ftl.blockdevice import BlockDevice, DeviceFullError
from repro.mapping.blockinfo import DieBookkeeping
from repro.mapping.engine import FlashSpaceEngine, SpaceFullError
from repro.mapping.stats import ManagementStats

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.registry import MetricRegistry
    from repro.policies import GCPolicy, WLPolicy


class PageMappingFTL(BlockDevice):
    """Page-mapping FTL over a :class:`~repro.flash.device.FlashDevice`.

    Args:
        device: the underlying native flash device (fully owned by the FTL).
        overprovision: fraction of raw capacity hidden from the host; the
            slack is what makes GC possible.
        gc_policy: victim selection — a registered policy name (e.g.
            ``"greedy"``, ``"cost_benefit"``) or a
            :class:`~repro.policies.base.GCPolicy` instance.
        gc_trigger_free_blocks: per-die free-block watermark that triggers GC.
        gc_target_free_blocks: GC runs until the die has this many free blocks.
        wear_level_threshold: max allowed spread of per-block erase counts
            within a die before static WL kicks in; ``None`` disables WL.
        wl_check_interval_erases: how often (in GC erases) WL is evaluated.
        wl_policy: static-WL block ranking — a registered name or a
            :class:`~repro.policies.base.WLPolicy` instance.
        internal_pages: extra logical pages reserved for subclass metadata
            (e.g. DFTL translation pages); they shrink the exported LBA space.
    """

    def __init__(
        self,
        device: FlashDevice,
        overprovision: float = 0.1,
        gc_policy: "str | GCPolicy" = "greedy",
        gc_trigger_free_blocks: int = 2,
        gc_target_free_blocks: int = 3,
        wear_level_threshold: int | None = None,
        wl_check_interval_erases: int = 64,
        wl_policy: "str | WLPolicy" = "coldest_first",
        internal_pages: int = 0,
    ) -> None:
        if not 0.0 <= overprovision < 0.5:
            raise ValueError("overprovision must be in [0, 0.5)")
        self.device = device
        self.geometry = device.geometry
        self.stats = ManagementStats()
        books = {
            die.index: DieBookkeeping(
                die.index, self.geometry.blocks_per_die, self.geometry.pages_per_block
            )
            for die in device.dies
        }
        for die in device.dies:
            books[die.index].adopt_factory_bad_blocks(die)
        self._engine = FlashSpaceEngine(
            device,
            dies=list(range(self.geometry.dies)),
            books=books,
            stats=self.stats,
            gc_policy=gc_policy,
            gc_trigger_free_blocks=gc_trigger_free_blocks,
            gc_target_free_blocks=gc_target_free_blocks,
            wear_level_threshold=wear_level_threshold,
            wl_check_interval_erases=wl_check_interval_erases,
            wl_policy=wl_policy,
        )

        usable = int(self.geometry.total_pages * (1.0 - overprovision))
        max_usable = self._engine.safe_capacity_pages()
        if usable > max_usable:
            raise ValueError(
                f"overprovision={overprovision} exports {usable} pages but GC headroom "
                f"({self._engine.reserve_blocks_per_die} blocks/die) allows at most "
                f"{max_usable}; increase overprovision or device size"
            )
        self._internal_base = usable - internal_pages
        if self._internal_base <= 0:
            raise ValueError("internal_pages leaves no exported LBA space")
        self._num_lbas = self._internal_base
        self._space = usable  # total internal logical pages (user + metadata)

    # ------------------------------------------------------------------
    # BlockDevice interface
    # ------------------------------------------------------------------
    @property
    def num_lbas(self) -> int:
        """Exported logical sector count."""
        return self._num_lbas

    @property
    def sector_size(self) -> int:
        """Sector size = flash page size."""
        return self.geometry.page_size

    @property
    def engine(self) -> FlashSpaceEngine:
        """The underlying space engine (read-only introspection)."""
        return self._engine

    def read(self, lba: int, at: float | None = None) -> tuple[Payload, float]:
        """Host read of one sector."""
        self.check_lba(lba)
        issue = self.device.clock.now if at is None else at
        bus = self.device.events
        if bus is not None:
            bus.emit(issue, "host", "read", lba=lba)
        data, end = self._read_internal(lba, issue)
        self.stats.host_reads += 1
        self.stats.host_read_latency.record(end - issue)
        return data, end

    def write(self, lba: int, data: Payload, at: float | None = None) -> float:
        """Host write of one sector (out-of-place, may stall behind GC)."""
        self.check_lba(lba)
        issue = self.device.clock.now if at is None else at
        bus = self.device.events
        if bus is not None:
            bus.emit(issue, "host", "write", lba=lba)
        end = self._write_internal(lba, data, issue)
        self.stats.host_writes += 1
        self.stats.host_write_latency.record(end - issue)
        return end

    def trim(self, lba: int) -> None:
        """Host declares a sector dead; its physical page becomes garbage."""
        self.check_lba(lba)
        self._engine.invalidate(lba)

    # ------------------------------------------------------------------
    # Internal logical page space (shared with subclasses)
    # ------------------------------------------------------------------
    def internal_lpn(self, index: int) -> int:
        """Logical page number of reserved internal page ``index``."""
        lpn = self._internal_base + index
        if not self._internal_base <= lpn < self._space:
            raise ValueError(f"internal page index {index} out of range")
        return lpn

    def is_mapped(self, lpn: int) -> bool:
        """Whether an internal logical page currently has a physical page."""
        return self._engine.contains(lpn)

    def _read_internal(self, lpn: int, at: float) -> tuple[Payload, float]:
        return self._engine.read(lpn, at)

    def _write_internal(self, lpn: int, data: Payload, at: float) -> float:
        try:
            return self._engine.write(lpn, data, at)
        except SpaceFullError as exc:
            raise DeviceFullError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_blocks_per_die(self) -> list[int]:
        """Free-block counts for each die (GC health indicator)."""
        return [self._engine.books[d].free_count for d in range(self.geometry.dies)]

    def mapped_lbas(self) -> int:
        """Number of exported LBAs that currently hold data."""
        return sum(1 for key in self._engine.iter_keys() if key < self._num_lbas)

    def check_consistency(self) -> None:
        """Verify mapping/bookkeeping invariants (used by property tests)."""
        self._engine.check_consistency()

    def snapshot(self) -> dict[str, float]:
        """Management counters (``Snapshottable``); mounted under ``mgmt``."""
        return self.stats.snapshot()

    def metrics_registry(self) -> "MetricRegistry":
        """A :class:`~repro.obs.registry.MetricRegistry` over this SSD
        (``flash.*`` device counters plus ``mgmt.*`` FTL counters)."""
        from repro.obs.collect import registry_for_blockdevice

        return registry_for_blockdevice(self)
