"""NoFTL storage manager facade.

:class:`NoFTLStore` is what the DBMS's buffer manager talks to under the
NoFTL architecture (Figure 1): it owns the
:class:`~repro.core.region_manager.RegionManager`, routes page I/O to the
right region, and aggregates the statistics the paper reports.  There is
no FTL, no file system and no block-device indirection underneath — reads
and writes go straight to the region engines and from there to the native
flash commands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.region import Region, RegionConfig
from repro.core.region_manager import RegionManager
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.payload import Payload
from repro.flash.simclock import SimClock
from repro.flash.timing import TimingModel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.registry import MetricRegistry


class NoFTLStore:
    """DBMS-facing storage manager over native flash with regions.

    Typical construction is via :meth:`create`, which also builds the
    device::

        store = NoFTLStore.create(paper_geometry())
        region = store.create_region(RegionConfig("rgHot"), num_dies=8)
        [rpn] = region.allocate(1)
        region.write(rpn, b"page image", at=0.0)
    """

    def __init__(self, device: FlashDevice, global_wl_threshold: int = 64) -> None:
        self.device = device
        self.manager = RegionManager(device, global_wl_threshold=global_wl_threshold)

    @classmethod
    def create(
        cls,
        geometry: FlashGeometry,
        timing: TimingModel | None = None,
        clock: SimClock | None = None,
        global_wl_threshold: int = 64,
        initial_bad_block_rate: float = 0.0,
        seed: int = 0,
    ) -> "NoFTLStore":
        """Build a device with ``geometry`` and a store on top of it."""
        device = FlashDevice(
            geometry,
            timing=timing,
            clock=clock,
            initial_bad_block_rate=initial_bad_block_rate,
            seed=seed,
        )
        return cls(device, global_wl_threshold=global_wl_threshold)

    # ------------------------------------------------------------------
    # Region lifecycle (delegates to the manager)
    # ------------------------------------------------------------------
    def create_region(
        self, config: RegionConfig, num_dies: int, dies: list[int] | None = None
    ) -> Region:
        """Create a region; see :meth:`RegionManager.create_region`."""
        return self.manager.create_region(config, num_dies, dies=dies)

    def drop_region(self, name: str, force: bool = False) -> None:
        """Drop a region; see :meth:`RegionManager.drop_region`."""
        self.manager.drop_region(name, force=force)

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        return self.manager.region(name)

    def regions(self) -> list[Region]:
        """All regions, sorted by name."""
        return [self.manager.regions[n] for n in sorted(self.manager.regions)]

    # ------------------------------------------------------------------
    # Page I/O by (region, rpn)
    # ------------------------------------------------------------------
    def read(self, region_name: str, rpn: int, at: float) -> tuple[Payload, float]:
        """Read one logical page of a region."""
        return self.region(region_name).read(rpn, at)

    def write(self, region_name: str, rpn: int, data: Payload, at: float) -> float:
        """Write one logical page of a region (out-of-place)."""
        return self.region(region_name).write(rpn, data, at)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def global_wear_level(self, at: float = 0.0) -> float:
        """Run cross-region die-swap wear levelling if wear diverged."""
        return self.manager.global_wear_level(at)

    def recover(self, at: float = 0.0) -> float:
        """Rebuild every region's translation state from page metadata.

        The host-side mapping is volatile; after a crash a store created
        over the same device with the same region layout calls this to
        scan the OOB metadata and restore all mappings.  Returns the scan
        completion time (recovery cost is measured on the device clock).
        """
        for region in self.regions():
            at = region.recover(at)
        return at

    def check_consistency(self) -> None:
        """Verify every region engine's mapping invariants."""
        for region in self.regions():
            region.engine.check_consistency()

    # ------------------------------------------------------------------
    # Health (degraded mode after whole-die failures)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether any region lost dies to whole-die failures."""
        return any(r.degraded for r in self.regions())

    def failed_dies(self) -> list[int]:
        """Dies quarantined after whole-die failures (never re-allocated)."""
        return self.manager.failed_dies()

    def capacity_pages(self) -> int:
        """Logical pages all regions may hold with their *current* die
        sets — this shrinks when a die failure degrades a region."""
        return sum(r.capacity_pages() for r in self.regions())

    def capacity_report(self) -> dict[str, object]:
        """Degradation-aware capacity summary (the DBA's view).

        The die-health information itself is treated as checkpointed
        metadata (like the catalog): a production system persists it, so
        recovery after a crash does not resurrect a failed die.
        """
        return {
            "degraded": self.degraded,
            "failed_dies": self.failed_dies(),
            "capacity_pages": self.capacity_pages(),
            "regions": {
                r.name: {
                    "capacity_pages": r.capacity_pages(),
                    "used_pages": r.used_pages(),
                    "failed_dies": list(r.failed_dies),
                }
                for r in self.regions()
            },
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> dict[str, float]:
        """Summed management counters over all regions (Figure 3 inputs)."""
        return self.manager.aggregate_stats()

    def per_region_stats(self) -> dict[str, dict[str, float]]:
        """Management counters per region."""
        return {r.name: r.stats.snapshot() for r in self.regions()}

    def metrics_registry(self) -> MetricRegistry:
        """A :class:`~repro.obs.registry.MetricRegistry` over this stack
        (``flash.*``, ``mgmt.*``, ``region.<name>.*``)."""
        from repro.obs.collect import registry_for_store

        return registry_for_store(self)

    def describe(self) -> list[dict[str, object]]:
        """Catalog rows of all regions."""
        return self.manager.describe()
