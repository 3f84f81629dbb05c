"""Registry builders: mount a live stack's stats under the global key space.

These functions do the wiring described in the architecture docs: given a
running object (a :class:`~repro.db.database.Database`, a
:class:`~repro.core.store.NoFTLStore`, an FTL block device), they return a
:class:`~repro.obs.registry.MetricRegistry` with every layer mounted
under its canonical namespace:

========================  =====================================================
``flash.*``               native device counters (:class:`FlashStats`)
``mgmt.*``                management totals (FTL stats, or all regions summed)
``region.<name>.*``       per-region breakdowns — the paper's key axis
``db.buffer.*``           buffer-pool counters
``faults.*``              fault injection & recovery (when an injector is attached)
========================  =====================================================

Everything is mounted as a *source*, read live at ``snapshot()`` time:
building a registry never perturbs the underlying counters (only a
window's :meth:`~repro.obs.registry.MetricRegistry.mark` copies them).
The benchmark driver's numbers (TPS, transaction latencies) are not
mounted: they are the ``workload`` of an experiment result
(:meth:`repro.tpcc.metrics.WorkloadMetrics.summary`).
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

from repro.flash.stats import LatencyAccumulator
from repro.mapping.stats import ManagementStats
from repro.obs.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from collections.abc import Iterable

    from repro.core.region import Region
    from repro.core.store import NoFTLStore
    from repro.db.database import Database
    from repro.flash.device import FlashDevice
    from repro.ftl.page_mapping import PageMappingFTL


def combined_management_stats(regions: Iterable[Region]) -> ManagementStats:
    """Sum per-region :class:`ManagementStats` into one (latencies merged)."""
    total = ManagementStats()
    for region in regions:
        for f in fields(ManagementStats):
            mine, theirs = getattr(total, f.name), getattr(region.stats, f.name)
            if isinstance(mine, LatencyAccumulator):
                mine.merge(theirs)
            else:
                setattr(total, f.name, mine + theirs)
    return total


def _mount_device(registry: MetricRegistry, device: FlashDevice) -> None:
    registry.register_source("flash", device.stats)
    registry.gauge("flash.wear.total_erase_count", device.total_erase_count)
    registry.gauge("flash.wear.max_erase_count", device.max_erase_count)
    injector = getattr(device, "faults", None)
    if injector is not None:
        registry.register_source("faults", injector.stats)


def registry_for_store(store: NoFTLStore) -> MetricRegistry:
    """Registry over a :class:`~repro.core.store.NoFTLStore` stack."""
    registry = MetricRegistry()
    _mount_device(registry, store.device)
    registry.register_source("mgmt", lambda: combined_management_stats(store.regions()))
    for region in store.regions():
        registry.register_source(f"region.{region.name}", region.stats)
    return registry


def registry_for_blockdevice(ftl: PageMappingFTL) -> MetricRegistry:
    """Registry over an FTL block device (PageMappingFTL / DFTL / hot-cold)."""
    registry = MetricRegistry()
    _mount_device(registry, ftl.device)
    registry.register_source("mgmt", ftl.stats)
    return registry


def registry_for_database(db: Database) -> MetricRegistry:
    """Registry over a full :class:`~repro.db.database.Database` stack.

    Mounts the flash device, the management layer (whichever architecture
    the database runs on), every region, and the buffer pool.
    """
    if db.store is not None:
        registry = registry_for_store(db.store)
    else:
        registry = registry_for_blockdevice(db.ftl)
    registry.register_source("db.buffer", db.buffer_pool.stats)
    registry.gauge("db.buffer.buffered_pages", lambda: float(db.buffer_pool.buffered_pages()))
    return registry
