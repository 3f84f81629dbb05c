"""NoFTL storage manager.

:class:`NoFTLStore` is what the DBMS's buffer manager talks to under the
NoFTL architecture (Figure 1).  It owns the device's dies: it creates
regions over them (channel-balanced, honouring ``MAX_CHIPS`` /
``MAX_CHANNELS``), resizes them ("the number of dies in each region ... is
dynamic and can change over time"), drops them, and performs **global wear
levelling** by swapping dies between regions with diverging wear — the
cross-region counterpart of the engines' intra-die static WL.  There is no
FTL, no file system and no block-device indirection underneath — regions
run their engines straight on the native flash commands.

Die ownership is read off the regions, not recorded beside them: a die is
owned while a region's engine keeps its bookkeeping, failed once a region
(live or dropped) lists it in ``failed_dies``, and free otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.core.region import Region, RegionConfig, RegionError
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.simclock import SimClock
from repro.flash.timing import TimingModel
from repro.mapping.blockinfo import DieBookkeeping

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

    Args:
        device: the native flash device whose dies the store manages.
        global_wl_threshold: allowed spread of mean per-die erase counts
            between regions before :meth:`global_wear_level` acts.
    """

    def __init__(self, device: FlashDevice, global_wl_threshold: int = 64) -> None:
        self.device = device
        self.geometry = device.geometry
        self.global_wl_threshold = global_wl_threshold
        #: cross-region die swaps performed by global wear levelling
        self.wl_swaps = 0
        self._regions: dict[str, Region] = {}
        self._books: dict[int, DieBookkeeping] = {}
        #: dies that dropped regions had lost, or were still rebuilding
        #: around or evacuating when a crash cut that short
        self._dropped_failed: list[int] = []
        self._next_region_id = 1
        for die in device.dies:
            books = DieBookkeeping(
                die.index, self.geometry.blocks_per_die, self.geometry.pages_per_block
            )
            books.adopt_factory_bad_blocks(die)
            self._books[die.index] = books

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
    # Regions and the die pool
    # ------------------------------------------------------------------
    def region(self, name: str) -> Region:
        """Return the region called ``name``."""
        try:
            return self._regions[name]
        except KeyError:
            raise RegionError(f"no region named {name!r}") from None

    def regions(self) -> list[Region]:
        """All regions, sorted by name."""
        return [self._regions[n] for n in sorted(self._regions)]

    def failed_dies(self) -> list[int]:
        """Dies quarantined after whole-die failures, never handed out
        again, also once their region is dropped."""
        failed = list(self._dropped_failed)
        for region in self._regions.values():
            failed.extend(region.failed_dies)
        return sorted(failed)

    def free_dies(self) -> list[int]:
        """Dies no region owns and none has lost, in ascending order.

        A region owns a die from adopting it until an evacuation or a
        rebuild around it completes and the engine hands the die's
        bookkeeping back, so a die whose rebuild a crash cut short is
        never free."""
        taken = set(self.failed_dies())
        for region in self._regions.values():
            taken.update(region.engine.books)
        return [d for d in self._books if d not in taken]

    def create_region(
        self, config: RegionConfig, num_dies: int, dies: list[int] | None = None
    ) -> Region:
        """Create a region over ``num_dies`` dies (or an explicit die list).

        Dies are chosen channel-balanced from the free pool: the region is
        spread over as many (allowed) channels as possible, maximising its
        internal I/O parallelism.  ``MAX_CHIPS`` and ``MAX_CHANNELS`` from
        the config are enforced.
        """
        if config.name in self._regions:
            raise RegionError(f"region {config.name!r} already exists")
        if dies is None:
            dies = self._pick_dies(config, num_dies)
        else:
            if len(dies) != num_dies:
                raise RegionError("explicit die list length must equal num_dies")
            self._validate_explicit(config, dies)
        region = Region(
            region_id=self._next_region_id,
            config=config,
            device=self.device,
            dies=dies,
            books={d: self._books[d] for d in dies},
        )
        self._next_region_id += 1
        self._regions[config.name] = region
        return region

    def drop_region(self, name: str, force: bool = False) -> None:
        """Drop a region, returning its healthy dies to the pool.

        Refuses if the region still has allocated pages unless ``force``.
        Every written block is erased, so the next owner starts clean; the
        blocks keep their wear history.  Dies the region lost, and one it was
        still rebuilding around or evacuating when a crash cut that short,
        stay out of the pool as failed.
        """
        region = self.region(name)
        if region.used_pages() > 0 and not force:
            raise RegionError(
                f"region {name!r} still holds {region.used_pages()} allocated pages; "
                "use force=True to drop anyway"
            )
        for d in region.dies:
            region.engine.release_die(d)
        self._dropped_failed.extend(region.failed_dies)
        self._dropped_failed.extend(d for d in region.engine.books if d not in region.dies)
        del self._regions[name]

    def add_dies(self, name: str, count: int) -> list[int]:
        """Grow a region by ``count`` dies from the free pool."""
        region = self.region(name)
        dies = self._pick_dies(region.config, count, existing=region.dies)
        for d in dies:
            region.engine.add_die(d, self._books[d])
        return dies

    def remove_die(self, name: str, die: int, at: float = 0.0) -> float:
        """Shrink a region: evacuate ``die`` and return it to the pool."""
        region = self.region(name)
        if die not in region.engine.dies:
            raise RegionError(f"die {die} is not owned by region {name!r}")
        return region.engine.evacuate_die(die, at)[1]

    def _pick_dies(
        self, config: RegionConfig, count: int, existing: list[int] | None = None
    ) -> list[int]:
        """Channel-balanced die selection honouring the config's limits."""
        if count <= 0:
            raise RegionError("a region needs at least one die")
        existing = existing or []
        free = self.free_dies()
        if len(free) < count:
            raise RegionError(
                f"need {count} free dies for region {config.name!r}, only {len(free)} left"
            )
        by_channel: dict[int, list[int]] = defaultdict(list)
        for d in free:
            by_channel[self.geometry.channel_of_die(d)].append(d)
        # channels already used by the region stay usable for free
        used_channels = {self.geometry.channel_of_die(d) for d in existing}
        used_chips = {self.geometry.chip_of_die(d) for d in existing}
        max_channels = config.max_channels or self.geometry.channels
        # candidate channels: those the region already uses are free to
        # reuse; new channels (richest free pool first) consume the budget
        channels = sorted(by_channel, key=lambda c: (-len(by_channel[c]), c))
        reusable = [c for c in channels if c in used_channels]
        budget = max(0, max_channels - len(used_channels))
        fresh = [c for c in channels if c not in used_channels][:budget]
        allowed = reusable + fresh
        chosen: list[int] = []
        chips = set(used_chips)
        # round-robin across allowed channels for balance
        cursors = {c: 0 for c in allowed}
        while len(chosen) < count:
            progressed = False
            for c in allowed:
                if len(chosen) >= count:
                    break
                pool = by_channel[c]
                while cursors[c] < len(pool):
                    die = pool[cursors[c]]
                    cursors[c] += 1
                    chip = self.geometry.chip_of_die(die)
                    if config.max_chips is not None and chip not in chips:
                        if len(chips) >= config.max_chips:
                            continue
                    chosen.append(die)
                    chips.add(chip)
                    progressed = True
                    break
            if not progressed:
                raise RegionError(
                    f"cannot place {count} dies for region {config.name!r} within "
                    f"MAX_CHIPS={config.max_chips}, MAX_CHANNELS={config.max_channels}"
                )
        return sorted(chosen)

    def _validate_explicit(self, config: RegionConfig, dies: list[int]) -> None:
        if len(set(dies)) != len(dies):
            raise RegionError("duplicate dies in explicit die list")
        free = set(self.free_dies())
        for d in dies:
            self.geometry.check_die(d)
            if d not in free:
                raise RegionError(f"die {d} is owned by a region or has failed")
        channels = {self.geometry.channel_of_die(d) for d in dies}
        chips = {self.geometry.chip_of_die(d) for d in dies}
        if config.max_channels is not None and len(channels) > config.max_channels:
            raise RegionError(
                f"explicit die list spans {len(channels)} channels, "
                f"MAX_CHANNELS={config.max_channels}"
            )
        if config.max_chips is not None and len(chips) > config.max_chips:
            raise RegionError(
                f"explicit die list spans {len(chips)} chips, MAX_CHIPS={config.max_chips}"
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def wear_imbalance(self) -> float:
        """Spread between the most- and least-worn regions' mean die wear."""
        if len(self._regions) < 2:
            return 0.0
        means = [r.mean_die_erase_count() for r in self._regions.values()]
        return max(means) - min(means)

    def global_wear_level(self, at: float = 0.0) -> float:
        """Swap dies between wear-diverging regions if needed.

        When the hottest region's mean die wear exceeds the coldest's by
        more than ``global_wl_threshold``, the hottest region's most-worn
        die and the coldest region's least-worn die trade places: both are
        evacuated, then adopted by the other region.  Hot data then lands
        on fresh cells while worn cells shelter cold data.
        Returns the completion time of the swap (== ``at`` if none).
        """
        if len(self._regions) < 2 or self.wear_imbalance() <= self.global_wl_threshold:
            return at
        hottest = max(self._regions.values(), key=lambda r: r.mean_die_erase_count())
        coldest = min(self._regions.values(), key=lambda r: r.mean_die_erase_count())
        if len(hottest.dies) < 2 or len(coldest.dies) < 2:
            return at
        worn_die = max(hottest.dies, key=lambda d: self.device.dies[d].total_erase_count)
        fresh_die = min(coldest.dies, key=lambda d: self.device.dies[d].total_erase_count)
        worn_books, at = hottest.engine.evacuate_die(worn_die, at)
        fresh_books, at = coldest.engine.evacuate_die(fresh_die, at)
        hottest.engine.add_die(fresh_die, fresh_books)
        coldest.engine.add_die(worn_die, worn_books)
        self.wl_swaps += 1
        return at

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
    def metrics_registry(self) -> MetricRegistry:
        """A :class:`~repro.obs.registry.MetricRegistry` over this stack
        (``flash.*``, ``mgmt.*``, ``region.<name>.*``)."""
        from repro.obs.collect import registry_for_store

        return registry_for_store(self)

    def describe(self) -> list[dict[str, object]]:
        """Catalog rows of all regions (sorted by name)."""
        return [r.describe() for r in self.regions()]
