"""Region lifecycle and die allocation across the native flash device.

The :class:`RegionManager` owns the device's die pool.  It creates regions
(allocating dies channel-balanced, honouring ``MAX_CHIPS``/``MAX_CHANNELS``),
resizes them ("the number of dies in each region ... is dynamic and can
change over time"), drops them, and performs **global wear levelling** by
swapping dies between regions with diverging wear — the cross-region
counterpart of the engines' intra-die static WL.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.region import FAILED_DIE, Region, RegionConfig, RegionError
from repro.flash.address import PhysicalBlockAddress
from repro.flash.device import FlashDevice
from repro.mapping.blockinfo import BlockState, DieBookkeeping


class RegionManager:
    """Allocates dies to regions and manages their lifecycle.

    Args:
        device: the native flash device whose dies are being managed.
        global_wl_threshold: allowed spread of mean per-die erase counts
            between regions before :meth:`global_wear_level` acts.
    """

    def __init__(self, device: FlashDevice, global_wl_threshold: int = 64) -> None:
        self.device = device
        self.geometry = device.geometry
        self.global_wl_threshold = global_wl_threshold
        self.regions: dict[str, Region] = {}
        self._books: dict[int, DieBookkeeping] = {}
        self._die_owner: dict[int, str | None] = {}
        self._next_region_id = 1
        self._wl_swaps = 0
        for die in device.dies:
            books = DieBookkeeping(
                die.index, self.geometry.blocks_per_die, self.geometry.pages_per_block
            )
            books.adopt_factory_bad_blocks(die)
            self._books[die.index] = books
            self._die_owner[die.index] = None

    # ------------------------------------------------------------------
    # Pool introspection
    # ------------------------------------------------------------------
    def free_dies(self) -> list[int]:
        """Dies not yet assigned to any region."""
        return [d for d, owner in self._die_owner.items() if owner is None]

    def failed_dies(self) -> list[int]:
        """Dies quarantined after whole-die failures."""
        return [d for d, owner in self._die_owner.items() if owner == FAILED_DIE]

    def region(self, name: str) -> Region:
        """Return the region called ``name``."""
        try:
            return self.regions[name]
        except KeyError:
            raise RegionError(f"no region named {name!r}") from None

    def owner_of_die(self, die: int) -> str | None:
        """Name of the region owning ``die``, or ``None``."""
        self.geometry.check_die(die)
        return self._die_owner[die]

    @property
    def wl_swaps(self) -> int:
        """Cross-region die swaps performed by global wear levelling."""
        return self._wl_swaps

    # ------------------------------------------------------------------
    # Region lifecycle
    # ------------------------------------------------------------------
    def create_region(
        self,
        config: RegionConfig,
        num_dies: int,
        dies: list[int] | None = None,
    ) -> Region:
        """Create a region over ``num_dies`` dies (or an explicit die list).

        Dies are chosen channel-balanced from the free pool: the region is
        spread over as many (allowed) channels as possible, maximising its
        internal I/O parallelism.  ``MAX_CHIPS`` and ``MAX_CHANNELS`` from
        the config are enforced.
        """
        if config.name in self.regions:
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
        region._die_owner = self._die_owner
        for d in dies:
            self._die_owner[d] = config.name
        self.regions[config.name] = region
        return region

    def drop_region(self, name: str, force: bool = False) -> None:
        """Drop a region, returning its dies to the pool.

        Refuses if the region still has allocated pages unless ``force``.
        Dropped data is gone (the physical blocks stay dirty until another
        region erases them — matching flash semantics).
        """
        region = self.region(name)
        if region.used_pages() > 0 and not force:
            raise RegionError(
                f"region {name!r} still holds {region.used_pages()} allocated pages; "
                "use force=True to drop anyway"
            )
        for d in region.dies:
            self._die_owner[d] = None
            # reclaim physically so the next owner starts clean; the blocks
            # keep their wear history
            books = self._books[d]
            for info in books.blocks:
                if info.state is BlockState.BAD:
                    continue
                if info.written > 0:
                    self.device.erase_block(PhysicalBlockAddress(d, info.block))
                    if self.device.dies[d].blocks[info.block].is_bad:
                        books.reset_after_erase(info.block)
                        books.mark_bad(info.block)
                    else:
                        books.return_erased_block(info.block)
                elif info.state is BlockState.OPEN:
                    books.return_erased_block(info.block)
        del self.regions[name]

    def add_dies(self, name: str, count: int) -> list[int]:
        """Grow a region by ``count`` dies from the free pool."""
        region = self.region(name)
        dies = self._pick_dies(region.config, count, existing=region.dies)
        for d in dies:
            region.engine.add_die(d, self._books[d])
            self._die_owner[d] = name
        return dies

    def remove_die(self, name: str, die: int, at: float = 0.0) -> float:
        """Shrink a region: evacuate ``die`` and return it to the pool."""
        region = self.region(name)
        if self._die_owner.get(die) != name:
            raise RegionError(f"die {die} is not owned by region {name!r}")
        __, end = region.engine.evacuate_die(die, at)
        self._die_owner[die] = None
        return end

    # ------------------------------------------------------------------
    # Die selection
    # ------------------------------------------------------------------
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
        for d in dies:
            self.geometry.check_die(d)
            if self._die_owner[d] is not None:
                raise RegionError(f"die {d} already owned by {self._die_owner[d]!r}")
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
    # Global wear levelling (cross-region)
    # ------------------------------------------------------------------
    def wear_imbalance(self) -> float:
        """Spread between the most- and least-worn regions' mean die wear."""
        if len(self.regions) < 2:
            return 0.0
        means = [r.mean_die_erase_count() for r in self.regions.values()]
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
        if len(self.regions) < 2 or self.wear_imbalance() <= self.global_wl_threshold:
            return at
        hottest = max(self.regions.values(), key=lambda r: r.mean_die_erase_count())
        coldest = min(self.regions.values(), key=lambda r: r.mean_die_erase_count())
        if len(hottest.dies) < 2 or len(coldest.dies) < 2:
            return at
        worn_die = max(hottest.dies, key=lambda d: self.device.dies[d].total_erase_count)
        fresh_die = min(coldest.dies, key=lambda d: self.device.dies[d].total_erase_count)
        worn_books, at = hottest.engine.evacuate_die(worn_die, at)
        fresh_books, at = coldest.engine.evacuate_die(fresh_die, at)
        hottest.engine.add_die(fresh_die, fresh_books)
        coldest.engine.add_die(worn_die, worn_books)
        self._die_owner[fresh_die] = hottest.name
        self._die_owner[worn_die] = coldest.name
        self._wl_swaps += 1
        return at

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> list[dict[str, object]]:
        """Catalog rows for every region (sorted by name)."""
        return [self.regions[name].describe() for name in sorted(self.regions)]

    def aggregate_stats(self) -> dict[str, float]:
        """Sum of per-region management counters (Figure 3 inputs)."""
        totals: dict[str, float] = defaultdict(float)
        for region in self.regions.values():
            for key, value in region.stats.snapshot().items():
                if key.endswith("_us") or key == "write_amplification":
                    continue
                totals[key] += value
        return dict(totals)

    def snapshot(self) -> dict[str, float]:
        """Per-region counters under ``region.<name>.*`` (``Snapshottable``).

        This is the paper's key axis — Figure 3 behaviour is a *per-region*
        story — flattened into the global observability key space.
        """
        from repro.obs.api import prefixed

        merged: dict[str, float] = {}
        for name in sorted(self.regions):
            merged.update(prefixed(f"region.{name}", self.regions[name].snapshot()))
        return merged
