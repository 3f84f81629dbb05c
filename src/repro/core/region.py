"""NoFTL regions: the paper's new physical storage structure.

A region (Section 2) comprises multiple flash chips or dies over which data
is evenly distributed.  The DBMS creates regions with DDL::

    CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);

and couples logical structures (tablespaces, and through them tables and
indexes) to them.  Each region runs its own
:class:`~repro.mapping.engine.FlashSpaceEngine` over its exclusive set of
dies: address translation, out-of-place updates, GC and WL all happen
host-side, region-locally, with full DBMS knowledge of the stored objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.device import FlashDevice
from repro.flash.errors import DieFailedError
from repro.flash.geometry import MIB
from repro.flash.payload import Payload
from repro.mapping.blockinfo import DieBookkeeping
from repro.mapping.engine import FlashSpaceEngine
from repro.mapping.stats import ManagementStats
from repro.policies import GCPolicy, WLPolicy, policy_name

#: Owner sentinel for dies lost to whole-die failures.  A failed die is
#: neither free nor owned: it must never re-enter the allocation pool.
FAILED_DIE = "<failed>"


class RegionError(Exception):
    """Invalid region configuration or operation."""


class RegionFullError(RegionError):
    """The region's logical capacity is exhausted."""


@dataclass(frozen=True)
class RegionConfig:
    """Declarative description of a region (the DDL's parameter list).

    Attributes:
        name: region identifier (``rgHotTbl`` in the paper's example).
        max_chips: upper bound on distinct flash chips used, or ``None``.
        max_channels: upper bound on distinct channels used, or ``None``.
        max_size_bytes: upper bound on the region's logical capacity, or
            ``None`` for "whatever the dies provide".
        gc_policy: victim selection for this region's GC — a registered
            policy name or a :class:`~repro.policies.base.GCPolicy`
            instance (see :mod:`repro.policies`).
        wl_policy: static-WL block ranking — a registered name or a
            :class:`~repro.policies.base.WLPolicy` instance.
        gc_trigger_free_blocks / gc_target_free_blocks: per-die watermarks.
        wear_level_threshold: per-die static-WL trigger, or ``None``.
        object_frontiers: when ``True`` (the paper's *intelligent data
            placement*), each database object writing into the region fills
            its own erase blocks, block-striped over the region's dies —
            physical organization follows the logical structures.  When
            ``False`` (the *traditional* baseline) writes of all objects
            interleave in arrival order, as under a knowledge-free FTL.
    """

    name: str
    max_chips: int | None = None
    max_channels: int | None = None
    max_size_bytes: int | None = None
    gc_policy: str | GCPolicy = "greedy"
    wl_policy: str | WLPolicy = "coldest_first"
    gc_trigger_free_blocks: int = 2
    gc_target_free_blocks: int = 3
    wear_level_threshold: int | None = None
    read_disturb_threshold: int | None = None
    object_frontiers: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise RegionError(f"invalid region name {self.name!r}")
        for bound in ("max_chips", "max_channels", "max_size_bytes"):
            value = getattr(self, bound)
            if value is not None and value <= 0:
                raise RegionError(f"{bound} must be positive, got {value}")

    @property
    def max_size_human(self) -> str:
        """Human-readable MAX_SIZE (for catalog listings)."""
        if self.max_size_bytes is None:
            return "unbounded"
        return f"{self.max_size_bytes // MIB}M"


class Region:
    """A live region: engine + logical page allocator + accounting.

    The region exposes a *logical page space* addressed by region page
    number (rpn).  Tablespaces allocate extents of rpns; the engine decides
    where each rpn physically lives and keeps it alive across GC and WL.

    Regions are created through :class:`~repro.core.region_manager.RegionManager`,
    which hands them their dies.
    """

    def __init__(
        self,
        region_id: int,
        config: RegionConfig,
        device: FlashDevice,
        dies: list[int],
        books: dict[int, DieBookkeeping],
    ) -> None:
        self.region_id = region_id
        self.config = config
        self.device = device
        self.stats = ManagementStats()
        self.engine = FlashSpaceEngine(
            device,
            dies=dies,
            books=books,
            stats=self.stats,
            gc_policy=config.gc_policy,
            wl_policy=config.wl_policy,
            gc_trigger_free_blocks=config.gc_trigger_free_blocks,
            gc_target_free_blocks=config.gc_target_free_blocks,
            wear_level_threshold=config.wear_level_threshold,
            read_disturb_threshold=config.read_disturb_threshold,
            obj_id=region_id,
        )
        self._next_rpn = 0
        self._free_rpns: list[int] = []
        self._allocated: set[int] = set()
        #: dies lost to whole-die failures (region runs degraded)
        self.failed_dies: list[int] = []
        #: the RegionManager's die -> owner table, shared so a failure
        #: quarantines the die in the pool; the table, not the manager, so
        #: nothing in a region leads back to what owns it
        self._die_owner: dict[int, str | None] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Region name from the config."""
        return self.config.name

    @property
    def dies(self) -> list[int]:
        """Global die indices currently owned by the region."""
        return list(self.engine.dies)

    def channels_used(self) -> set[int]:
        """Channels the region's dies are attached to."""
        return {self.device.geometry.channel_of_die(d) for d in self.engine.dies}

    def chips_used(self) -> set[int]:
        """Global chip indices the region's dies live on."""
        return {self.device.geometry.chip_of_die(d) for d in self.engine.dies}

    def capacity_pages(self) -> int:
        """Logical pages this region may hold (MAX_SIZE and reserve applied)."""
        physical = self.engine.safe_capacity_pages()
        if self.config.max_size_bytes is None:
            return physical
        return min(physical, self.config.max_size_bytes // self.device.geometry.page_size)

    def used_pages(self) -> int:
        """Logical pages currently allocated to tablespaces."""
        return len(self._allocated)

    def free_pages(self) -> int:
        """Logical pages still allocatable."""
        return self.capacity_pages() - self.used_pages()

    # ------------------------------------------------------------------
    # Logical page allocation (extent support for tablespaces)
    # ------------------------------------------------------------------
    def allocate(self, count: int) -> list[int]:
        """Allocate ``count`` logical pages; returns their rpns.

        Freed pages are recycled first; fresh pages are handed out in
        ascending order, so extents allocated back-to-back on a fresh
        region are contiguous.
        """
        if count <= 0:
            raise RegionError("allocation count must be positive")
        if count > self.free_pages():
            raise RegionFullError(
                f"region {self.name}: requested {count} pages, only "
                f"{self.free_pages()} of {self.capacity_pages()} free"
            )
        pages: list[int] = []
        while self._free_rpns and len(pages) < count:
            pages.append(self._free_rpns.pop())
        while len(pages) < count:
            pages.append(self._next_rpn)
            self._next_rpn += 1
        self._allocated.update(pages)
        return pages

    def free(self, rpns: list[int]) -> None:
        """Return logical pages to the region (their data becomes garbage)."""
        for rpn in rpns:
            if rpn not in self._allocated:
                raise RegionError(f"region {self.name}: rpn {rpn} is not allocated")
            self._allocated.remove(rpn)
            self.engine.invalidate(rpn)
            self._free_rpns.append(rpn)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, rpn: int, at: float) -> tuple[Payload, float]:
        """Read logical page ``rpn``; returns ``(data, completion_us)``."""
        self._check_allocated(rpn)
        issue = at
        bus = self.device.events
        if bus is not None:
            bus.emit(issue, "host", "read", region=self.name, rpn=rpn)
        tries = len(self.engine.dies) + 2
        while True:
            try:
                data, end = self.engine.read(rpn, at)
            except DieFailedError as exc:
                # a read never needs the dead die, but the background work
                # it triggers (scrub, refresh erase) might
                at = self._recover_die_failure(exc.die, at)
                tries -= 1
                if not tries:
                    raise
            else:
                self.stats.host_reads += 1
                self.stats.host_read_latency.record(end - issue)
                return data, end

    def write(self, rpn: int, data: Payload, at: float, group: int | None = None) -> float:
        """Write logical page ``rpn`` out-of-place; returns completion time.

        ``group`` identifies the owning database object (tablespace); it is
        honoured only when the region is configured with
        ``object_frontiers`` — see :class:`RegionConfig`.
        """
        self._check_allocated(rpn)
        issue = at
        if not self.config.object_frontiers:
            group = None
        bus = self.device.events
        if bus is not None:
            bus.emit(issue, "host", "write", region=self.name, rpn=rpn, obj=group)
        tries = len(self.engine.dies) + 2
        while True:
            try:
                end = self.engine.write(rpn, data, at, group=group)
            except DieFailedError as exc:
                at = self._recover_die_failure(exc.die, at)
                tries -= 1
                if not tries:
                    raise
            else:
                self.stats.host_writes += 1
                self.stats.host_write_latency.record(end - issue)
                return end

    def write_atomic(
        self, entries: list[tuple[int, Payload]], at: float, group: int | None = None
    ) -> float:
        """Write several pages as one all-or-nothing unit.

        The paper's NoFTL advantage (iv): out-of-place updates make short
        atomic writes free — no journal or double-write buffer.  If the
        system crashes mid-batch, :meth:`recover` discards the torn batch
        and the previous versions of every page reappear.
        """
        for rpn, __ in entries:
            self._check_allocated(rpn)
        if not self.config.object_frontiers:
            group = None
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "host", "write_atomic", region=self.name,
                     pages=len(entries), obj=group)
        issue = at
        tries = len(self.engine.dies) + 2
        while True:
            try:
                # the engine disowns a half-programmed batch before raising,
                # so retrying after the rebuild re-drives it from scratch
                end = self.engine.write_atomic(entries, at, group=group)
            except DieFailedError as exc:
                at = self._recover_die_failure(exc.die, at)
                tries -= 1
                if not tries:
                    raise
            else:
                self.stats.host_writes += len(entries)
                self.stats.host_write_latency.record(end - issue)
                return end

    def _check_allocated(self, rpn: int) -> None:
        if rpn not in self._allocated:
            raise RegionError(f"region {self.name}: rpn {rpn} is not allocated")

    # ------------------------------------------------------------------
    # Die failure (degraded mode)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Whether the region has lost dies and runs at reduced capacity."""
        return bool(self.failed_dies)

    def _recover_die_failure(self, die: int, at: float) -> float:
        """Rebuild the region around a write/erase-dead die.

        The engine pulls every live page off the dead die (reads still
        work) onto the survivors, then forgets the die; the region keeps
        serving at reduced capacity.  The die is marked failed in the
        manager's owner table so it can never be handed to another
        region.  Concurrent failure of a *second* die during the rebuild
        is not recovered here — it propagates (documented single-failure
        model).
        """
        if die not in self.engine.dies:
            return at  # several queued ops can observe the same failure
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "faults", "region_degraded", region=self.name, die=die)
        __, at = self.engine.fail_die(die, at)
        self.failed_dies.append(die)
        if self._die_owner is not None:
            self._die_owner[die] = FAILED_DIE
        return at

    def retire_failed_die(self, die: int, at: float) -> float:
        """Settle a die the injector killed but no write has tripped over.

        Normally a dead die is discovered by the next write or erase that
        touches it, which routes through :meth:`_recover_die_failure`.  A
        die failure injected *after* the workload's last operation on that
        die would stay invisible — injected but never retired — leaving
        the fault accounting identity open.  Recovery-oriented harnesses
        call this to force the rebuild; a die the region no longer owns
        is a no-op, so settling is idempotent.
        """
        return self._recover_die_failure(die, at)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, at: float = 0.0) -> float:
        """Rebuild translation state from flash after a crash.

        Scans the region's dies' page metadata (see
        :meth:`~repro.mapping.engine.FlashSpaceEngine.rebuild_from_flash`)
        and re-derives the logical allocation state from the live keys.
        Pages that were allocated but never written are not recovered —
        re-allocating them hands out fresh rpns, which is safe because
        they held no data.  Returns the completion time of the scan.
        """
        at = self.engine.rebuild_from_flash(at)
        live = set(self.engine.iter_keys())
        self._allocated = live
        self._next_rpn = max(live) + 1 if live else 0
        self._free_rpns = [rpn for rpn in range(self._next_rpn) if rpn not in live]
        return at

    # ------------------------------------------------------------------
    # Health / reporting
    # ------------------------------------------------------------------
    def erase_count_spread(self) -> int:
        """Max - min per-block erase count over the region's dies."""
        counts = [
            blk.erase_count
            for d in self.engine.dies
            for blk in self.device.dies[d].blocks
        ]
        return max(counts) - min(counts) if counts else 0

    def mean_die_erase_count(self) -> float:
        """Average total erase count per die (global-WL signal)."""
        if not self.engine.dies:
            return 0.0
        totals = [self.device.dies[d].total_erase_count for d in self.engine.dies]
        return sum(totals) / len(totals)

    def snapshot(self) -> dict[str, float]:
        """Flat management counters (``Snapshottable``); mounted by the
        registry under ``region.<name>``."""
        return self.stats.snapshot()

    def describe(self) -> dict[str, object]:
        """Catalog row for the region."""
        return {
            "name": self.name,
            "dies": self.dies,
            "channels": sorted(self.channels_used()),
            "capacity_pages": self.capacity_pages(),
            "used_pages": self.used_pages(),
            "gc_policy": policy_name(self.config.gc_policy),
            "wl_policy": policy_name(self.config.wl_policy),
            "max_size": self.config.max_size_human,
            "degraded": self.degraded,
            "failed_dies": list(self.failed_dies),
        }
