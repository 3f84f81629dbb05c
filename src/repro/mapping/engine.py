"""The flash space engine: out-of-place writes, GC and WL over a die set.

:class:`FlashSpaceEngine` is the machinery both management layers share —
write frontiers, logical-to-physical mapping, garbage collection and static
wear levelling — parameterised by the *set of dies it owns*:

* the baseline FTL (:class:`repro.ftl.page_mapping.PageMappingFTL`) runs
  ONE engine over ALL dies: every object's pages mix in the same blocks,
  and GC victims carry whatever cocktail of hot and cold data happened to
  land together;
* NoFTL (:mod:`repro.core`) runs one engine PER REGION over that region's
  dies: blocks only ever contain pages of objects the DBA grouped
  together, so victim selection sees homogeneous data.

That parameterisation *is* the paper's experiment; everything else is held
constant by construction.

The engine also supports **growing and shrinking its die set** at runtime
(the paper: "the number of dies in each region ... is dynamic and can
change over time"), relocating live data off a die before releasing it.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.flash.address import PhysicalPageAddress
from repro.flash.device import CommandResult, FlashDevice
from repro.flash.errors import (
    CopybackError,
    DieFailedError,
    ProgramFaultError,
    TransientReadError,
)
from repro.flash.payload import Payload
from repro.mapping.blockinfo import BlockInfo, BlockState, DieBookkeeping
from repro.mapping.stats import ManagementStats
from repro.policies import GCPolicy, WLPolicy, resolve_gc_policy, resolve_wl_policy


class SpaceFullError(Exception):
    """The engine's dies hold only valid data; nothing can be reclaimed."""


#: Bound on re-driving a write after consecutive program failures.  Eight
#: grown-bad blocks in a row on one logical write means the device (or the
#: fault plan) is beyond salvage; give up rather than loop.
MAX_WRITE_REDRIVES = 8


#: where frontier slots live: ``slots[die]`` in the per-die user and GC
#: dicts, ``slots[position]`` in a placement group's stripe
_Slots = dict[int, BlockInfo | None] | list[BlockInfo | None]


def die_reserve_blocks(gc_target_free_blocks: int = 3) -> int:
    """Blocks a die keeps out of its safe capacity: the GC target plus the
    user and GC frontiers.  The default is every management layer's
    watermark, for sizing code that has no engine yet."""
    return gc_target_free_blocks + 2


class FlashSpaceEngine:
    """Out-of-place page store over an explicit set of flash dies.

    Logical pages are plain integer keys chosen by the caller; the engine
    maps them to physical pages, keeps them alive across GC/WL, and charges
    all background work to the owning dies' timelines.

    Args:
        device: shared native flash device.
        dies: global die indices this engine may use (its exclusive
            property; die sets of different engines must not overlap).
        books: per-die bookkeeping, keyed by die index.  Passing these in
            (rather than creating them) lets dies migrate between engines
            with their wear history intact.
        stats: counter sink (one per management layer or per region).
        gc_policy: GC victim selection — a registered policy name (e.g.
            ``"greedy"``, ``"cost_benefit"``) or a ready
            :class:`~repro.policies.base.GCPolicy` instance; resolved
            through :func:`repro.policies.resolve_gc_policy` at
            construction, so unknown names fail fast.
        gc_trigger_free_blocks / gc_target_free_blocks: per-die watermarks.
        wear_level_threshold: per-die erase-count spread triggering static
            WL, or ``None`` to disable.
        wl_check_interval_erases: WL evaluation cadence, in GC erases.
        wl_policy: static-WL block ranking — a registered name (default
            ``"coldest_first"``, the historical behaviour) or a
            :class:`~repro.policies.base.WLPolicy` instance.
        obj_id: stamped into page metadata (regions use their region id).
        group_stripe_width: open blocks (on distinct dies) a placement
            group rotates its writes over; capped at the number of dies.
        read_disturb_threshold: reads a block may absorb between erases
            before its live pages are refreshed (relocated) — real NAND
            loses data to read disturb; ``None`` disables the patrol.
        max_read_retries: attempts a transient read failure is retried
            before the error propagates (successful retries trigger a
            scrub of the offending block).
    """

    def __init__(
        self,
        device: FlashDevice,
        dies: list[int],
        books: dict[int, DieBookkeeping],
        stats: ManagementStats,
        gc_policy: str | GCPolicy = "greedy",
        gc_trigger_free_blocks: int = 2,
        gc_target_free_blocks: int = 3,
        wear_level_threshold: int | None = None,
        wl_check_interval_erases: int = 64,
        wl_policy: str | WLPolicy = "coldest_first",
        obj_id: int | None = None,
        group_stripe_width: int = 8,
        read_disturb_threshold: int | None = None,
        max_read_retries: int = 8,
    ) -> None:
        if not dies:
            raise ValueError("an engine needs at least one die")
        if gc_trigger_free_blocks < 2:
            raise ValueError("gc_trigger_free_blocks must be >= 2 (GC needs a spare block)")
        if gc_target_free_blocks < gc_trigger_free_blocks:
            raise ValueError("gc_target_free_blocks must be >= gc_trigger_free_blocks")
        missing = [d for d in dies if d not in books]
        if missing:
            raise ValueError(f"no bookkeeping passed for dies {missing}")
        self.device = device
        self.geometry = device.geometry
        # geometry derivations are Python properties (recomputed per call);
        # the mapping hot path packs/unpacks addresses on every page op, so
        # pin the two factors it needs
        self._pages_per_die = self.geometry.pages_per_die
        self._pages_per_block = self.geometry.pages_per_block
        self.dies: list[int] = list(dies)
        self.books = books
        self.stats = stats
        self.gc_policy: GCPolicy = resolve_gc_policy(gc_policy)
        self.wl_policy: WLPolicy = resolve_wl_policy(wl_policy)
        self.gc_trigger_free_blocks = gc_trigger_free_blocks
        self.gc_target_free_blocks = gc_target_free_blocks
        self.wear_level_threshold = wear_level_threshold
        self.wl_check_interval_erases = wl_check_interval_erases
        self.obj_id = obj_id
        self.group_stripe_width = max(1, group_stripe_width)
        self.read_disturb_threshold = read_disturb_threshold
        self.max_read_retries = max(1, max_read_retries)

        self._map: dict[int, int] = {}  # logical key -> packed ppa
        self._rmap: dict[int, int] = {}  # packed ppa -> logical key
        self._user_frontier: dict[int, BlockInfo | None] = {d: None for d in dies}
        self._gc_frontier: dict[int, BlockInfo | None] = {d: None for d in dies}
        # The frontier rule: a slot — user, GC or group — holds a block only
        # while that block is OPEN.  The write that fills a block empties its
        # slot; one retired or drained before that goes through _detach_slots.
        #: group -> (stripe slots, [next die offset, next slot])
        self._groups: dict[int, tuple[list[BlockInfo | None], list[int]]] = {}
        self._rr_index = 0
        self._erases_since_wl_check = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def reserve_blocks_per_die(self) -> int:
        """Blocks a die must keep for frontiers + GC headroom."""
        return die_reserve_blocks(self.gc_target_free_blocks)

    def physical_pages(self) -> int:
        """Raw good pages over the engine's dies."""
        books = self.books
        return sum(books[d].good_block_count() for d in self.dies) * self._pages_per_block

    def safe_capacity_pages(self) -> int:
        """Pages that may safely hold valid data (reserve subtracted)."""
        per_block = self.geometry.pages_per_block
        reserve = len(self.dies) * self.reserve_blocks_per_die * per_block
        return max(0, self.physical_pages() - reserve)

    def live_pages(self) -> int:
        """Logical pages currently mapped."""
        return len(self._map)

    def contains(self, key: int) -> bool:
        """Whether logical page ``key`` is currently mapped."""
        return key in self._map

    def keys(self) -> list[int]:
        """All mapped logical keys (sorted, for deterministic iteration)."""
        return sorted(self._map)

    def iter_keys(self) -> Iterator[int]:
        """Mapped logical keys in arbitrary order (no sort — O(n) consumers
        like counting and set-building should not pay O(n log n))."""
        return iter(self._map)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, key: int, at: float) -> tuple[Payload, float]:
        """Read logical page ``key``; returns ``(data, completion_us)``.

        Like :meth:`write`, the read runs on integer coordinates: the packed
        address the engine stored itself is split straight into the device's
        READ PAGE body.  Only a transient read failure builds an address
        object, for the retry loop it shares with the relocation reads.
        """
        packed = self._map.get(key)
        if packed is None:
            raise KeyError(f"logical page {key} is not mapped")
        die, rest = divmod(packed, self._pages_per_die)
        block, page = divmod(rest, self._pages_per_block)
        try:
            data, __, end = self.device.read_page_packed(die, block, page, at)
        except TransientReadError:
            result = self._retry_read(PhysicalPageAddress(die, block, page), at, scrub=True)
            assert result.data is not None  # READ PAGE always carries a payload
            data, end = result.data, result.end_us
        if self.read_disturb_threshold is not None:
            self._maybe_refresh(die, block, end)
        return data, end

    def _retry_read(
        self, ppa: PhysicalPageAddress, at: float, scrub: bool
    ) -> CommandResult:
        """Bounded retry of a transient read failure; scrub on success.

        Real controllers re-read with stepped reference voltages; here each
        retry is another READ PAGE command.  A success means the data was
        salvageable but the block is suspect, so (when ``scrub`` is set)
        its live pages are relocated and the block erased — the same move
        as a read-disturb refresh, charged asynchronously.
        """
        retries = self.max_read_retries
        while True:
            try:
                result = self.device.read_page(ppa, at=at)
            except TransientReadError:
                retries -= 1
                if not retries:
                    raise
                continue
            faults = self.device.faults
            if faults is not None:
                faults.stats.recovered_read_retry += 1
            bus = self.device.events
            if bus is not None:
                bus.emit(result.end_us, "faults", "read_recovered",
                         die=ppa.die, block=ppa.block, page=ppa.page)
            if scrub:
                self._scrub_block(ppa.die, ppa.block, result.end_us)
            return result

    def _scrub_block(self, die_index: int, block: int, at: float) -> None:
        """Relocate and erase a block that produced a transient read failure.

        Only FULL blocks are scrubbed — open frontiers refresh naturally
        when sealed and collected.  The erase routes through
        :meth:`_retire_or_recycle`, so a scrub that pushes the block past
        rated endurance retires it.
        """
        info = self.books[die_index].blocks[block]
        if info.state is not BlockState.FULL:
            return
        moved = info.valid_count
        t, __ = self._empty_block(info, at)
        faults = self.device.faults
        if faults is not None:
            faults.stats.scrubs += 1
            faults.stats.scrub_relocations += moved
        bus = self.device.events
        if bus is not None:
            bus.emit(t, "faults", "scrub", die=die_index, block=block, moved=moved)

    def _maybe_refresh(self, die_index: int, block: int, at: float) -> None:
        """Refresh a block whose read count crossed the disturb threshold.

        Live pages are relocated (the refresh) and the block erased —
        charged to the device timelines asynchronously, like GC.  Counts
        as wear-levelling work in the statistics.
        """
        reads = self.device.dies[die_index].blocks[block].reads_since_erase
        if reads < self.read_disturb_threshold:
            return
        info = self.books[die_index].blocks[block]
        if info.state is BlockState.FULL:  # open frontiers refresh when collected
            self._empty_block(info, at, wear_level=True)

    def write(self, key: int, data: Payload, at: float, group: int | None = None) -> float:
        """Write logical page ``key`` out-of-place; returns completion time.

        ``group`` is the caller's placement hint — the paper's "physical
        organization via logical structures".  Writes of the same group
        fill dedicated erase blocks (block-granular striping across the
        engine's dies), so objects with different lifetimes never share a
        block.  Without a group, writes interleave in arrival order on
        per-die frontiers — the knowledge-free placement an FTL performs
        and the paper's *traditional* baseline.
        """
        # The write runs on integer coordinates end-to-end (no
        # PhysicalPageAddress / PageMetadata / CommandResult objects).  Die
        # pick and frontier refill are inlined from _pick_die / _frontier;
        # `has_reclaimable` stays a property access so alternative
        # bookkeeping cost models keep being exercised.
        device = self.device
        ppd = self._pages_per_die
        ppb = self._pages_per_block
        books_map = self.books
        redrives = 0
        while True:
            if group is None:
                dies = self.dies
                n = len(dies)
                rr = self._rr_index
                for offset in range(n):
                    die_index = dies[(rr + offset) % n]
                    books = books_map[die_index]
                    if len(books._free) > 1 or books.has_reclaimable:
                        self._rr_index = (rr + offset + 1) % n
                        break
                else:
                    raise SpaceFullError(
                        f"engine over dies {self.dies}: every die is full of valid data"
                    )
                if len(books._free) <= self.gc_trigger_free_blocks:
                    at = self._collect_if_needed(die_index, at)
                slots: _Slots = self._user_frontier
                slot = die_index
                frontier = slots[slot]
                if frontier is None:
                    frontier = slots[slot] = books.take_free_block()
            else:
                frontier, slots, slot, at = self._group_frontier(group, at)
                die_index = frontier.die
                books = books_map[die_index]
            block = frontier.block
            page = books._written[block]
            obj = self.obj_id
            seq = device._seq + 1  # next_sequence(), sans the call
            device._seq = seq
            try:
                __, end = device.program_page_packed(
                    die_index, block, page, data, key,
                    seq, -1 if obj is None else obj, at,
                )
            except ProgramFaultError:
                at = self._on_program_fault(frontier, at)
                redrives += 1
                if redrives == MAX_WRITE_REDRIVES:
                    raise
                continue
            # inline invalidate(key): the overwritten version (if any) dies
            old = self._map.pop(key, None)
            if old is not None:
                odie, rest = divmod(old, ppd)
                oblock, opage = divmod(rest, ppb)
                books_map[odie].invalidate_packed(oblock, opage)
                del self._rmap[old]
            books.note_write_packed(block, page, end)
            packed = die_index * ppd + block * ppb + page
            self._map[key] = packed
            self._rmap[packed] = key
            if books._written[block] >= ppb:
                slots[slot] = None  # the frontier rule
            return end

    def write_atomic(
        self, entries: list[tuple[int, Payload]], at: float, group: int | None = None
    ) -> float:
        """Write several logical pages as one all-or-nothing unit.

        The paper's NoFTL advantage (iv): out-of-place updates give atomic
        multi-page writes *without additional overhead* — no journal, no
        double write.  Every page of the batch is programmed normally, its
        OOB metadata carrying ``(atomic id, batch size)``; the old versions
        are invalidated only after the last program completes.  Crash
        semantics are enforced by recovery (:meth:`rebuild_from_flash`): a
        batch whose page count on flash is short of its recorded size is
        discarded wholesale, resurrecting the previous versions.
        """
        if not entries:
            raise ValueError("atomic write needs at least one page")
        if len({key for key, __ in entries}) != len(entries):
            raise ValueError("atomic write cannot contain one key twice")
        device = self.device
        ppb = self._pages_per_block
        obj = self.obj_id
        redrives = 0
        while True:
            # a fresh atomic id per attempt: an aborted attempt's pages stay
            # on flash as an incomplete batch, which recovery drops wholesale
            atomic_id = device.next_sequence()
            extra = {"atomic_id": atomic_id, "atomic_size": len(entries)}
            staged: list[tuple[int, int, int, int]] = []  # (key, die, block, page)
            try:
                for key, data in entries:
                    if group is None:
                        slots: _Slots = self._user_frontier
                        slot = die_index = self._pick_die()
                        at = self._collect_if_needed(die_index, at)
                        frontier = self._frontier(self._user_frontier, die_index)
                    else:
                        frontier, slots, slot, at = self._group_frontier(group, at)
                        die_index = frontier.die
                    block = frontier.block
                    books = self.books[die_index]
                    page = books._written[block]
                    at = device.program_page_packed(
                        die_index, block, page, data, key,
                        device.next_sequence(), -1 if obj is None else obj, at, extra,
                    )[1]
                    books.note_write_packed(block, page, at)
                    if books._written[block] >= ppb:
                        slots[slot] = None  # the frontier rule
                    staged.append((key, die_index, block, page))
            except ProgramFaultError:
                # abandon the attempt BEFORE retiring the block, so the
                # salvage pass only relocates pages that are really mapped
                self._abandon_staged(staged)
                at = self._on_program_fault(frontier, at)
                redrives += 1
                if redrives == MAX_WRITE_REDRIVES:
                    raise
                continue
            except DieFailedError:
                # the region layer rebuilds around the die and retries the
                # whole batch; disown this attempt's pages first
                self._abandon_staged(staged)
                raise
            # "commit": flip all mappings only after the last page is on flash
            for key, die_index, block, page in staged:
                self.invalidate(key)
                packed = die_index * self._pages_per_die + block * ppb + page
                self._map[key] = packed
                self._rmap[packed] = key
            return at

    def _abandon_staged(self, staged: list[tuple[int, int, int, int]]) -> None:
        """Disown the pages of an aborted atomic attempt.

        They were never mapped, so invalidating them in the bookkeeping is
        all that is needed for the live engine; on flash they remain as an
        incomplete atomic batch, which :meth:`rebuild_from_flash` discards.
        """
        for __, die_index, block, page in staged:
            self.books[die_index].invalidate_packed(block, page)

    def invalidate(self, key: int) -> None:
        """Drop the mapping for ``key`` (its physical page becomes garbage)."""
        packed = self._map.pop(key, None)
        if packed is None:
            return
        # unpack inline: this runs on every overwrite, and the engine only
        # ever stores addresses it packed itself, so no validation round-trip
        die, rest = divmod(packed, self._pages_per_die)
        block, page = divmod(rest, self._pages_per_block)
        self.books[die].invalidate_packed(block, page)
        del self._rmap[packed]

    # ------------------------------------------------------------------
    # Die selection & frontiers
    # ------------------------------------------------------------------
    def _pick_die(self) -> int:
        """Round-robin striping with dynamic skip of exhausted dies."""
        n = len(self.dies)
        for offset in range(n):
            die = self.dies[(self._rr_index + offset) % n]
            books = self.books[die]
            if books.free_count > 1 or books.has_reclaimable:
                self._rr_index = (self._rr_index + offset + 1) % n
                return die
        raise SpaceFullError(
            f"engine over dies {self.dies}: every die is full of valid data"
        )

    def _frontier(self, frontiers: dict[int, BlockInfo | None], die_index: int) -> BlockInfo:
        frontier = frontiers.get(die_index)
        if frontier is None:
            frontier = self.books[die_index].take_free_block()
            frontiers[die_index] = frontier
        return frontier

    def _group_frontier(
        self, group: int, at: float
    ) -> tuple[BlockInfo, list[BlockInfo | None], int, float]:
        """Active erase block of a placement group, and the slot holding it
        (``slots[slot]``, for the write that fills the block to empty).

        Each group keeps up to ``group_stripe_width`` open blocks on
        distinct dies and rotates through them page by page, so even a
        burst of writes to one object spreads over several dies ("the
        distribution over available Flash data channels, dies or planes
        allows for better I/O parallelism").  Blocks stay object-pure; an
        empty slot is refilled from the next die in round-robin order."""
        state = self._groups.get(group)
        if state is None:
            slots: list[BlockInfo | None] = [None] * min(self.group_stripe_width, len(self.dies))
            state = self._groups[group] = (slots, [group % len(self.dies), 0])
        slots, nexts = state
        width = len(slots)
        for __ in range(width):
            slot = nexts[1]
            nexts[1] = (slot + 1) % width
            frontier = slots[slot]
            if frontier is None:
                frontier, at = self._take_group_block(nexts, at)
                if frontier is None:
                    continue
                slots[slot] = frontier
            return frontier, slots, slot, at
        raise SpaceFullError(
            f"engine over dies {self.dies}: every die is full of valid data"
        )

    def _take_group_block(self, nexts: list[int], at: float) -> tuple[BlockInfo | None, float]:
        """Allocate a fresh block for a group from the next viable die."""
        n = len(self.dies)
        start = nexts[0]
        for offset in range(n):
            die_index = self.dies[(start + offset) % n]
            books = self.books[die_index]
            if books.free_count > 1 or books.has_reclaimable:
                at = self._collect_if_needed(die_index, at)
                nexts[0] = (start + offset + 1) % n
                return books.take_free_block(), at
        return None, at

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def _collect_if_needed(self, die_index: int, at: float) -> float:
        """Reclaim space on ``die_index`` when its free pool hits the watermark.

        GC work always reserves device time (it contends with everything
        else on the die), but it stalls the *calling* operation only when
        the pool is critical (one free block left) — otherwise it runs as
        background work, the way both FTL firmware and a NoFTL storage
        manager overlap GC with foreground traffic.
        """
        books = self.books[die_index]
        if books.free_count > self.gc_trigger_free_blocks:
            return at
        blocking = books.free_count <= 1
        t = at
        while books.free_count < self.gc_target_free_blocks:
            victim = self.gc_policy.choose_victim_from_books(books, t)
            if victim is None:
                if books.free_count == 0:
                    raise SpaceFullError(
                        f"die {die_index}: no free blocks and nothing to reclaim"
                    )
                break
            t = self._collect_block(victim, t)
        t = self._maybe_wear_level(t)
        return t if blocking else at

    def _collect_block(self, victim: BlockInfo, at: float) -> float:
        die_index = victim.die
        self.stats.gc_victim_valid_pages += victim.valid_count
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "gc_collect", die=die_index, block=victim.block,
                     valid_pages=victim.valid_count, obj=self.obj_id)
        # the policy gets the same payload as the obs event, so adaptive
        # policies learn from the realised copy cost of their own picks
        self.gc_policy.observe({
            "event": "gc_collect",
            "die": die_index,
            "block": victim.block,
            "valid_pages": victim.valid_count,
            "pages_per_block": self._pages_per_block,
            "obj": self.obj_id,
        })
        __, end = self._empty_block(victim, at)
        self._erases_since_wl_check += 1
        return end

    def _empty_block(
        self, info: BlockInfo, at: float,
        target: BlockInfo | None = None, wear_level: bool = False,
    ) -> tuple[float, float]:
        """Relocate ``info``'s live pages, ERASE it, recycle or retire it —
        the one way a block is emptied (GC victim, scrub, refresh, WL move,
        evacuated die).  ``target`` and ``wear_level`` are :meth:`_relocate`'s
        and decide the erase counter too.  Returns ``(erase issued, erase
        done)``: the relocations end at the first, the block is free at the
        second."""
        die_index = info.die
        block = info.block
        for page in info.valid_pages():
            at = self._relocate(die_index, block, page, at, target, wear_level)
        __, end = self.device.erase_block_packed(die_index, block, at)
        if wear_level:
            self.stats.wl_erases += 1
        else:
            self.stats.gc_erases += 1
        self._retire_or_recycle(die_index, block)
        return at, end

    def _retire_or_recycle(self, die_index: int, block: int) -> None:
        """After an erase: recycle the block, or retire it if it wore out.

        A block whose erase pushed it past rated endurance is bad on the
        *device*; the management layer must mirror that or the next program
        into it would fail."""
        books = self.books[die_index]
        if self.device.dies[die_index].blocks[block].is_bad:
            books.reset_after_erase(block)
            books.mark_bad(block)
        else:
            books.return_erased_block(block)

    def _relocate(
        self, die_index: int, src_block: int, src_page: int, at: float,
        target: BlockInfo | None = None, wear_level: bool = False,
    ) -> float:
        """Move one live page within its die (copyback preferred): to
        ``target`` (the wear leveller's worn block, held by no slot) while
        that is OPEN, else to the die's GC frontier.  ``wear_level`` says who
        pays, and a move counts once: ``wl_moves``, or for GC, scrub and
        salvage ``gc_copybacks`` (fallback: ``gc_reads`` + ``gc_programs``).

        The OOB metadata travels unchanged — crucially including the write
        sequence number: relocation moves a *version*, it does not create
        one.  (A refreshed sequence number could outrank a later committed
        write at recovery time.)"""
        ppd = self._pages_per_die
        ppb = self._pages_per_block
        src_packed = die_index * ppd + src_block * ppb + src_page
        key = self._rmap[src_packed]
        device = self.device
        books = self.books[die_index]
        redrives = 0
        stats = self.stats
        while True:
            frontier = target
            if frontier is None or frontier.state is not BlockState.OPEN:
                frontier = self._frontier(self._gc_frontier, die_index)
            block = frontier.block
            page = books._written[block]
            try:
                __, end = device.copyback_packed(
                    die_index, src_block, src_page, block, page, at
                )
                if not wear_level:
                    stats.gc_copybacks += 1
            except CopybackError:
                read = self._read_for_relocation(
                    PhysicalPageAddress(die_index, src_block, src_page), at
                )
                try:
                    end = device.program_page(
                        PhysicalPageAddress(die_index, block, page),
                        read.data, read.metadata, at=read.end_us,
                    ).end_us
                except ProgramFaultError:
                    at = self._on_program_fault(frontier, at)
                    redrives += 1
                    if redrives == MAX_WRITE_REDRIVES:
                        raise
                    continue
                if not wear_level:
                    stats.gc_reads += 1
                    stats.gc_programs += 1
            if wear_level:
                stats.wl_moves += 1
            books.invalidate_packed(src_block, src_page)
            del self._rmap[src_packed]
            books.note_write_packed(block, page, end)
            packed = die_index * ppd + block * ppb + page
            self._map[key] = packed
            self._rmap[packed] = key
            if frontier is not target and books._written[block] >= ppb:
                self._gc_frontier[die_index] = None  # the frontier rule
            return end

    def _read_for_relocation(
        self, src: PhysicalPageAddress, at: float
    ) -> CommandResult:
        """Read a page for relocation, absorbing transient read failures.

        No scrub on success: relocation callers are already emptying (or
        retiring) the source block, so scheduling another scrub of it would
        relocate the same pages twice.
        """
        try:
            return self.device.read_page(src, at=at)
        except TransientReadError:
            return self._retry_read(src, at, scrub=False)

    def _on_program_fault(self, frontier: BlockInfo, at: float) -> float:
        """Retire a write frontier whose program failed (grown bad block).

        The failed page was never committed by the device, but the block
        can no longer be trusted: detach it from every frontier slot,
        salvage its already-programmed live pages (still readable — program
        failures are per-page), and mirror the retirement on the device and
        in the books.  No erase — a grown-bad block cannot be erased; since
        it is marked bad, recovery scans skip it, so the stale page copies
        on it are never resurrected.
        """
        die_index = frontier.die
        block = frontier.block
        self._detach_slots(die_index, block)
        self.books[die_index].seal(block)
        moved = frontier.valid_count
        for page in frontier.valid_pages():
            at = self._relocate(die_index, block, page, at)
        self.device.dies[die_index].blocks[block].mark_bad()
        self.books[die_index].mark_bad(block)
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_grown_bad_blocks += 1
            faults.stats.salvage_relocations += moved
            faults.stats.redrive_writes += 1
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "faults", "grown_bad_block", die=die_index, block=block,
                     salvaged=moved, obj=self.obj_id)
        return at

    def retire_grown_bad_block(self, die_index: int, block: int, at: float) -> float:
        """Finish a grown-bad retirement that was interrupted mid-salvage.

        A power cut inside :meth:`_on_program_fault` loses the host's
        knowledge that ``block`` took a program failure; recovery harnesses
        call this on the rebuilt engine to land the retirement.
        """
        return self._on_program_fault(self.books[die_index].blocks[block], at)

    def _detach_slots(self, die_index: int, block: int | None = None) -> None:
        """Empty every slot — user, GC, group — that holds a block of
        ``die_index`` (only ``block``, if given): it is about to stop being
        OPEN some other way than by filling up."""
        for frontiers in (self._user_frontier, self._gc_frontier):
            held = frontiers.get(die_index)
            if held is not None and block in (None, held.block):
                frontiers[die_index] = None
        for slots, __ in self._groups.values():
            for slot, held in enumerate(slots):
                if held is not None and held.die == die_index and block in (None, held.block):
                    slots[slot] = None

    # ------------------------------------------------------------------
    # Static wear levelling (within the engine's die set)
    # ------------------------------------------------------------------
    def _maybe_wear_level(self, at: float) -> float:
        if self.wear_level_threshold is None:
            return at
        if self._erases_since_wl_check < self.wl_check_interval_erases:
            return at
        self._erases_since_wl_check = 0
        for die_index in self.dies:
            at = self._wear_level_die(die_index, at)
        return at

    def _wear_level_die(self, die_index: int, at: float) -> float:
        books = self.books[die_index]
        die = self.device.dies[die_index]
        frees = books.free_blocks()
        if not frees:
            return at
        fulls = [b for b in books.blocks if b.state is BlockState.FULL and b.valid_count > 0]
        if not fulls:
            return at
        move = self.wl_policy.choose_move(
            frees, fulls, lambda b: die.blocks[b.block].erase_count
        )
        if move is None:
            return at
        worn_free, cold = move
        spread = die.blocks[worn_free.block].erase_count - die.blocks[cold.block].erase_count
        if spread <= self.wear_level_threshold:
            return at
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "wear_level", die=die_index, cold_block=cold.block,
                     target_block=worn_free.block, spread=spread, obj=self.obj_id)
        target = books.take_block(worn_free.block)
        __, end = self._empty_block(cold, at, target, wear_level=True)
        books.seal(target.block)  # a partly filled target's tail counts invalid
        return end

    # ------------------------------------------------------------------
    # Dynamic die membership
    # ------------------------------------------------------------------
    def add_die(self, die_index: int, books: DieBookkeeping) -> None:
        """Adopt a die (and its wear history) into this engine."""
        if die_index in self._user_frontier:
            raise ValueError(f"die {die_index} already belongs to this engine")
        self.dies.append(die_index)
        self.books[die_index] = books
        self._user_frontier[die_index] = None
        self._gc_frontier[die_index] = None

    def _drain_die(self, die_index: int, at: float) -> tuple[int, float]:
        """Take ``die_index`` out of ``dies`` and every frontier slot, then
        rewrite its live pages onto the other dies (cross-die, so a host
        read plus a normal :meth:`write` each); returns ``(moved, end_us)``.
        The die's bookkeeping stays in ``books`` for the caller to dispose of."""
        self.dies.remove(die_index)
        self._user_frontier.pop(die_index)
        self._gc_frontier.pop(die_index)
        self._detach_slots(die_index)
        moved = 0
        books = self.books[die_index]
        for info in books.blocks:
            for page in info.valid_pages():
                src = PhysicalPageAddress(die_index, info.block, page)
                key = self._rmap.pop(src.to_int(self.geometry))
                read = self._read_for_relocation(src, at)
                self.stats.gc_reads += 1
                books.invalidate_packed(info.block, page)
                del self._map[key]
                assert read.data is not None  # READ PAGE always carries a payload
                at = self.write(key, read.data, read.end_us)
                self.stats.gc_programs += 1
                moved += 1
        return moved, at

    def evacuate_die(self, die_index: int, at: float) -> tuple[DieBookkeeping, float]:
        """Move all live data off ``die_index`` and release the die.

        Relocation is cross-die (host read + program to the remaining
        dies).  Returns the die's bookkeeping (to hand to another engine)
        and the completion time.  The caller must ensure the remaining
        dies have capacity for the evacuated data.
        """
        if die_index not in self._user_frontier:
            raise ValueError(f"die {die_index} does not belong to this engine")
        if len(self.dies) == 1:
            raise ValueError("cannot evacuate the engine's last die")
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "mapping", "evacuate_die", die=die_index, obj=self.obj_id)
        at = self._drain_die(die_index, at)[1]
        books = self.books[die_index]
        # erase everything the engine had written on the die
        for info in books.blocks:
            if info.state is BlockState.BAD:
                continue
            if info.written > 0:
                at = self._empty_block(info, at)[1]
            elif info.state is BlockState.OPEN:
                books.return_erased_block(info.block)
        del self.books[die_index]
        return books, at

    def fail_die(self, die_index: int, at: float) -> tuple[int, float]:
        """Rebuild around a write/erase-dead die; returns ``(moved, end_us)``.

        The failure model (mirrored by the injector): the die stops
        accepting PROGRAM and ERASE but still serves reads, so its live
        pages are recoverable.  Unlike :meth:`evacuate_die` the blocks are
        *not* erased (erase would fail) and the bookkeeping is not handed
        to another engine: the die leaves the system permanently and the
        engine's capacity shrinks accordingly.
        """
        if die_index not in self._user_frontier:
            raise ValueError(f"die {die_index} does not belong to this engine")
        if len(self.dies) == 1:
            raise SpaceFullError(
                f"die {die_index} failed and the engine has no surviving dies"
            )
        bus = self.device.events
        if bus is not None:
            bus.emit(at, "faults", "die_rebuild_start", die=die_index, obj=self.obj_id)
        moved, at = self._drain_die(die_index, at)
        del self.books[die_index]
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_dies += 1
            faults.stats.rebuild_relocations += moved
        if bus is not None:
            bus.emit(at, "faults", "die_rebuild_done", die=die_index,
                     moved=moved, obj=self.obj_id)
        return moved, at

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def rebuild_from_flash(self, at: float = 0.0) -> float:
        """Reconstruct mapping and bookkeeping by scanning page metadata.

        This is why the native interface exposes *handle Page Metadata*
        (paper, Figure 1): the host's translation state is volatile, but
        every programmed page carries its logical key and a write-sequence
        number in the OOB area.  After a crash, a fresh engine over the
        same dies scans each block's pages in order (stopping at the first
        unprogrammed page — programming is sequential), keeps the
        highest-sequence version of every key and marks everything else
        invalid.  Partially written blocks are sealed.

        The scan is charged as OOB reads on the device timelines, so
        recovery time is measured rather than assumed.  Returns the
        completion time.
        """
        self._map.clear()
        self._rmap.clear()
        self._user_frontier = {d: None for d in self.dies}
        self._gc_frontier = {d: None for d in self.dies}
        self._groups.clear()
        # pass 1 — scan every programmed page's OOB, collecting candidates
        candidates: list[tuple[PhysicalPageAddress, int, int, int | None, int]] = []
        atomic_seen: dict[int, int] = {}
        for die_index in self.dies:
            device_die = self.device.dies[die_index]
            books = self.books[die_index]
            books.reset_all()
            for block_index, block in enumerate(device_die.blocks):
                if block.is_bad:
                    books.mark_bad(block_index)
                    continue
                if block.write_pointer == 0:
                    continue
                books.take_block(block_index)
                for page in range(block.write_pointer):
                    ppa = PhysicalPageAddress(die_index, block_index, page)
                    result = self.device.read_metadata(ppa, at=at)
                    at = result.end_us
                    books.note_write_packed(block_index, page, at)
                    meta = result.metadata
                    key = None if meta is None else meta.lpn
                    mine = meta is not None and (
                        self.obj_id is None or meta.obj_id == self.obj_id
                    )
                    if not mine or key is None:
                        books.invalidate_packed(block_index, page)
                        continue
                    atomic_id = meta.extra.get("atomic_id") if meta.extra else None
                    atomic_size = meta.extra.get("atomic_size", 0) if meta.extra else 0
                    if atomic_id is not None:
                        atomic_seen[atomic_id] = atomic_seen.get(atomic_id, 0) + 1
                    candidates.append((ppa, key, meta.seq, atomic_id, atomic_size))
                books.seal(block_index)  # a partially written block's tail counts invalid

        # pass 2 — a torn atomic batch (fewer pages on flash than its
        # recorded size) never happened: drop all of its members
        def torn(atomic_id: int | None, atomic_size: int) -> bool:
            return atomic_id is not None and atomic_seen.get(atomic_id, 0) < atomic_size

        # pass 3 — highest surviving sequence number wins per key
        best_seq: dict[int, int] = {}
        locations: dict[int, PhysicalPageAddress] = {}
        for ppa, key, seq, atomic_id, atomic_size in candidates:
            if torn(atomic_id, atomic_size):
                continue
            if key not in best_seq or seq > best_seq[key]:
                best_seq[key] = seq
                locations[key] = ppa

        # pass 4 — every non-winner page becomes garbage
        winners = {ppa for ppa in locations.values()}
        for ppa, key, seq, atomic_id, atomic_size in candidates:
            if ppa not in winners:
                self.books[ppa.die].invalidate_packed(ppa.block, ppa.page)
        for key, ppa in locations.items():
            packed = ppa.to_int(self.geometry)
            self._map[key] = packed
            self._rmap[packed] = key
        return at

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert mapping/bookkeeping invariants (used by property tests)."""
        seen: set[int] = set()
        for key, packed in self._map.items():
            assert packed not in seen, f"physical page shared by two keys: {packed}"
            seen.add(packed)
            assert self._rmap.get(packed) == key, f"rmap mismatch for key {key}"
            ppa = PhysicalPageAddress.from_int(packed, self.geometry)
            assert ppa.die in self.books, f"mapped page on foreign die: {ppa}"
            info = self.books[ppa.die].blocks[ppa.block]
            assert info.is_valid(ppa.page), f"mapped page not valid in bookkeeping: {ppa}"
        assert seen == set(self._rmap), "rmap contains stale entries"
        # the frontier rule: every slot holds an OPEN block of an owned die
        # that is out of the free pool, and no block sits in two slots
        slots = [*self._user_frontier.values(), *self._gc_frontier.values()]
        for stripe, __ in self._groups.values():
            slots.extend(stripe)
        seen_blocks: set[tuple[int, int]] = set()
        for held in slots:
            if held is None:
                continue
            die, block = held.die, held.block
            where = f"d{die}/b{block}"
            assert die in self.dies, f"frontier slot on foreign die: {where}"
            assert held.state is BlockState.OPEN, (
                f"frontier slot holds a {held.state.value} block: {where}"
            )
            assert block not in self.books[die]._free, f"frontier block in the free pool: {where}"
            assert (die, block) not in seen_blocks, f"block in two frontier slots: {where}"
            seen_blocks.add((die, block))
        for books in self.books.values():
            books.check_invariants()
