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

from repro.flash.device import FlashDevice
from repro.flash.errors import (
    CopybackError,
    DieFailedError,
    ProgramFaultError,
    TransientReadError,
)
from repro.flash.payload import Payload
from repro.mapping.blockinfo import BlockState, DieBookkeeping
from repro.mapping.stats import ManagementStats
from repro.policies import GCPolicy, WLPolicy, resolve_gc_policy


class SpaceFullError(Exception):
    """The engine's dies hold only valid data; nothing can be reclaimed."""


#: Bound on re-driving a write after consecutive program failures.  Eight
#: grown-bad blocks in a row on one logical write means the device (or the
#: fault plan) is beyond salvage; give up rather than loop.
MAX_WRITE_REDRIVES = 8

#: Open blocks (on distinct dies) a placement group rotates its writes
#: over; capped at the engine's number of dies.
GROUP_STRIPE_WIDTH = 8


#: where frontier slots live: ``slots[die]`` in the per-die user and GC
#: dicts (a block index), ``slots[position]`` in a placement group's stripe
#: (a ``(die, block)`` pair)
_Slots = dict[int, int | None] | list[tuple[int, int] | None]


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
        gc_policy: GC victim selection by name (``"greedy"`` or
            ``"cost_benefit"``); resolved through
            :func:`repro.policies.resolve_gc_policy` at construction, so
            unknown names fail fast.
        gc_trigger_free_blocks / gc_target_free_blocks: per-die watermarks.
        wear_level_threshold: per-die erase-count spread triggering static
            WL, or ``None`` to disable.
        wl_check_interval_erases: WL evaluation cadence, in GC erases.
        obj_id: stamped into page metadata (regions use their region id).
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
        gc_policy: str = "greedy",
        gc_trigger_free_blocks: int = 2,
        gc_target_free_blocks: int = 3,
        wear_level_threshold: int | None = None,
        wl_check_interval_erases: int = 64,
        obj_id: int | None = None,
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
        self._wl_ranking = WLPolicy()
        self.gc_trigger_free_blocks = gc_trigger_free_blocks
        self.gc_target_free_blocks = gc_target_free_blocks
        self.wear_level_threshold = wear_level_threshold
        self.wl_check_interval_erases = wl_check_interval_erases
        self.obj_id = obj_id
        self.read_disturb_threshold = read_disturb_threshold
        self.max_read_retries = max(1, max_read_retries)

        self._map: dict[int, int] = {}  # logical key -> packed ppa
        self._rmap: dict[int, int] = {}  # packed ppa -> logical key
        self._user_frontier: dict[int, int | None] = {d: None for d in dies}
        self._gc_frontier: dict[int, int | None] = {d: None for d in dies}
        # The frontier rule: a slot — user, GC or group — holds a block only
        # while that block is OPEN.  The write that fills a block empties its
        # slot; one retired or drained before that goes through _detach_slots.
        #: group -> (stripe slots of (die, block), [next die offset, next slot])
        self._groups: dict[int, tuple[list[tuple[int, int] | None], list[int]]] = {}
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

        The packed address the engine stored itself is split straight into
        the device's READ PAGE coordinates.
        """
        packed = self._map.get(key)
        if packed is None:
            raise KeyError(f"logical page {key} is not mapped")
        die, rest = divmod(packed, self._pages_per_die)
        block, page = divmod(rest, self._pages_per_block)
        try:
            data, __, end = self.device.read_page_packed(die, block, page, at)
        except TransientReadError:
            data, end = self._retry_read(die, block, page, at, scrub=True)
        if self.read_disturb_threshold is not None:
            self._maybe_refresh(die, block, end)
        return data, end

    def _retry_read(
        self, die: int, block: int, page: int, at: float, scrub: bool
    ) -> tuple[Payload, float]:
        """Bounded retry of a transient read failure, ``(data, end_us)``; scrub on success.

        Real controllers re-read with stepped reference voltages; here each
        retry is another READ PAGE command.  A success means the data was
        salvageable but the block is suspect, so (when ``scrub`` is set)
        its live pages are relocated and the block erased — the same move
        as a read-disturb refresh, charged asynchronously.
        """
        retries = self.max_read_retries
        while True:
            try:
                data, __, end = self.device.read_page_packed(die, block, page, at)
            except TransientReadError:
                retries -= 1
                if not retries:
                    raise
                continue
            faults = self.device.faults
            if faults is not None:
                faults.stats.recovered_read_retry += 1
            if scrub:
                self._scrub_block(die, block, end)
            return data, end

    def _scrub_block(self, die_index: int, block: int, at: float) -> None:
        """Relocate and erase a block that produced a transient read failure.

        Only FULL blocks are scrubbed — open frontiers refresh naturally
        when sealed and collected.  The erase routes through
        :meth:`_retire_or_recycle`, so a scrub that pushes the block past
        rated endurance retires it.
        """
        books = self.books[die_index]
        if books.state[block] != BlockState.FULL:
            return
        moved = books.valid_count[block]
        self._empty_block(die_index, block, at)
        faults = self.device.faults
        if faults is not None:
            faults.stats.scrubs += 1
            faults.stats.scrub_relocations += moved

    def _maybe_refresh(self, die_index: int, block: int, at: float) -> None:
        """Refresh a block whose read count crossed the disturb threshold.

        Live pages are relocated (the refresh) and the block erased —
        charged to the device timelines asynchronously, like GC.  Counts
        as wear-levelling work in the statistics.
        """
        reads = self.device.dies[die_index].reads_since_erase(block)
        if reads < self.read_disturb_threshold:
            return
        if self.books[die_index].state[block] == BlockState.FULL:
            # open frontiers refresh when collected
            self._empty_block(die_index, block, at, wear_level=True)

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
        # Die pick is inlined from _pick_die, and the frontier refill too;
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
                    if len(books.free) > 1 or books.has_reclaimable:
                        self._rr_index = (rr + offset + 1) % n
                        break
                else:
                    raise SpaceFullError(
                        f"engine over dies {self.dies}: every die is full of valid data"
                    )
                if len(books.free) <= self.gc_trigger_free_blocks:
                    at = self._collect_if_needed(die_index, at)
                slots: _Slots = self._user_frontier
                slot = die_index
                block = slots[slot]
                if block is None:
                    block = slots[slot] = books.take_free_block()
            else:
                die_index, block, slots, slot, at = self._group_frontier(group, at)
                books = books_map[die_index]
            page = books.written[block]
            obj = self.obj_id
            seq = device._seq + 1  # next_sequence(), sans the call
            device._seq = seq
            try:
                __, end = device.program_page_packed(
                    die_index, block, page, data, key,
                    seq, -1 if obj is None else obj, at,
                )
            except ProgramFaultError:
                at = self._on_program_fault(die_index, block, at)
                redrives += 1
                if redrives == MAX_WRITE_REDRIVES:
                    raise
                continue
            # inline invalidate(key): the overwritten version (if any) dies
            old = self._map.pop(key, None)
            if old is not None:
                odie, rest = divmod(old, ppd)
                oblock, opage = divmod(rest, ppb)
                books_map[odie].invalidate(oblock, opage)
                del self._rmap[old]
            books.note_write(block, page, end)
            packed = die_index * ppd + block * ppb + page
            self._map[key] = packed
            self._rmap[packed] = key
            if books.written[block] >= ppb:
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
                        block = slots[slot]
                        if block is None:
                            block = slots[slot] = self.books[die_index].take_free_block()
                    else:
                        die_index, block, slots, slot, at = self._group_frontier(group, at)
                    books = self.books[die_index]
                    page = books.written[block]
                    at = device.program_page_packed(
                        die_index, block, page, data, key,
                        device.next_sequence(), -1 if obj is None else obj, at, extra,
                    )[1]
                    books.note_write(block, page, at)
                    if books.written[block] >= ppb:
                        slots[slot] = None  # the frontier rule
                    staged.append((key, die_index, block, page))
            except ProgramFaultError:
                # abandon the attempt BEFORE retiring the block, so the
                # salvage pass only relocates pages that are really mapped
                self._abandon_staged(staged)
                at = self._on_program_fault(die_index, block, at)
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
            self.books[die_index].invalidate(block, page)

    def invalidate(self, key: int) -> None:
        """Drop the mapping for ``key`` (its physical page becomes garbage)."""
        packed = self._map.pop(key, None)
        if packed is None:
            return
        # unpack inline: this runs on every overwrite, and the engine only
        # ever stores addresses it packed itself, so no validation round-trip
        die, rest = divmod(packed, self._pages_per_die)
        block, page = divmod(rest, self._pages_per_block)
        self.books[die].invalidate(block, page)
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

    def _group_frontier(
        self, group: int, at: float
    ) -> tuple[int, int, list[tuple[int, int] | None], int, float]:
        """``(die, block, slots, slot, at)``: the active erase block of a
        placement group, and the slot holding it (``slots[slot]``, for the
        write that fills the block to empty).

        Each group keeps up to ``GROUP_STRIPE_WIDTH`` open blocks on
        distinct dies and rotates through them page by page, so even a
        burst of writes to one object spreads over several dies ("the
        distribution over available Flash data channels, dies or planes
        allows for better I/O parallelism").  Blocks stay object-pure; an
        empty slot is refilled from the next die in round-robin order."""
        state = self._groups.get(group)
        if state is None:
            slots: list[tuple[int, int] | None] = [None] * min(
                GROUP_STRIPE_WIDTH, len(self.dies)
            )
            state = self._groups[group] = (slots, [group % len(self.dies), 0])
        slots, nexts = state
        width = len(slots)
        for __ in range(width):
            slot = nexts[1]
            nexts[1] = (slot + 1) % width
            held = slots[slot]
            if held is None:
                held, at = self._take_group_block(nexts, at)
                if held is None:
                    continue
                slots[slot] = held
            return held[0], held[1], slots, slot, at
        raise SpaceFullError(
            f"engine over dies {self.dies}: every die is full of valid data"
        )

    def _take_group_block(
        self, nexts: list[int], at: float
    ) -> tuple[tuple[int, int] | None, float]:
        """Allocate a fresh ``(die, block)`` for a group from the next viable die."""
        n = len(self.dies)
        start = nexts[0]
        for offset in range(n):
            die_index = self.dies[(start + offset) % n]
            books = self.books[die_index]
            if books.free_count > 1 or books.has_reclaimable:
                at = self._collect_if_needed(die_index, at)
                nexts[0] = (start + offset + 1) % n
                return (die_index, books.take_free_block()), at
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
            victim = self.gc_policy.choose_victim(books, t)
            if victim is None:
                if books.free_count == 0:
                    raise SpaceFullError(
                        f"die {die_index}: no free blocks and nothing to reclaim"
                    )
                break
            t = self._collect_block(die_index, victim, t)
        t = self._maybe_wear_level(t)
        return t if blocking else at

    def _collect_block(self, die_index: int, victim: int, at: float) -> float:
        self.stats.gc_victim_valid_pages += self.books[die_index].valid_count[victim]
        __, end = self._empty_block(die_index, victim, at)
        self._erases_since_wl_check += 1
        return end

    def _empty_block(
        self, die_index: int, block: int, at: float,
        target: int | None = None, wear_level: bool = False,
    ) -> tuple[float, float]:
        """Relocate ``block``'s live pages, ERASE it, recycle or retire it —
        the one way a block is emptied (GC victim, scrub, refresh, WL move,
        evacuated die).  ``target`` and ``wear_level`` are :meth:`_relocate`'s
        and decide the erase counter too.  Returns ``(erase issued, erase
        done)``: the relocations end at the first, the block is free at the
        second."""
        pages = self.books[die_index].valid_pages(block)
        at = self._relocate(die_index, block, pages, at, target, wear_level)
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
        if self.device.dies[die_index].is_bad(block):
            books.reset_after_erase(block)
            books.mark_bad(block)
        else:
            books.return_erased_block(block)

    def _relocate(
        self, die_index: int, src_block: int, pages: list[int], at: float,
        target: int | None = None, wear_level: bool = False,
    ) -> float:
        """Move the live ``pages`` of ``src_block`` within their die, one
        after another (copyback preferred); returns when the last move ends.
        Each goes to ``target`` (the wear leveller's worn block, held by no
        slot) while that is OPEN, else to the die's GC frontier.  ``wear_level``
        says who pays, and a move counts once: ``wl_moves``, or for GC, scrub
        and salvage ``gc_copybacks`` (fallback: ``gc_reads`` + ``gc_programs``).

        The OOB fields travel unchanged, by copyback or read + program —
        crucially including the write sequence number: relocation moves a
        *version*, it does not create one.  (A refreshed sequence number
        could outrank a later committed write at recovery time.)"""
        ppb = self._pages_per_block
        die_base = die_index * self._pages_per_die
        src_base = die_base + src_block * ppb
        copyback = self.device.copyback_packed
        source_die = self.device.dies[die_index]
        books = self.books[die_index]
        state = books.state
        written = books.written
        gc_frontier = self._gc_frontier
        mapping = self._map
        rmap = self._rmap
        stats = self.stats
        for src_page in pages:
            src_packed = src_base + src_page
            key = rmap[src_packed]
            redrives = 0
            while True:
                block = target
                if block is None or state[block] != BlockState.OPEN:
                    block = gc_frontier[die_index]
                    if block is None:
                        block = gc_frontier[die_index] = books.take_free_block()
                page = written[block]
                try:
                    __, at = copyback(die_index, src_block, src_page, block, page, at)
                    if not wear_level:
                        stats.gc_copybacks += 1
                except CopybackError:
                    data, at = self._read_for_relocation(die_index, src_block, src_page, at)
                    lpn, seq, obj, extra = source_die.oob(src_block, src_page)
                    try:
                        at = self.device.program_page_packed(
                            die_index, block, page, data, lpn, seq, obj, at, extra
                        )[1]
                    except ProgramFaultError:
                        at = self._on_program_fault(die_index, block, at)
                        redrives += 1
                        if redrives == MAX_WRITE_REDRIVES:
                            raise
                        continue
                    if not wear_level:
                        stats.gc_reads += 1
                        stats.gc_programs += 1
                break
            if wear_level:
                stats.wl_moves += 1
            books.invalidate(src_block, src_page)
            del rmap[src_packed]
            books.note_write(block, page, at)
            packed = die_base + block * ppb + page
            mapping[key] = packed
            rmap[packed] = key
            if block != target and written[block] >= ppb:
                gc_frontier[die_index] = None  # the frontier rule
        return at

    def _read_for_relocation(
        self, die: int, block: int, page: int, at: float
    ) -> tuple[Payload, float]:
        """``(data, end_us)`` of a page to relocate, absorbing transient read failures.

        No scrub on success: relocation callers are already emptying (or
        retiring) the source block, so scheduling another scrub of it would
        relocate the same pages twice.
        """
        try:
            data, __, end = self.device.read_page_packed(die, block, page, at)
        except TransientReadError:
            return self._retry_read(die, block, page, at, scrub=False)
        return data, end

    def _on_program_fault(self, die_index: int, block: int, at: float) -> float:
        """Retire a write frontier whose program failed (grown bad block).

        The failed page was never committed by the device, but the block
        can no longer be trusted: detach it from every frontier slot,
        salvage its already-programmed live pages (still readable — program
        failures are per-page), and mirror the retirement on the device and
        in the books.  No erase — a grown-bad block cannot be erased; since
        it is marked bad, recovery scans skip it, so the stale page copies
        on it are never resurrected.
        """
        books = self.books[die_index]
        self._detach_slots(die_index, block)
        books.seal(block)
        moved = books.valid_count[block]
        at = self._relocate(die_index, block, books.valid_pages(block), at)
        self.device.dies[die_index].mark_bad(block)
        books.mark_bad(block)
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_grown_bad_blocks += 1
            faults.stats.salvage_relocations += moved
            faults.stats.redrive_writes += 1
        return at

    def retire_grown_bad_block(self, die_index: int, block: int, at: float) -> float:
        """Finish a grown-bad retirement that was interrupted mid-salvage.

        A power cut inside :meth:`_on_program_fault` loses the host's
        knowledge that ``block`` took a program failure; recovery harnesses
        call this on the rebuilt engine to land the retirement.
        """
        return self._on_program_fault(die_index, block, at)

    def _detach_slots(self, die_index: int, block: int | None = None) -> None:
        """Empty every slot — user, GC, group — that holds a block of
        ``die_index`` (only ``block``, if given): it is about to stop being
        OPEN some other way than by filling up."""
        for frontiers in (self._user_frontier, self._gc_frontier):
            held = frontiers.get(die_index)
            if held is not None and block in (None, held):
                frontiers[die_index] = None
        for slots, __ in self._groups.values():
            for slot, pair in enumerate(slots):
                if pair is not None and pair[0] == die_index and block in (None, pair[1]):
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
        state, valid = books.state, books.valid_count
        fulls = [
            b for b in range(books.blocks_per_die)
            if state[b] == BlockState.FULL and valid[b] > 0
        ]
        erase_count = self.device.dies[die_index].erase_count
        move = self._wl_ranking.choose_move(books.free_blocks(), fulls, erase_count)
        if move is None:
            return at
        target, cold = move
        if erase_count(target) - erase_count(cold) <= self.wear_level_threshold:
            return at
        books.take_block(target)
        __, end = self._empty_block(die_index, cold, at, target, wear_level=True)
        books.seal(target)  # a partly filled target's tail counts invalid
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
        The die's bookkeeping stays in ``books`` for the caller to dispose of;
        a drain a power cut interrupted resumes with the die out of ``dies``."""
        if die_index in self.dies:
            self.dies.remove(die_index)
        self._user_frontier.pop(die_index, None)
        self._gc_frontier.pop(die_index, None)
        self._detach_slots(die_index)
        moved = 0
        books = self.books[die_index]
        ppb = self._pages_per_block
        die_base = die_index * self._pages_per_die
        for block in range(books.blocks_per_die):
            for page in books.valid_pages(block):
                key = self._rmap.pop(die_base + block * ppb + page)
                data, end = self._read_for_relocation(die_index, block, page, at)
                self.stats.gc_reads += 1
                books.invalidate(block, page)
                del self._map[key]
                at = self.write(key, data, end)
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
        at = self.release_die(die_index, self._drain_die(die_index, at)[1])
        return self.books.pop(die_index), at

    def release_die(self, die_index: int, at: float | None = None) -> float:
        """Erase every block the engine wrote on ``die_index`` and give its
        OPEN empty blocks back to the pool (BAD blocks stay); returns the
        chain's end.  From ``at`` the erases chain and count as GC
        erases (a drained die); without it each is issued at the device
        clock, live pages and all, and counted nowhere (a dropped region)."""
        books = self.books[die_index]
        state = books.state
        for block in range(books.blocks_per_die):
            if state[block] == BlockState.BAD:
                continue
            if books.written[block] > 0:
                if at is None:
                    self.device.erase_block_packed(die_index, block, self.device.clock.now)
                    self._retire_or_recycle(die_index, block)
                else:
                    at = self._empty_block(die_index, block, at)[1]
            elif state[block] == BlockState.OPEN:
                books.return_erased_block(block)
        return self.device.clock.now if at is None else at

    def fail_die(self, die_index: int, at: float) -> tuple[int, float]:
        """Rebuild around a write/erase-dead die; returns ``(moved, end_us)``.

        The failure model (mirrored by the injector): the die stops
        accepting PROGRAM and ERASE but still serves reads, so its live
        pages are recoverable.  Unlike :meth:`evacuate_die` the blocks are
        *not* erased (erase would fail) and the bookkeeping is not handed
        to another engine: the die leaves the system permanently and the
        engine's capacity shrinks accordingly.
        """
        if die_index not in self.books:
            raise ValueError(f"die {die_index} does not belong to this engine")
        if not set(self.dies) - {die_index}:
            raise SpaceFullError(
                f"die {die_index} failed and the engine has no surviving dies"
            )
        moved, at = self._drain_die(die_index, at)
        del self.books[die_index]
        faults = self.device.faults
        if faults is not None:
            faults.stats.retired_dies += 1
            faults.stats.rebuild_relocations += moved
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
        recovery time is measured rather than assumed.  A die whose drain the
        crash cut short is in ``books`` but not ``dies``: it is scanned last,
        with no frontier, until the drain resumes.  Returns the completion time.
        """
        self._map.clear()
        self._rmap.clear()
        self._user_frontier = {d: None for d in self.dies}
        self._gc_frontier = {d: None for d in self.dies}
        self._groups.clear()
        ppd = self._pages_per_die
        ppb = self._pages_per_block
        # pass 1 — scan every programmed page's OOB, collecting candidates
        # (packed address, key, seq, atomic id, atomic size)
        candidates: list[tuple[int, int, int, int | None, int]] = []
        atomic_seen: dict[int, int] = {}
        for die_index in [*self.dies, *(d for d in self.books if d not in self.dies)]:
            device_die = self.device.dies[die_index]
            books = self.books[die_index]
            books.reset_all()
            books.adopt_factory_bad_blocks(device_die)  # and the grown ones
            for block_index in range(self.device.geometry.blocks_per_die):
                written = device_die.write_pointer(block_index)
                if written == 0 or device_die.is_bad(block_index):
                    continue
                books.take_block(block_index)
                block_base = die_index * ppd + block_index * ppb
                for page in range(written):
                    meta, __, at = self.device.read_metadata(die_index, block_index, page, at)
                    books.note_write(block_index, page, at)
                    key = None if meta is None else meta.lpn
                    mine = meta is not None and (
                        self.obj_id is None or meta.obj_id == self.obj_id
                    )
                    if not mine or key is None:
                        books.invalidate(block_index, page)
                        continue
                    atomic_id = meta.extra.get("atomic_id") if meta.extra else None
                    atomic_size = meta.extra.get("atomic_size", 0) if meta.extra else 0
                    if atomic_id is not None:
                        atomic_seen[atomic_id] = atomic_seen.get(atomic_id, 0) + 1
                    candidates.append((block_base + page, key, meta.seq, atomic_id, atomic_size))
                books.seal(block_index)  # a partially written block's tail counts invalid

        # pass 2 — a torn atomic batch (fewer pages on flash than its
        # recorded size) never happened: drop all of its members
        def torn(atomic_id: int | None, atomic_size: int) -> bool:
            return atomic_id is not None and atomic_seen.get(atomic_id, 0) < atomic_size

        # pass 3 — highest surviving sequence number wins per key
        best_seq: dict[int, int] = {}
        locations: dict[int, int] = {}
        for packed, key, seq, atomic_id, atomic_size in candidates:
            if torn(atomic_id, atomic_size):
                continue
            if key not in best_seq or seq > best_seq[key]:
                best_seq[key] = seq
                locations[key] = packed

        # pass 4 — every non-winner page becomes garbage
        winners = set(locations.values())
        for packed, key, seq, atomic_id, atomic_size in candidates:
            if packed not in winners:
                die, rest = divmod(packed, ppd)
                block, page = divmod(rest, ppb)
                self.books[die].invalidate(block, page)
        for key, packed in locations.items():
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
            die, rest = divmod(packed, self._pages_per_die)
            block, page = divmod(rest, self._pages_per_block)
            where = f"d{die}/b{block}/p{page}"
            assert die in self.books, f"mapped page on foreign die: {where}"
            valid = self.books[die].valid_mask[block] >> page & 1
            assert valid, f"mapped page not valid in bookkeeping: {where}"
        assert seen == set(self._rmap), "rmap contains stale entries"
        # the frontier rule: every slot holds an OPEN block of an owned die
        # that is out of the free pool, and no block sits in two slots
        slots = [*self._user_frontier.items(), *self._gc_frontier.items()]
        for stripe, __ in self._groups.values():
            slots.extend(stripe)
        seen_blocks: set[tuple[int, int]] = set()
        for held in slots:
            if held is None or held[1] is None:
                continue
            die, block = held
            where = f"d{die}/b{block}"
            assert die in self.dies, f"frontier slot on foreign die: {where}"
            state = BlockState(self.books[die].state[block])
            assert state == BlockState.OPEN, (
                f"frontier slot holds a {state.name.lower()} block: {where}"
            )
            assert block not in self.books[die].free, f"frontier block in the free pool: {where}"
            assert (die, block) not in seen_blocks, f"block in two frontier slots: {where}"
            seen_blocks.add((die, block))
        for books in self.books.values():
            books.check_invariants()
