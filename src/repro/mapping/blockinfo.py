"""Valid-page bookkeeping for flash management layers (flat array-backed).

Real NAND does not know which of its programmed pages still hold live data —
that knowledge belongs to whoever owns the address translation.  Both
management layers in this reproduction (the on-device FTL of
:mod:`repro.ftl` and the host-side NoFTL of :mod:`repro.core`) therefore
share these primitives:

* :class:`BlockInfo` — per-erase-block state: how many pages are written,
  which of them are still valid, and the block's lifecycle state;
* :class:`DieBookkeeping` — per-die collections of blocks by state plus the
  free-block pool.

Keeping this in one place is not just code hygiene: it makes the FTL/NoFTL
comparison honest, because both layers run the *same* bookkeeping and differ
only where the paper says they differ (who runs it, with what knowledge, and
over which dies).

Everything here sits on the engine's per-write hot path, so the bookkeeping
is **incremental** and **columnar**:

* all per-block fields live in flat parallel arrays owned by the die
  (:class:`_BlockColumns`): lifecycle codes in a ``bytearray``, valid
  bitmasks in a plain list (they are arbitrary-precision ints), valid/
  written counts in ``array('q')`` and last-write stamps in ``array('d')``.
  A :class:`BlockInfo` is a read-mostly *view* — (columns, index) — for
  policies and tests; every state transition is a
  :class:`DieBookkeeping` operation on a block index
  (:meth:`~DieBookkeeping.note_write_packed`,
  :meth:`~DieBookkeeping.invalidate_packed`, :meth:`~DieBookkeeping.seal`,
  :meth:`~DieBookkeeping.reset_after_erase`), so a view holds no
  reference back to its die and the books free by reference counting;
* page validity is an int bitmask with a maintained valid count —
  no per-query popcount over a Python list;
* the GC candidate set (FULL blocks with at least one invalid page) is
  maintained on state transitions, bucketed by invalid-page count, giving
  an O(1) :attr:`DieBookkeeping.has_reclaimable` predicate and near-O(1)
  greedy victim selection instead of an O(blocks × pages) scan per write;
* the free pool is an insertion-ordered dict, so membership tests,
  targeted removal (wear leveller, bad-block retirement) and LIFO pops
  are all O(1).

The incremental state is redundant with the per-block ground truth, and
:meth:`DieBookkeeping.check_invariants` /
:meth:`DieBookkeeping.gc_candidates_scan` recompute it from scratch so
property tests can prove the two never diverge.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.flash.die import Die


class BlockState(enum.Enum):
    """Lifecycle of an erase block as seen by a management layer."""

    FREE = "free"  #: erased, not yet allocated to a write frontier
    OPEN = "open"  #: currently being filled by a write frontier
    FULL = "full"  #: fully programmed; GC candidate once pages invalidate
    BAD = "bad"  #: retired


#: integer codes of :class:`BlockState` as stored in the state column
_FREE, _OPEN, _FULL, _BAD = 0, 1, 2, 3
_STATE_FROM_CODE: tuple[BlockState, BlockState, BlockState, BlockState] = (
    BlockState.FREE,
    BlockState.OPEN,
    BlockState.FULL,
    BlockState.BAD,
)
_CODE_FROM_STATE: dict[BlockState, int] = {
    state: code for code, state in enumerate(_STATE_FROM_CODE)
}


class BookkeepingError(Exception):
    """Inconsistent valid-page bookkeeping (a management-layer bug)."""


class _BlockColumns:
    """Flat per-block storage for one die (struct-of-arrays).

    One instance backs every :class:`BlockInfo` view of a die; a standalone
    ``BlockInfo`` (unit tests, ad-hoc construction) owns a private
    single-row instance.
    """

    __slots__ = ("pages_per_block", "state", "valid_mask", "valid_count",
                 "written", "last_write_us")

    def __init__(self, rows: int, pages_per_block: int) -> None:
        self.pages_per_block = pages_per_block
        self.state = bytearray(rows)  # zero-filled == all FREE
        #: bitmasks are arbitrary-precision ints (blocks can exceed 64 pages)
        self.valid_mask: list[int] = [0] * rows
        self.valid_count = array("q", bytes(8 * rows))
        self.written = array("q", bytes(8 * rows))
        self.last_write_us = array("d", bytes(8 * rows))


class BlockInfo:
    """Management-layer view of one erase block.

    A (columns, row) view over its die's :class:`_BlockColumns`; field reads
    and writes go straight to the arrays, so views taken at different times
    always agree.  Transitions that keep the die's GC candidate set in step
    belong to :class:`DieBookkeeping`, not to the view.  Constructing one
    directly (``BlockInfo(die=.., block=.., pages_per_block=.., ...)``)
    makes a standalone block with private single-row columns holding the
    given fields — the form unit tests and policy fixtures use.

    Attributes (all backed by the columns):
        die: global die index.
        block: die-local block index.
        state: lifecycle state.
        valid_mask: per-page validity bitmask (bit ``p`` set = page ``p``
            holds live data).
        valid_count: number of set bits in ``valid_mask``, maintained
            incrementally so reading it never popcounts.
        written: number of pages programmed since the last erase.
        last_write_us: virtual time of the most recent program into this
            block (used by cost-benefit GC as the block's "age").
    """

    __slots__ = ("die", "block", "_cols", "_row")

    def __init__(
        self,
        die: int,
        block: int,
        pages_per_block: int,
        state: BlockState = BlockState.FREE,
        valid_mask: int = 0,
        valid_count: int = 0,
        written: int = 0,
        last_write_us: float = 0.0,
    ) -> None:
        self.die = die
        self.block = block
        cols = _BlockColumns(1, pages_per_block)
        self._cols = cols
        self._row = 0
        cols.state[0] = _CODE_FROM_STATE[state]
        cols.valid_mask[0] = valid_mask
        cols.valid_count[0] = valid_count
        cols.written[0] = written
        cols.last_write_us[0] = last_write_us

    @classmethod
    def _view(cls, die: int, block: int, cols: _BlockColumns, row: int) -> "BlockInfo":
        """Bind a view onto shared die columns (no private allocation)."""
        self = object.__new__(cls)
        self.die = die
        self.block = block
        self._cols = cols
        self._row = row
        return self

    # ------------------------------------------------------------------
    # Column-backed fields
    # ------------------------------------------------------------------
    @property
    def pages_per_block(self) -> int:
        """Number of pages in this block."""
        return self._cols.pages_per_block

    @property
    def state(self) -> BlockState:
        """Lifecycle state."""
        return _STATE_FROM_CODE[self._cols.state[self._row]]

    @state.setter
    def state(self, value: BlockState) -> None:
        self._cols.state[self._row] = _CODE_FROM_STATE[value]

    @property
    def valid_mask(self) -> int:
        """Per-page validity bitmask."""
        return self._cols.valid_mask[self._row]

    @valid_mask.setter
    def valid_mask(self, value: int) -> None:
        self._cols.valid_mask[self._row] = value

    @property
    def valid_count(self) -> int:
        """Number of set bits in ``valid_mask`` (maintained, not counted)."""
        return self._cols.valid_count[self._row]

    @valid_count.setter
    def valid_count(self, value: int) -> None:
        self._cols.valid_count[self._row] = value

    @property
    def written(self) -> int:
        """Pages programmed since the last erase."""
        return self._cols.written[self._row]

    @written.setter
    def written(self, value: int) -> None:
        self._cols.written[self._row] = value

    @property
    def last_write_us(self) -> float:
        """Virtual time of the most recent program into this block."""
        return self._cols.last_write_us[self._row]

    @last_write_us.setter
    def last_write_us(self, value: float) -> None:
        self._cols.last_write_us[self._row] = value

    def __repr__(self) -> str:
        return (
            f"BlockInfo(die={self.die}, block={self.block}, "
            f"pages_per_block={self.pages_per_block}, state={self.state}, "
            f"valid_mask={self.valid_mask}, valid_count={self.valid_count}, "
            f"written={self.written}, last_write_us={self.last_write_us})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockInfo):
            return NotImplemented
        return (
            self.die == other.die
            and self.block == other.block
            and self.pages_per_block == other.pages_per_block
            and self.state is other.state
            and self.valid_mask == other.valid_mask
            and self.valid_count == other.valid_count
            and self.written == other.written
            and self.last_write_us == other.last_write_us
        )

    # value-equal like the former dataclass, therefore unhashable
    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def invalid_count(self) -> int:
        """Number of dead (written but superseded) pages."""
        row = self._row
        return self._cols.written[row] - self._cols.valid_count[row]

    @property
    def is_full(self) -> bool:
        """Whether every page has been written."""
        return self._cols.written[self._row] >= self._cols.pages_per_block

    def is_valid(self, page: int) -> bool:
        """Whether ``page`` currently holds live data."""
        return bool(self._cols.valid_mask[self._row] >> page & 1)

    def valid_pages(self) -> list[int]:
        """Indices of pages that still hold live data (ascending)."""
        mask = self._cols.valid_mask[self._row]
        pages = []
        while mask:
            low = mask & -mask
            pages.append(low.bit_length() - 1)
            mask ^= low
        return pages


class DieBookkeeping:
    """All block bookkeeping for one die.

    Owns the die's :class:`_BlockColumns` plus the free-block pool and the
    GC candidate set; ``blocks`` holds one persistent :class:`BlockInfo`
    view per block (row *b* == block *b*).  The management layer is
    responsible for calling :meth:`take_free_block` /
    :meth:`return_erased_block` around its write frontiers and GC.  Every
    per-block transition — :meth:`note_write_packed`,
    :meth:`invalidate_packed`, :meth:`seal`, :meth:`reset_after_erase` —
    is a method here taking a block index; it indexes the columns
    directly and keeps the candidate set in step.

    The candidate set is kept incrementally: a block enters when it
    transitions to FULL with at least one invalid page (or, already FULL,
    suffers its first invalidation), moves between invalid-count buckets as
    further pages die, and leaves on erase or retirement.  ``_candidate_bucket``
    maps candidate block index to its current invalid count; ``_buckets``
    is the inverse, and ``_max_invalid`` a lazily-repaired upper bound used
    by greedy victim selection.
    """

    def __init__(self, die: int, blocks_per_die: int, pages_per_block: int) -> None:
        self.die = die
        self.pages_per_block = pages_per_block
        cols = _BlockColumns(blocks_per_die, pages_per_block)
        self._cols = cols
        # column aliases: hot paths (here and in the engine) index these
        # directly instead of going through a BlockInfo view
        self._state = cols.state
        self._valid_mask = cols.valid_mask
        self._valid_count = cols.valid_count
        self._written = cols.written
        self._last_write_us = cols.last_write_us
        self.blocks: list[BlockInfo] = [
            BlockInfo._view(die, b, cols, b) for b in range(blocks_per_die)
        ]
        # insertion-ordered free pool: O(1) membership, removal, LIFO pop.
        # Seeded high-to-low so the first pops hand out blocks 0, 1, 2, …
        self._free: dict[int, None] = dict.fromkeys(range(blocks_per_die - 1, -1, -1))
        self._candidate_bucket: dict[int, int] = {}  # block -> invalid_count
        self._buckets: dict[int, set[int]] = {}  # invalid_count -> blocks
        self._max_invalid = 0

    @property
    def free_count(self) -> int:
        """Number of blocks in the free pool."""
        return len(self._free)

    @property
    def has_reclaimable(self) -> bool:
        """O(1): does any FULL block carry at least one invalid page?"""
        return bool(self._candidate_bucket)

    # ------------------------------------------------------------------
    # Per-block transitions (column-indexed, no BlockInfo views)
    # ------------------------------------------------------------------
    def note_write_packed(self, block: int, page: int, now_us: float) -> None:
        """Record that ``page`` of ``block`` was just programmed with live
        data; pages are written in order, and the last one makes the block
        FULL."""
        written = self._written
        if page != written[block]:
            raise BookkeepingError(
                f"block d{self.die}/b{block}: wrote page {page}, "
                f"expected {written[block]}"
            )
        masks = self._valid_mask
        mask = masks[block]
        bit = 1 << page
        if mask & bit:
            raise BookkeepingError(f"page {page} already valid in d{self.die}/b{block}")
        masks[block] = mask | bit
        self._valid_count[block] += 1
        wrote = written[block] + 1
        written[block] = wrote
        self._last_write_us[block] = now_us
        if wrote >= self.pages_per_block:
            self._state[block] = _FULL
            invalid = wrote - self._valid_count[block]
            if invalid > 0:
                self._put_candidate(block, invalid)

    def invalidate_packed(self, block: int, page: int) -> None:
        """Record that the live data at ``page`` of ``block`` was superseded
        elsewhere."""
        masks = self._valid_mask
        mask = masks[block]
        bit = 1 << page
        if not mask & bit:
            raise BookkeepingError(
                f"double invalidate of page {page} in d{self.die}/b{block}"
            )
        masks[block] = mask ^ bit
        count = self._valid_count[block] - 1
        self._valid_count[block] = count
        if self._state[block] == _FULL:
            self._put_candidate(block, self._written[block] - count)

    def seal(self, block: int) -> None:
        """Close a partially-filled block: its unwritten tail counts invalid.

        Used for relocation targets and recovery of partially-written
        blocks; a sealed block with dead tail pages is reclaimable.
        """
        written = self._written
        if 0 < written[block] < self.pages_per_block:
            written[block] = self.pages_per_block
            self._state[block] = _FULL
            self._put_candidate(block, self.pages_per_block - self._valid_count[block])

    def reset_after_erase(self, block: int) -> None:
        """Return ``block`` to the FREE state after an erase (the free pool
        is the caller's: see :meth:`return_erased_block`)."""
        self._valid_mask[block] = 0
        self._valid_count[block] = 0
        self._written[block] = 0
        self._state[block] = _FREE
        self._drop_candidate(block)

    # ------------------------------------------------------------------
    # Candidate-set maintenance
    # ------------------------------------------------------------------
    def _put_candidate(self, block: int, invalid_count: int) -> None:
        old = self._candidate_bucket.get(block)
        if old is not None:
            self._buckets[old].discard(block)
        self._candidate_bucket[block] = invalid_count
        bucket = self._buckets.get(invalid_count)
        if bucket is None:
            bucket = self._buckets[invalid_count] = set()
        bucket.add(block)
        if invalid_count > self._max_invalid:
            self._max_invalid = invalid_count

    def _drop_candidate(self, block: int) -> None:
        old = self._candidate_bucket.pop(block, None)
        if old is not None:
            self._buckets[old].discard(block)

    def greedy_victim(self) -> BlockInfo | None:
        """Candidate with the most invalid pages (lowest block breaks ties).

        Bit-identical to a greedy scan over :meth:`gc_candidates_scan`:
        the highest non-empty invalid-count bucket is found by repairing
        ``_max_invalid`` downwards (amortised O(1) — it only rises one
        invalidation at a time), then the lowest block index in it wins.
        """
        if not self._candidate_bucket:
            return None
        while self._max_invalid > 0 and not self._buckets.get(self._max_invalid):
            self._max_invalid -= 1
        return self.blocks[min(self._buckets[self._max_invalid])]

    def iter_candidates(self) -> Iterator[BlockInfo]:
        """The maintained candidate set as BlockInfo records (any order)."""
        return map(self.blocks.__getitem__, self._candidate_bucket)

    # ------------------------------------------------------------------
    # Free pool
    # ------------------------------------------------------------------
    def mark_bad(self, block: int) -> None:
        """Retire a block; it leaves the free pool permanently."""
        self._state[block] = _BAD
        self._free.pop(block, None)
        self._drop_candidate(block)

    def adopt_factory_bad_blocks(self, device_die: "Die") -> None:
        """Mirror a device die's factory bad-block marks into the books.

        Every management layer does this once at attach time; ``device_die``
        only needs a ``blocks`` sequence whose entries expose ``is_bad``.
        """
        for b, blk in enumerate(device_die.blocks):
            if blk.is_bad:
                self.mark_bad(b)

    def take_free_block(self) -> BlockInfo:
        """Pop a free block and mark it OPEN (for a write frontier).

        A pool entry that is not FREE (a block programmed while it sat in
        the pool) raises like any other :meth:`take_block` of a busy block;
        it is never skipped over."""
        if not self._free:
            raise BookkeepingError(f"die {self.die}: out of free blocks")
        return self.take_block(next(reversed(self._free)))

    def reset_all(self) -> None:
        """Forget all state: every good block returns to the free pool.

        Used by crash recovery, which rebuilds validity from the flash
        itself; bad-block markings are preserved (they reflect hardware).
        """
        self._candidate_bucket.clear()
        self._buckets.clear()
        self._max_invalid = 0
        state = self._state
        for block in range(len(state)):
            if state[block] != _BAD:
                self.reset_after_erase(block)
        self._free = dict.fromkeys(
            b for b in range(len(self.blocks) - 1, -1, -1) if state[b] != _BAD
        )

    def take_block(self, block: int) -> BlockInfo:
        """Pop a *specific* free block and mark it OPEN (the wear leveller's
        pick; also the body of :meth:`take_free_block`)."""
        if self._state[block] != _FREE or block not in self._free:
            raise BookkeepingError(f"die {self.die}: block {block} is not free")
        del self._free[block]
        self._state[block] = _OPEN
        return self.blocks[block]

    def free_blocks(self) -> list[BlockInfo]:
        """BlockInfo records currently in the free pool."""
        return [self.blocks[b] for b in self._free]

    def return_erased_block(self, block: int) -> None:
        """Put an erased block back into the free pool."""
        if self._state[block] == _BAD:
            return
        self.reset_after_erase(block)
        self._free[block] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def gc_candidates(self) -> list[BlockInfo]:
        """FULL blocks with at least one invalid page (erasable after GC)."""
        return [self.blocks[b] for b in sorted(self._candidate_bucket)]

    def gc_candidates_scan(self) -> list[BlockInfo]:
        """The candidate set recomputed from scratch (reference/testing)."""
        state = self._state
        written = self._written
        count = self._valid_count
        return [
            self.blocks[b]
            for b in range(len(self.blocks))
            if state[b] == _FULL and written[b] - count[b] > 0
        ]

    def good_block_count(self) -> int:
        """Blocks in any state but BAD: one C-level count over the state
        column (capacity accounting asks on every region allocation)."""
        state = self._state
        return len(state) - state.count(_BAD)

    def total_valid_pages(self) -> int:
        """Live pages across the die (for utilization accounting)."""
        return sum(self._valid_count)

    def check_invariants(self) -> None:
        """Assert the incremental state matches a from-scratch recompute."""
        for info in self.blocks:
            if info.valid_mask.bit_count() != info.valid_count:
                raise BookkeepingError(
                    f"d{info.die}/b{info.block}: valid_count {info.valid_count} "
                    f"!= popcount {info.valid_mask.bit_count()}"
                )
            if info.valid_mask >> info.pages_per_block:
                raise BookkeepingError(
                    f"d{info.die}/b{info.block}: validity bits beyond the block"
                )
        expected = {b.block for b in self.gc_candidates_scan()}
        if set(self._candidate_bucket) != expected:
            raise BookkeepingError(
                f"die {self.die}: candidate set {sorted(self._candidate_bucket)} "
                f"!= recomputed {sorted(expected)}"
            )
        for block, count in self._candidate_bucket.items():
            if self.blocks[block].invalid_count != count:
                raise BookkeepingError(
                    f"die {self.die}: block {block} bucketed at {count}, "
                    f"actual invalid_count {self.blocks[block].invalid_count}"
                )
            if block not in self._buckets.get(count, ()):
                raise BookkeepingError(
                    f"die {self.die}: block {block} missing from bucket {count}"
                )
        for count, blocks in self._buckets.items():
            stray = {
                b for b in blocks if self._candidate_bucket.get(b) != count
            }
            if stray:
                raise BookkeepingError(
                    f"die {self.die}: stale bucket {count} entries {sorted(stray)}"
                )
        if self._free.keys() & expected:
            raise BookkeepingError(f"die {self.die}: free blocks in candidate set")
