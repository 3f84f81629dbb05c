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
  (:meth:`~DieBookkeeping.note_write`,
  :meth:`~DieBookkeeping.invalidate`, :meth:`~DieBookkeeping.seal`,
  :meth:`~DieBookkeeping.reset_after_erase`), so a view holds no
  reference back to its die and the books free by reference counting;
* page validity is an int bitmask with a maintained valid count —
  no per-query popcount over a Python list;
* the GC candidate set (FULL blocks with at least one invalid page) is
  one more ``array('q')`` column, set by each state transition: a FULL
  block's valid count, ``pages_per_block`` for any other block.  A
  candidate is an entry below ``pages_per_block``, so
  :attr:`DieBookkeeping.has_reclaimable` and greedy victim selection are
  a C-level ``min`` / ``index`` over one column instead of an
  O(blocks × pages) scan per write;
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
from itertools import compress
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
    per-block transition — :meth:`note_write`,
    :meth:`invalidate`, :meth:`seal`, :meth:`reset_after_erase` —
    is a method here taking a block index; it indexes the columns
    directly and keeps the candidate set in step.

    The candidate set is the column ``_gc_valid``: a FULL block's valid
    count, ``pages_per_block`` for every other block, so the entries below
    ``pages_per_block`` are exactly the FULL blocks with an invalid page,
    and the smallest entry is the block with the most.  Each transition
    that changes a block's state or a FULL block's valid count stores one
    entry.
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
        #: per block: valid count if FULL, else pages_per_block
        self._gc_valid = array("q", [pages_per_block]) * blocks_per_die

    @property
    def free_count(self) -> int:
        """Number of blocks in the free pool."""
        return len(self._free)

    @property
    def has_reclaimable(self) -> bool:
        """Does any FULL block carry at least one invalid page?  One C-level
        ``min`` over the candidate column."""
        return min(self._gc_valid) < self.pages_per_block

    # ------------------------------------------------------------------
    # Per-block transitions (column-indexed, no BlockInfo views)
    # ------------------------------------------------------------------
    def note_write(self, block: int, page: int, now_us: float) -> None:
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
            self._gc_valid[block] = self._valid_count[block]

    def invalidate(self, block: int, page: int) -> None:
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
            self._gc_valid[block] = count

    def seal(self, block: int) -> None:
        """Close a partially-filled block: its unwritten tail counts invalid.

        Used for relocation targets and recovery of partially-written
        blocks; a sealed block with dead tail pages is reclaimable.
        """
        written = self._written
        if 0 < written[block] < self.pages_per_block:
            written[block] = self.pages_per_block
            self._state[block] = _FULL
            self._gc_valid[block] = self._valid_count[block]

    def reset_after_erase(self, block: int) -> None:
        """Return ``block`` to the FREE state after an erase (the free pool
        is the caller's: see :meth:`return_erased_block`)."""
        self._valid_mask[block] = 0
        self._valid_count[block] = 0
        self._written[block] = 0
        self._state[block] = _FREE
        self._gc_valid[block] = self.pages_per_block

    # ------------------------------------------------------------------
    # Candidate queries
    # ------------------------------------------------------------------
    def greedy_victim(self) -> BlockInfo | None:
        """Candidate with the most invalid pages (lowest block breaks ties).

        Bit-identical to a greedy scan over :meth:`gc_candidates_scan`: a
        FULL block's invalid count is ``pages_per_block`` minus its entry,
        so the victim is the first smallest entry, if that is a candidate.
        """
        col = self._gc_valid
        least = min(col)
        if least >= self.pages_per_block:
            return None
        return self.blocks[col.index(least)]

    def iter_candidates(self) -> Iterator[BlockInfo]:
        """The maintained candidate set as BlockInfo records (block order)."""
        return compress(self.blocks, map(self.pages_per_block.__gt__, self._gc_valid))

    # ------------------------------------------------------------------
    # Free pool
    # ------------------------------------------------------------------
    def mark_bad(self, block: int) -> None:
        """Retire a block; it leaves the free pool permanently."""
        self._state[block] = _BAD
        self._free.pop(block, None)
        self._gc_valid[block] = self.pages_per_block

    def adopt_factory_bad_blocks(self, device_die: "Die") -> None:
        """Mirror a device die's bad-block marks into the books.

        Every management layer does this once at attach time (the factory
        marks), and crash recovery again after :meth:`reset_all` (grown bad
        blocks too); ``device_die`` only needs a ``bad_blocks()`` that lists
        the retired block indices.
        """
        for block in device_die.bad_blocks():
            self.mark_bad(block)

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
        return list(self.iter_candidates())

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
        ppb = self.pages_per_block
        for info in self.blocks:
            if info.valid_mask.bit_count() != info.valid_count:
                raise BookkeepingError(
                    f"d{info.die}/b{info.block}: valid_count {info.valid_count} "
                    f"!= popcount {info.valid_mask.bit_count()}"
                )
            if info.valid_mask >> ppb:
                raise BookkeepingError(
                    f"d{info.die}/b{info.block}: validity bits beyond the block"
                )
            entry = info.valid_count if info.state is BlockState.FULL else ppb
            if self._gc_valid[info.block] != entry:
                raise BookkeepingError(
                    f"d{info.die}/b{info.block}: candidate entry "
                    f"{self._gc_valid[info.block]} != recomputed {entry}"
                )
        expected = {b.block for b in self.gc_candidates_scan()}
        if {b.block for b in self.iter_candidates()} != expected:
            raise BookkeepingError(
                f"die {self.die}: candidate set != recomputed {sorted(expected)}"
            )
        if self._free.keys() & expected:
            raise BookkeepingError(f"die {self.die}: free blocks in candidate set")
