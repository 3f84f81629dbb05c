"""Valid-page bookkeeping for flash management layers (flat array-backed).

Real NAND does not know which of its programmed pages still hold live data —
that knowledge belongs to whoever owns the address translation.  Both
management layers in this reproduction (the on-device FTL of
:mod:`repro.ftl` and the host-side NoFTL of :mod:`repro.core`) therefore
share one primitive, :class:`DieBookkeeping`: per-block counters of one
die plus its free-block pool.  A block is a plain ``int`` index into the
die's columns; there is no per-block object.

Keeping this in one place is not just code hygiene: it makes the FTL/NoFTL
comparison honest, because both layers run the *same* bookkeeping and differ
only where the paper says they differ (who runs it, with what knowledge, and
over which dies).

Everything here sits on the engine's per-write hot path, so the bookkeeping
is **incremental** and **columnar**:

* every per-block field is one flat column owned by the die: lifecycle
  codes (:class:`BlockState`) in a ``bytearray``, valid bitmasks in a
  plain list (they are arbitrary-precision ints), valid/written counts in
  ``array('q')`` and last-write stamps in ``array('d')``.  Every state
  transition is a :class:`DieBookkeeping` method on a block index
  (:meth:`~DieBookkeeping.note_write`,
  :meth:`~DieBookkeeping.invalidate`, :meth:`~DieBookkeeping.seal`,
  :meth:`~DieBookkeeping.reset_after_erase`); readers index the columns;
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


class BlockState(enum.IntEnum):
    """Lifecycle of an erase block as seen by a management layer; the values
    are the codes of :attr:`DieBookkeeping.state`."""

    FREE = 0  #: erased, not yet allocated to a write frontier
    OPEN = 1  #: currently being filled by a write frontier
    FULL = 2  #: fully programmed; GC candidate once pages invalidate
    BAD = 3  #: retired


#: plain-int codes for the hot paths below
_FREE, _OPEN, _FULL, _BAD = 0, 1, 2, 3


class BookkeepingError(Exception):
    """Inconsistent valid-page bookkeeping (a management-layer bug)."""


class DieBookkeeping:
    """All block bookkeeping for one die.

    Owns one column per block field — ``state``, ``valid_mask``,
    ``valid_count``, ``written``, ``last_write_us``, each indexed by the
    die-local block number — plus the free-block pool ``free`` and the GC
    candidate set.  Callers read the columns directly; only the methods
    here change them.  The management layer is responsible for calling
    :meth:`take_free_block` / :meth:`return_erased_block` around its write
    frontiers and GC.

    The candidate set is the column ``_gc_valid``: a FULL block's valid
    count, ``pages_per_block`` for every other block, so the entries below
    ``pages_per_block`` are exactly the FULL blocks with an invalid page,
    and the smallest entry is the block with the most.  Each transition
    that changes a block's state or a FULL block's valid count stores one
    entry.
    """

    def __init__(self, die: int, blocks_per_die: int, pages_per_block: int) -> None:
        self.die = die
        self.blocks_per_die = blocks_per_die
        self.pages_per_block = pages_per_block
        #: lifecycle codes (:class:`BlockState` values); zero-filled == all FREE
        self.state = bytearray(blocks_per_die)
        #: per-page validity bitmask (bit ``p`` set = page ``p`` is live)
        self.valid_mask: list[int] = [0] * blocks_per_die
        #: set bits of ``valid_mask``, maintained so reading never popcounts
        self.valid_count = array("q", bytes(8 * blocks_per_die))
        #: pages programmed since the last erase
        self.written = array("q", bytes(8 * blocks_per_die))
        #: virtual time of the latest program (cost-benefit GC's "age")
        self.last_write_us = array("d", bytes(8 * blocks_per_die))
        # insertion-ordered free pool: O(1) membership, removal, LIFO pop.
        # Seeded high-to-low so the first pops hand out blocks 0, 1, 2, …
        self.free: dict[int, None] = dict.fromkeys(range(blocks_per_die - 1, -1, -1))
        #: per block: valid count if FULL, else pages_per_block
        self._gc_valid = array("q", [pages_per_block]) * blocks_per_die

    @property
    def free_count(self) -> int:
        """Number of blocks in the free pool."""
        return len(self.free)

    @property
    def has_reclaimable(self) -> bool:
        """Does any FULL block carry at least one invalid page?  One C-level
        ``min`` over the candidate column."""
        return min(self._gc_valid) < self.pages_per_block

    # ------------------------------------------------------------------
    # Derived per-block facts
    # ------------------------------------------------------------------
    def invalid_count(self, block: int) -> int:
        """Dead (written but superseded) pages of ``block``."""
        return self.written[block] - self.valid_count[block]

    def valid_pages(self, block: int) -> list[int]:
        """Pages of ``block`` that still hold live data (ascending)."""
        mask = self.valid_mask[block]
        pages = []
        while mask:
            low = mask & -mask
            pages.append(low.bit_length() - 1)
            mask ^= low
        return pages

    # ------------------------------------------------------------------
    # Per-block transitions
    # ------------------------------------------------------------------
    def note_write(self, block: int, page: int, now_us: float) -> None:
        """Record that ``page`` of ``block`` was just programmed with live
        data; pages are written in order, and the last one makes the block
        FULL."""
        written = self.written
        if page != written[block]:
            raise BookkeepingError(
                f"block d{self.die}/b{block}: wrote page {page}, "
                f"expected {written[block]}"
            )
        masks = self.valid_mask
        mask = masks[block]
        bit = 1 << page
        if mask & bit:
            raise BookkeepingError(f"page {page} already valid in d{self.die}/b{block}")
        masks[block] = mask | bit
        self.valid_count[block] += 1
        wrote = written[block] + 1
        written[block] = wrote
        self.last_write_us[block] = now_us
        if wrote >= self.pages_per_block:
            self.state[block] = _FULL
            self._gc_valid[block] = self.valid_count[block]

    def invalidate(self, block: int, page: int) -> None:
        """Record that the live data at ``page`` of ``block`` was superseded
        elsewhere."""
        masks = self.valid_mask
        mask = masks[block]
        bit = 1 << page
        if not mask & bit:
            raise BookkeepingError(
                f"double invalidate of page {page} in d{self.die}/b{block}"
            )
        masks[block] = mask ^ bit
        count = self.valid_count[block] - 1
        self.valid_count[block] = count
        if self.state[block] == _FULL:
            self._gc_valid[block] = count

    def seal(self, block: int) -> None:
        """Close a partially-filled block: its unwritten tail counts invalid.

        Used for relocation targets and recovery of partially-written
        blocks; a sealed block with dead tail pages is reclaimable.
        """
        written = self.written
        if 0 < written[block] < self.pages_per_block:
            written[block] = self.pages_per_block
            self.state[block] = _FULL
            self._gc_valid[block] = self.valid_count[block]

    def reset_after_erase(self, block: int) -> None:
        """Return ``block`` to the FREE state after an erase (the free pool
        is the caller's: see :meth:`return_erased_block`)."""
        self.valid_mask[block] = 0
        self.valid_count[block] = 0
        self.written[block] = 0
        self.state[block] = _FREE
        self._gc_valid[block] = self.pages_per_block

    # ------------------------------------------------------------------
    # Candidate queries
    # ------------------------------------------------------------------
    def greedy_victim(self) -> int | None:
        """Candidate with the most invalid pages (lowest block breaks ties).

        Bit-identical to a greedy scan over :meth:`gc_candidates_scan`: a
        FULL block's invalid count is ``pages_per_block`` minus its entry,
        so the victim is the first smallest entry, if that is a candidate.
        """
        col = self._gc_valid
        least = min(col)
        if least >= self.pages_per_block:
            return None
        return col.index(least)

    def iter_candidates(self) -> Iterator[int]:
        """The maintained candidate set, in block order."""
        return compress(
            range(self.blocks_per_die), map(self.pages_per_block.__gt__, self._gc_valid)
        )

    def gc_candidates_scan(self) -> list[int]:
        """The candidate set recomputed from scratch (reference/testing)."""
        state = self.state
        return [
            b for b in range(self.blocks_per_die)
            if state[b] == _FULL and self.invalid_count(b) > 0
        ]

    # ------------------------------------------------------------------
    # Free pool
    # ------------------------------------------------------------------
    def mark_bad(self, block: int) -> None:
        """Retire a block; it leaves the free pool permanently."""
        self.state[block] = _BAD
        self.free.pop(block, None)
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

    def take_free_block(self) -> int:
        """Pop a free block and mark it OPEN (for a write frontier).

        A pool entry that is not FREE (a block programmed while it sat in
        the pool) raises like any other :meth:`take_block` of a busy block;
        it is never skipped over."""
        if not self.free:
            raise BookkeepingError(f"die {self.die}: out of free blocks")
        return self.take_block(next(reversed(self.free)))

    def take_block(self, block: int) -> int:
        """Pop a *specific* free block and mark it OPEN (the wear leveller's
        pick; also the body of :meth:`take_free_block`)."""
        if self.state[block] != _FREE or block not in self.free:
            raise BookkeepingError(f"die {self.die}: block {block} is not free")
        del self.free[block]
        self.state[block] = _OPEN
        return block

    def free_blocks(self) -> list[int]:
        """Blocks currently in the free pool, in pool order."""
        return list(self.free)

    def return_erased_block(self, block: int) -> None:
        """Put an erased block back into the free pool."""
        if self.state[block] == _BAD:
            return
        self.reset_after_erase(block)
        self.free[block] = None

    def reset_all(self) -> None:
        """Forget all state: every good block returns to the free pool.

        Used by crash recovery, which rebuilds validity from the flash
        itself; bad-block markings are preserved (they reflect hardware).
        """
        state = self.state
        for block in range(self.blocks_per_die):
            if state[block] != _BAD:
                self.reset_after_erase(block)
        self.free = dict.fromkeys(
            b for b in range(self.blocks_per_die - 1, -1, -1) if state[b] != _BAD
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def good_block_count(self) -> int:
        """Blocks in any state but BAD: one C-level count over the state
        column (capacity accounting asks on every region allocation)."""
        return self.blocks_per_die - self.state.count(_BAD)

    def total_valid_pages(self) -> int:
        """Live pages across the die (for utilization accounting)."""
        return sum(self.valid_count)

    def check_invariants(self) -> None:
        """Assert the incremental state matches a from-scratch recompute."""
        ppb = self.pages_per_block
        for block in range(self.blocks_per_die):
            where = f"d{self.die}/b{block}"
            mask = self.valid_mask[block]
            count = self.valid_count[block]
            if mask.bit_count() != count:
                raise BookkeepingError(
                    f"{where}: valid_count {count} != popcount {mask.bit_count()}"
                )
            if mask >> ppb:
                raise BookkeepingError(f"{where}: validity bits beyond the block")
            entry = count if self.state[block] == _FULL else ppb
            if self._gc_valid[block] != entry:
                raise BookkeepingError(
                    f"{where}: candidate entry {self._gc_valid[block]} != recomputed {entry}"
                )
        expected = self.gc_candidates_scan()
        if list(self.iter_candidates()) != expected:
            raise BookkeepingError(
                f"die {self.die}: candidate set != recomputed {expected}"
            )
        if self.free.keys() & expected:
            raise BookkeepingError(f"die {self.die}: free blocks in candidate set")
