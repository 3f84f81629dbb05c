"""Unit tests for shared block bookkeeping.

Every per-block transition is a :class:`DieBookkeeping` operation on a
block index; a :class:`BlockInfo` is only a view of the die's columns.
"""

import gc

import pytest

from repro.mapping import BlockState, BookkeepingError, DieBookkeeping


def make_block(pages=4):
    """A one-block die with its block taken as a write frontier."""
    books = DieBookkeeping(die=0, blocks_per_die=1, pages_per_block=pages)
    return books, books.take_free_block()


class TestBlockInfo:
    def test_note_write_tracks_validity(self):
        books, info = make_block()
        books.note_write(0, 0, now_us=10.0)
        books.note_write(0, 1, now_us=20.0)
        assert info.valid_count == 2
        assert info.written == 2
        assert info.last_write_us == 20.0

    def test_out_of_order_write_rejected(self):
        books, __ = make_block()
        with pytest.raises(BookkeepingError):
            books.note_write(0, 2, now_us=0.0)

    def test_full_block_transitions_state(self):
        books, info = make_block(pages=2)
        books.note_write(0, 0, 0.0)
        assert info.state is BlockState.OPEN
        books.note_write(0, 1, 0.0)
        assert info.state is BlockState.FULL

    def test_invalidate(self):
        books, info = make_block()
        books.note_write(0, 0, 0.0)
        books.invalidate(0, 0)
        assert info.valid_count == 0
        assert info.invalid_count == 1

    def test_double_invalidate_rejected(self):
        books, __ = make_block()
        books.note_write(0, 0, 0.0)
        books.invalidate(0, 0)
        with pytest.raises(BookkeepingError):
            books.invalidate(0, 0)

    def test_valid_pages_listing(self):
        books, info = make_block()
        for i in range(3):
            books.note_write(0, i, 0.0)
        books.invalidate(0, 1)
        assert info.valid_pages() == [0, 2]

    def test_reset_after_erase(self):
        books, info = make_block(pages=2)
        books.note_write(0, 0, 0.0)
        books.note_write(0, 1, 0.0)
        books.reset_after_erase(0)
        assert info.state is BlockState.FREE
        assert info.written == 0
        assert info.valid_count == 0

    def test_views_hold_no_reference_to_their_books(self):
        # a view that reached back to its die would make every stack a
        # reference cycle, freed only by the cyclic collector
        books, info = make_block()
        assert not any(ref is books for ref in gc.get_referents(info))


class TestDieBookkeeping:
    def test_take_free_block_marks_open(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=4)
        info = die.take_free_block()
        assert info.state is BlockState.OPEN
        assert die.free_count == 3

    def test_take_free_blocks_exhausts(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=4)
        die.take_free_block()
        die.take_free_block()
        with pytest.raises(BookkeepingError):
            die.take_free_block()

    def test_take_free_block_refuses_a_pool_entry_that_is_not_free(self):
        # a block programmed while it sat in the pool (a frontier slot that
        # outlived its block) must surface, not be skipped over
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=4)
        die.blocks[0].state = BlockState.OPEN
        with pytest.raises(BookkeepingError, match="block 0 is not free"):
            die.take_free_block()

    def test_return_erased_block_recycles(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=2)
        info = die.take_free_block()
        die.note_write(info.block, 0, 0.0)
        die.note_write(info.block, 1, 0.0)
        die.return_erased_block(info.block)
        assert die.free_count == 2
        assert info.state is BlockState.FREE

    def test_bad_block_not_recycled(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=2)
        die.mark_bad(0)
        assert die.free_count == 1
        die.return_erased_block(0)
        assert die.free_count == 1

    def test_gc_candidates_only_full_with_invalid(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        fill_block(die)  # full, all valid -> not a candidate
        b = fill_block(die)
        die.invalidate(b.block, 0)  # full with one invalid -> candidate
        assert die.gc_candidates() == [b]

    def test_total_valid_pages(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=2)
        info = die.take_free_block()
        die.note_write(info.block, 0, 0.0)
        assert die.total_valid_pages() == 1


def fill_block(die, pages=2, now=0.0):
    info = die.take_free_block()
    for p in range(pages):
        die.note_write(info.block, p, now)
    return info


class TestIncrementalCandidates:
    """The maintained GC candidate set tracks state transitions exactly."""

    def test_validity_is_a_bitmask(self):
        die, info = make_block()
        die.note_write(0, 0, 0.0)
        die.note_write(0, 1, 0.0)
        die.invalidate(0, 0)
        assert info.valid_mask == 0b10
        assert info.valid_count == info.valid_mask.bit_count() == 1
        assert not info.is_valid(0)
        assert info.is_valid(1)

    def test_has_reclaimable_lifecycle(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        assert not die.has_reclaimable
        info = fill_block(die)
        assert not die.has_reclaimable  # full but all valid
        die.invalidate(info.block, 0)
        assert die.has_reclaimable
        die.return_erased_block(info.block)
        assert not die.has_reclaimable

    def test_candidate_enters_on_fill_with_prior_invalid(self):
        # pages can die while the block is still an open frontier; the
        # block must become a candidate the moment it fills
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        info = die.take_free_block()
        die.note_write(info.block, 0, 0.0)
        die.invalidate(info.block, 0)
        assert not die.has_reclaimable
        die.note_write(info.block, 1, 0.0)
        assert die.gc_candidates() == [info]

    def test_seal_makes_partial_block_a_candidate(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=4)
        info = die.take_free_block()
        die.note_write(info.block, 0, 0.0)
        die.seal(info.block)
        assert info.state is BlockState.FULL
        assert info.invalid_count == 3
        assert die.gc_candidates() == [info]

    def test_greedy_victim_max_invalid_lowest_block(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=4)
        a = fill_block(die, pages=4)
        b = fill_block(die, pages=4)
        c = fill_block(die, pages=4)
        die.invalidate(a.block, 0)
        for p in (0, 1):
            die.invalidate(b.block, p)
            die.invalidate(c.block, p)
        # b and c tie on invalid count; the lower block index wins
        assert die.greedy_victim() is b
        die.invalidate(b.block, 2)
        assert die.greedy_victim() is b
        die.return_erased_block(b.block)
        assert die.greedy_victim() is c

    def test_mark_bad_removes_candidate(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        info = fill_block(die)
        die.invalidate(info.block, 0)
        assert die.has_reclaimable
        die.mark_bad(info.block)
        assert not die.has_reclaimable
        die.check_invariants()

    def test_reset_all_clears_candidates(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        info = fill_block(die)
        die.invalidate(info.block, 0)
        die.reset_all()
        assert not die.has_reclaimable
        assert die.free_count == 3
        die.check_invariants()


class TestFreePoolOrder:
    """The dict-backed free pool keeps the seed's exact LIFO semantics."""

    def test_pops_ascend_then_lifo_recycle(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=1)
        assert die.take_free_block().block == 0
        assert die.take_free_block().block == 1
        die.note_write(0, 0, 0.0)
        die.return_erased_block(0)
        # the most recently returned block is handed out first
        assert die.take_free_block().block == 0

    def test_take_specific_block_preserves_order(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=1)
        die.take_block(1)
        assert [b.block for b in die.free_blocks()] == [3, 2, 0]
        assert die.take_free_block().block == 0

    def test_take_block_requires_free(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=1)
        die.take_block(1)
        with pytest.raises(BookkeepingError):
            die.take_block(1)
