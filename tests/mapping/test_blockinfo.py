"""Unit tests for shared block bookkeeping.

A block is an ``int`` index into its die's columns; every per-block
transition is a :class:`DieBookkeeping` method on that index.
"""

import pytest

from repro.mapping import BlockState, BookkeepingError, DieBookkeeping


def make_block(pages=4):
    """A one-block die with its block taken as a write frontier."""
    books = DieBookkeeping(die=0, blocks_per_die=1, pages_per_block=pages)
    return books, books.take_free_block()


class TestBlockInfo:
    """The per-block columns through each transition."""

    def test_note_write_tracks_validity(self):
        books, block = make_block()
        books.note_write(0, 0, now_us=10.0)
        books.note_write(0, 1, now_us=20.0)
        assert books.valid_count[block] == 2
        assert books.written[block] == 2
        assert books.last_write_us[block] == 20.0

    def test_out_of_order_write_rejected(self):
        books, __ = make_block()
        with pytest.raises(BookkeepingError):
            books.note_write(0, 2, now_us=0.0)

    def test_full_block_transitions_state(self):
        books, block = make_block(pages=2)
        books.note_write(0, 0, 0.0)
        assert books.state[block] == BlockState.OPEN
        books.note_write(0, 1, 0.0)
        assert books.state[block] == BlockState.FULL

    def test_invalidate(self):
        books, block = make_block()
        books.note_write(0, 0, 0.0)
        books.invalidate(0, 0)
        assert books.valid_count[block] == 0
        assert books.invalid_count(block) == 1

    def test_double_invalidate_rejected(self):
        books, __ = make_block()
        books.note_write(0, 0, 0.0)
        books.invalidate(0, 0)
        with pytest.raises(BookkeepingError):
            books.invalidate(0, 0)

    def test_valid_pages_listing(self):
        books, block = make_block()
        for i in range(3):
            books.note_write(0, i, 0.0)
        books.invalidate(0, 1)
        assert books.valid_pages(block) == [0, 2]

    def test_reset_after_erase(self):
        books, block = make_block(pages=2)
        books.note_write(0, 0, 0.0)
        books.note_write(0, 1, 0.0)
        books.reset_after_erase(0)
        assert books.state[block] == BlockState.FREE
        assert books.written[block] == 0
        assert books.valid_count[block] == 0


class TestDieBookkeeping:
    def test_take_free_block_marks_open(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=4)
        block = die.take_free_block()
        assert die.state[block] == BlockState.OPEN
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
        die.state[0] = BlockState.OPEN
        with pytest.raises(BookkeepingError, match="block 0 is not free"):
            die.take_free_block()

    def test_return_erased_block_recycles(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=2)
        block = die.take_free_block()
        die.note_write(block, 0, 0.0)
        die.note_write(block, 1, 0.0)
        die.return_erased_block(block)
        assert die.free_count == 2
        assert die.state[block] == BlockState.FREE

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
        die.invalidate(b, 0)  # full with one invalid -> candidate
        assert list(die.iter_candidates()) == die.gc_candidates_scan() == [b]

    def test_total_valid_pages(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=2)
        block = die.take_free_block()
        die.note_write(block, 0, 0.0)
        assert die.total_valid_pages() == 1


def fill_block(die, pages=2, now=0.0):
    block = die.take_free_block()
    for p in range(pages):
        die.note_write(block, p, now)
    return block


class TestIncrementalCandidates:
    """The maintained GC candidate set tracks state transitions exactly."""

    def test_validity_is_a_bitmask(self):
        die, block = make_block()
        die.note_write(0, 0, 0.0)
        die.note_write(0, 1, 0.0)
        die.invalidate(0, 0)
        assert die.valid_mask[block] == 0b10
        assert die.valid_count[block] == die.valid_mask[block].bit_count() == 1
        assert die.valid_pages(block) == [1]

    def test_has_reclaimable_lifecycle(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        assert not die.has_reclaimable
        block = fill_block(die)
        assert not die.has_reclaimable  # full but all valid
        die.invalidate(block, 0)
        assert die.has_reclaimable
        die.return_erased_block(block)
        assert not die.has_reclaimable

    def test_candidate_enters_on_fill_with_prior_invalid(self):
        # pages can die while the block is still an open frontier; the
        # block must become a candidate the moment it fills
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        block = die.take_free_block()
        die.note_write(block, 0, 0.0)
        die.invalidate(block, 0)
        assert not die.has_reclaimable
        die.note_write(block, 1, 0.0)
        assert list(die.iter_candidates()) == [block]

    def test_seal_makes_partial_block_a_candidate(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=4)
        block = die.take_free_block()
        die.note_write(block, 0, 0.0)
        die.seal(block)
        assert die.state[block] == BlockState.FULL
        assert die.invalid_count(block) == 3
        assert list(die.iter_candidates()) == [block]

    def test_greedy_victim_max_invalid_lowest_block(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=4)
        a = fill_block(die, pages=4)
        b = fill_block(die, pages=4)
        c = fill_block(die, pages=4)
        die.invalidate(a, 0)
        for p in (0, 1):
            die.invalidate(b, p)
            die.invalidate(c, p)
        # b and c tie on invalid count; the lower block index wins
        assert die.greedy_victim() == b
        die.invalidate(b, 2)
        assert die.greedy_victim() == b
        die.return_erased_block(b)
        assert die.greedy_victim() == c

    def test_mark_bad_removes_candidate(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        block = fill_block(die)
        die.invalidate(block, 0)
        assert die.has_reclaimable
        die.mark_bad(block)
        assert not die.has_reclaimable
        die.check_invariants()

    def test_reset_all_clears_candidates(self):
        die = DieBookkeeping(die=0, blocks_per_die=3, pages_per_block=2)
        block = fill_block(die)
        die.invalidate(block, 0)
        die.reset_all()
        assert not die.has_reclaimable
        assert die.free_count == 3
        die.check_invariants()


class TestFreePoolOrder:
    """The dict-backed free pool keeps the seed's exact LIFO semantics."""

    def test_pops_ascend_then_lifo_recycle(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=1)
        assert die.take_free_block() == 0
        assert die.take_free_block() == 1
        die.note_write(0, 0, 0.0)
        die.return_erased_block(0)
        # the most recently returned block is handed out first
        assert die.take_free_block() == 0

    def test_take_specific_block_preserves_order(self):
        die = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=1)
        die.take_block(1)
        assert die.free_blocks() == [3, 2, 0]
        assert die.take_free_block() == 0

    def test_take_block_requires_free(self):
        die = DieBookkeeping(die=0, blocks_per_die=2, pages_per_block=1)
        die.take_block(1)
        with pytest.raises(BookkeepingError):
            die.take_block(1)
