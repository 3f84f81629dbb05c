"""Array-core bookkeeping: ``BlockInfo`` is a row view of its die's columns.

The engine's write/GC/WL paths run against flat column storage
(``array``/``bytearray`` valid masks and counters); the golden engine
snapshots that pin those paths live in ``test_engine_equivalence.py``.
"""


def test_blockinfo_views_share_die_columns():
    """BlockInfo objects are row views, not copies: a write through the
    books must be visible in the view and vice versa."""
    from repro.mapping import BlockState, DieBookkeeping

    books = DieBookkeeping(die=0, blocks_per_die=4, pages_per_block=8)
    info = books.take_free_block()
    books.note_write(info.block, 0, 123.0)
    assert books._valid_count[info.block] == 1
    assert books._last_write_us[info.block] == 123.0
    books._valid_mask[info.block] |= 1 << 3
    books._valid_count[info.block] += 1
    assert info.is_valid(3)
    assert info.valid_count == 2
    assert info.state is BlockState.OPEN
    info.last_write_us = 7.0
    assert books._last_write_us[info.block] == 7.0


def test_standalone_blockinfo_still_constructs():
    """BlockInfo built outside any die (tests, policies) holds the fields
    it was given in private columns; its derived state reads them."""
    from repro.mapping import BlockInfo, BlockState

    assert BlockInfo(die=1, block=2, pages_per_block=8).state is BlockState.FREE
    info = BlockInfo(
        die=1,
        block=2,
        pages_per_block=8,
        state=BlockState.FULL,
        valid_mask=0b10,
        valid_count=1,
        written=8,
        last_write_us=2.0,
    )
    assert info.invalid_count == 7
    assert info.is_full and info.is_valid(1) and not info.is_valid(0)
    assert info.valid_pages() == [1]
    info.valid_count = 0
    assert info.invalid_count == 8
