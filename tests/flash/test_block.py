"""Unit tests for the page/block state machines (NAND constraints)."""

import pytest

from repro.flash import BadBlockError, EraseError, ProgramError, ReadError
from repro.flash.block import Block, PageMetadata


def make_block(pages=4, endurance=3):
    return Block(pages_per_block=pages, max_pe_cycles=endurance)


def program(block, page, data=b"x", lpn=-1, seq=-1, obj_id=-1):
    block.program(page, data, lpn, seq, obj_id)


class TestProgramDiscipline:
    def test_sequential_program_and_read(self):
        b = make_block()
        program(b, 0, b"a", lpn=10, seq=0)
        program(b, 1, b"b")
        assert b.read_data(0) == b"a"
        assert b.metadata(0) == PageMetadata(lpn=10)
        assert b.metadata(1) is None  # seq = -1: no OOB record
        assert b.oob(0) == (10, 0, -1, None)
        assert b.reads_since_erase == 1  # the OOB lookups count no read

    def test_out_of_order_program_rejected(self):
        b = make_block()
        with pytest.raises(ProgramError):
            program(b, 1, b"x")

    def test_reprogram_without_erase_rejected(self):
        b = make_block()
        program(b, 0, b"x")
        with pytest.raises(ProgramError):
            program(b, 0, b"y")

    def test_write_pointer_advances(self):
        b = make_block()
        assert b.write_pointer == 0
        program(b, 0, b"x")
        assert b.write_pointer == 1
        assert not b.is_full
        for i in range(1, 4):
            program(b, i, b"x")
        assert b.is_full

    def test_read_unprogrammed_page_rejected(self):
        b = make_block()
        with pytest.raises(ReadError):
            b.read_data(0)


class TestErase:
    def test_erase_resets_pages_and_counts(self):
        b = make_block()
        program(b, 0, b"x")
        b.erase()
        assert b.is_erased
        assert b.erase_count == 1
        with pytest.raises(ReadError):
            b.read_data(0)
        program(b, 0, b"again")  # programmable again from page 0

    def test_wearout_marks_block_bad(self):
        b = make_block(endurance=2)
        b.erase()
        assert not b.is_bad
        b.erase()
        assert b.is_bad

    def test_bad_block_rejects_all_commands(self):
        b = make_block()
        b.mark_bad()
        with pytest.raises(BadBlockError):
            program(b, 0, b"x")
        with pytest.raises(BadBlockError):
            b.read_data(0)
        with pytest.raises(EraseError):
            b.erase()


class TestMetadata:
    def test_metadata_roundtrip_defaults(self):
        m = PageMetadata()
        assert m.lpn is None
        assert m.seq == 0
        assert m.extra == {}

    def test_metadata_extra_is_per_instance(self):
        a, b = PageMetadata(), PageMetadata()
        a.extra["k"] = 1
        assert b.extra == {}
