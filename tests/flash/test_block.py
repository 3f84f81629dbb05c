"""Unit tests for the erase-block rules NAND enforces (program order, erase,
wear-out, bad blocks), on the die-level API: the commands of
:class:`~repro.flash.FlashDevice` and the accessors of its dies."""

from dataclasses import replace

import pytest

from repro.flash import (
    BadBlockError,
    EraseError,
    FlashDevice,
    PageMetadata,
    ProgramError,
    ReadError,
    small_geometry,
)


def make_device(endurance=3):
    return FlashDevice(replace(small_geometry(), max_pe_cycles=endurance))


def program(device, page, data=b"x", lpn=-1, seq=-1, obj_id=-1, block=0):
    device.program_page_packed(0, block, page, data, lpn, seq, obj_id, 0.0)


class TestProgramDiscipline:
    def test_sequential_program_and_read(self):
        d = make_device()
        program(d, 0, b"a", lpn=10, seq=0)
        program(d, 1, b"b")
        die = d.dies[0]
        assert d.read_page_packed(0, 0, 0, 0.0)[0] == b"a"
        assert die.metadata(0, 0) == PageMetadata(lpn=10)
        assert die.metadata(0, 1) is None  # seq = -1: no OOB record
        assert die.oob(0, 0) == (10, 0, -1, None)
        assert die.reads_since_erase(0) == 1  # the OOB lookups count no read

    def test_out_of_order_program_rejected(self):
        d = make_device()
        with pytest.raises(ProgramError):
            program(d, 1, b"x")

    def test_reprogram_without_erase_rejected(self):
        d = make_device()
        program(d, 0, b"x")
        with pytest.raises(ProgramError):
            program(d, 0, b"y")

    def test_write_pointer_advances(self):
        d = make_device()
        die = d.dies[0]
        ppb = d.geometry.pages_per_block
        assert die.write_pointer(0) == 0
        program(d, 0, b"x")
        assert die.write_pointer(0) == 1
        for i in range(1, ppb):
            program(d, i, b"x")
        assert die.write_pointer(0) == ppb
        # a full block takes no page past its end (it would land on block 1)
        with pytest.raises(ProgramError):
            program(d, ppb, b"x")
        assert die.write_pointer(1) == 0

    def test_read_unprogrammed_page_rejected(self):
        d = make_device()
        with pytest.raises(ReadError):
            d.read_page_packed(0, 0, 0, 0.0)


class TestErase:
    def test_erase_resets_pages_and_counts(self):
        d = make_device()
        program(d, 0, b"x")
        d.erase_block_packed(0, 0, 0.0)
        die = d.dies[0]
        assert die.write_pointer(0) == 0
        assert die.erase_count(0) == 1
        with pytest.raises(ReadError):
            d.read_page_packed(0, 0, 0, 0.0)
        program(d, 0, b"again")  # programmable again from page 0

    def test_wearout_marks_block_bad(self):
        d = make_device(endurance=2)
        d.erase_block_packed(0, 0, 0.0)
        assert not d.dies[0].is_bad(0)
        d.erase_block_packed(0, 0, 0.0)  # the rated erase itself succeeds
        assert d.dies[0].is_bad(0)
        assert d.dies[0].bad_blocks() == [0]

    def test_bad_block_rejects_all_commands(self):
        d = make_device()
        program(d, 0, block=1)
        d.dies[0].mark_bad(0)
        with pytest.raises(BadBlockError):
            program(d, 0, b"x")
        with pytest.raises(BadBlockError):
            d.read_page_packed(0, 0, 0, 0.0)
        with pytest.raises(BadBlockError):
            d.read_metadata(0, 0, 0, 0.0)
        with pytest.raises(BadBlockError):
            d.copyback_packed(0, 1, 0, 0, 0, 0.0)
        with pytest.raises(EraseError):
            d.erase_block_packed(0, 0, 0.0)


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
