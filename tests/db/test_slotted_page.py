"""Unit tests for slotted pages."""

import struct

import pytest

from repro.db import PageFullError, SlotError, SlottedPage


class TestBasics:
    def test_insert_read_roundtrip(self):
        page = SlottedPage(256)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records_distinct_slots(self):
        page = SlottedPage(256)
        slots = [page.insert(bytes([i])) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i])

    def test_delete_and_slot_reuse(self):
        page = SlottedPage(256)
        a = page.insert(b"a")
        page.insert(b"b")
        page.delete(a)
        assert page.insert(b"c") == a

    def test_read_deleted_slot_rejected(self):
        page = SlottedPage(256)
        slot = page.insert(b"x")
        page.delete(slot)
        # slot directory shrank: the slot is now out of range or empty
        with pytest.raises(SlotError):
            page.read(slot)

    def test_update_in_place(self):
        page = SlottedPage(256)
        slot = page.insert(b"old")
        page.update(slot, b"newer")
        assert page.read(slot) == b"newer"

    def test_page_full(self):
        page = SlottedPage(64)
        with pytest.raises(PageFullError):
            for __ in range(20):
                page.insert(b"0123456789")

    def test_free_space_decreases(self):
        page = SlottedPage(256)
        before = page.free_space()
        page.insert(b"xxxx")
        assert page.free_space() < before

    def test_live_record_count(self):
        page = SlottedPage(256)
        a = page.insert(b"a")
        page.insert(b"b")
        page.delete(a)
        assert page.live_records() == 1
        assert not page.is_empty()


class TestSerialisation:
    def test_roundtrip_preserves_records_and_slots(self):
        page = SlottedPage(256)
        page.insert(b"alpha")
        b = page.insert(b"beta")
        page.insert(b"gamma")
        page.delete(b)
        image = page.to_bytes()
        assert len(image) == 256
        restored = SlottedPage.from_bytes(image)
        assert restored.read(0) == b"alpha"
        assert restored.read(2) == b"gamma"
        with pytest.raises(SlotError):
            restored.read(1)

    def test_empty_page_roundtrip(self):
        restored = SlottedPage.from_bytes(SlottedPage.empty_image(128))
        assert restored.is_empty()
        assert restored.slot_count == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage.from_bytes(b"\x00" * 128)

    def test_roundtrip_after_updates(self):
        page = SlottedPage(256)
        slot = page.insert(b"aaaa")
        page.update(slot, b"bb")
        restored = SlottedPage.from_bytes(page.to_bytes())
        assert restored.read(slot) == b"bb"

    def test_zero_length_record(self):
        page = SlottedPage(128)
        slot = page.insert(b"")
        restored = SlottedPage.from_bytes(page.to_bytes())
        assert restored.read(slot) == b""


class TestCorruptImages:
    """``from_bytes`` refuses what ``to_bytes`` cannot have written.  Before,
    each of these came back as a page (or as a raw ``struct.error``)."""

    @staticmethod
    def image(slots, page_size=64, slot_count=None):
        """A page image with a hand-written directory; heap bytes count up."""
        count = len(slots) if slot_count is None else slot_count
        buf = bytearray(range(page_size))
        struct.pack_into("<HHH", buf, 0, 0x5350, count, page_size)
        for i, (offset, length) in enumerate(slots):
            struct.pack_into("<HH", buf, 6 + 4 * i, offset, length)
        return bytes(buf)

    def test_well_formed_hand_written_image_is_accepted(self):
        page = SlottedPage.from_bytes(self.image([(58, 6), (0, 0), (18, 2)]))
        assert page.read(0) == bytes(range(58, 64))  # ends exactly at the page end
        assert page.read(2) == bytes([18, 19])  # starts exactly after the directory
        assert (page.live_records(), page.slot_count) == (2, 3)
        assert page.free_space() == 64 - (6 + 4 * 3 + 8) - 4

    def test_record_running_past_the_page_end_rejected(self):
        # was: read(0) == b"\x3e\x3f", two bytes of a six-byte record
        with pytest.raises(ValueError, match="corrupt slotted page"):
            SlottedPage.from_bytes(self.image([(62, 6)]))

    def test_overrun_is_found_behind_well_formed_slots(self):
        with pytest.raises(ValueError, match="corrupt slotted page"):
            SlottedPage.from_bytes(self.image([(50, 4), (0, 0), (63, 2), (40, 4)]))

    @pytest.mark.parametrize("offset", [1, 5, 6, 9])
    def test_slot_pointing_into_header_or_directory_rejected(self, offset):
        # was: the header/directory bytes handed out as a record
        with pytest.raises(ValueError, match="corrupt slotted page"):
            SlottedPage.from_bytes(self.image([(offset, 2)]))

    @pytest.mark.parametrize("page_size,slot_count", [(64, 15), (64, 0xFFFF), (66, 16)])
    def test_directory_larger_than_the_page_rejected(self, page_size, slot_count):
        # was: a raw struct.error where the cut-off directory is no whole
        # number of slots (64: 58 bytes), a silently shorter one where it is
        # (66: 60 bytes read as 15 slots)
        with pytest.raises(ValueError, match="corrupt slotted page"):
            SlottedPage.from_bytes(self.image([], page_size, slot_count))


class TestEdgeCases:
    def test_tiny_page_rejected(self):
        with pytest.raises(ValueError):
            SlottedPage(8)

    def test_slot_out_of_range(self):
        page = SlottedPage(128)
        with pytest.raises(SlotError):
            page.read(0)

    def test_update_that_does_not_fit(self):
        page = SlottedPage(64)
        slot = page.insert(b"x" * 30)
        with pytest.raises(PageFullError):
            page.update(slot, b"y" * 60)

    def test_non_bytes_rejected(self):
        page = SlottedPage(128)
        with pytest.raises(TypeError):
            page.insert("text")
