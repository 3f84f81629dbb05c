"""Unit tests for flash geometry arithmetic."""

import pytest

from repro.flash import AddressError, FlashGeometry, paper_geometry, small_geometry


class TestDerivedSizes:
    def test_small_geometry_totals(self):
        g = small_geometry()
        assert g.chips == 2
        assert g.dies == 4
        assert g.blocks_per_die == 4
        assert g.pages_per_die == 64
        assert g.total_pages == 256
        assert g.capacity_bytes == 256 * 512

    def test_paper_geometry_has_64_dies(self):
        g = paper_geometry()
        assert g.dies == 64
        assert g.channels == 4
        assert g.page_size == 4096

    def test_block_and_die_byte_sizes(self):
        g = small_geometry()
        assert g.block_bytes == 16 * 512
        assert g.die_bytes == 4 * 16 * 512

    def test_dies_per_channel(self):
        g = paper_geometry()
        assert g.dies_per_channel * g.channels == g.dies


class TestValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            FlashGeometry(channels=0)
        with pytest.raises(ValueError):
            FlashGeometry(pages_per_block=-1)

    def test_rejects_negative_oob(self):
        with pytest.raises(ValueError):
            FlashGeometry(oob_size=-1)

    def test_check_die_raises_out_of_range(self):
        g = small_geometry()
        with pytest.raises(AddressError):
            g.check_die(g.dies)
        with pytest.raises(AddressError):
            g.check_die(-1)

    def test_check_block(self):
        g = small_geometry()
        g.check_block(g.blocks_per_die - 1)
        with pytest.raises(AddressError):
            g.check_block(g.blocks_per_die)


class TestIndexArithmetic:
    def test_channel_and_chip_of_die_are_channel_major(self):
        g = paper_geometry()
        for die in range(g.dies):
            assert g.channel_of_die(die) == die // g.dies_per_channel
            assert g.chip_of_die(die) == die // g.dies_per_chip
        with pytest.raises(AddressError):
            g.channel_of_die(g.dies)

    def test_plane_of_block_interleaves(self):
        g = paper_geometry()
        assert g.plane_of_block(0) == 0
        assert g.plane_of_block(1) == 1
        assert g.plane_of_block(2) == 0

    def test_geometry_is_frozen(self):
        g = small_geometry()
        with pytest.raises(AttributeError):
            g.channels = 8
