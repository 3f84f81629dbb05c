"""Unit tests for the baseline page-mapping FTL."""

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.ftl import DeviceFullError, PageMappingFTL


def make_ftl(**kwargs):
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=8,
        page_size=256,
        oob_size=16,
        max_pe_cycles=10_000,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    defaults = dict(overprovision=0.4)
    defaults.update(kwargs)
    return PageMappingFTL(device, **defaults)


class TestBasicIO:
    def test_write_then_read_roundtrip(self):
        ftl = make_ftl()
        ftl.write(0, b"alpha")
        ftl.write(1, b"beta")
        assert ftl.read(0)[0] == b"alpha"
        assert ftl.read(1)[0] == b"beta"

    def test_overwrite_returns_latest(self):
        ftl = make_ftl()
        for version in range(5):
            ftl.write(3, f"v{version}".encode())
        assert ftl.read(3)[0] == b"v4"

    def test_read_unwritten_lba_raises(self):
        ftl = make_ftl()
        with pytest.raises(KeyError):
            ftl.read(0)

    def test_lba_bounds_checked(self):
        ftl = make_ftl()
        with pytest.raises(ValueError):
            ftl.write(ftl.num_lbas, b"x")
        with pytest.raises(ValueError):
            ftl.read(-1)

    def test_num_lbas_respects_overprovision(self):
        ftl = make_ftl(overprovision=0.4)
        total = ftl.geometry.total_pages
        assert ftl.num_lbas == int(total * 0.6)

    def test_host_counters(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.write(0, b"y")
        ftl.read(0)
        assert ftl.stats.host_writes == 2
        assert ftl.stats.host_reads == 1

    def test_trim_forgets_data(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.trim(0)
        with pytest.raises(KeyError):
            ftl.read(0)

    def test_writes_stripe_across_dies(self):
        ftl = make_ftl()
        for lba in range(8):
            ftl.write(lba, b"x")
        per_die = ftl.device.stats.programs_per_die
        assert all(count == 2 for count in per_die)


class TestGarbageCollection:
    def test_gc_reclaims_space_under_update_load(self):
        ftl = make_ftl()
        # hammer a small working set far beyond raw capacity
        for i in range(ftl.geometry.total_pages * 3):
            ftl.write(i % 8, bytes([i % 256]))
        assert ftl.stats.gc_erases > 0
        assert ftl.stats.gc_copybacks >= 0
        # data still correct after heavy GC
        for lba in range(8):
            assert ftl.read(lba)[0] is not None
        ftl.check_consistency()

    def test_gc_preserves_cold_data(self):
        ftl = make_ftl()
        cold = {lba: bytes([lba]) * 4 for lba in range(20)}
        for lba, payload in cold.items():
            ftl.write(lba, payload)
        # hot updates force GC to relocate the cold pages eventually
        hot = ftl.num_lbas - 1
        for i in range(ftl.geometry.total_pages * 3):
            ftl.write(hot, bytes([i % 256]))
        for lba, payload in cold.items():
            assert ftl.read(lba)[0] == payload
        ftl.check_consistency()

    def test_write_amplification_above_one_under_skewed_churn(self):
        import random

        rng = random.Random(1)
        ftl = make_ftl()
        # mixed hot/cold updates leave live pages in GC victims
        for lba in range(ftl.num_lbas):
            ftl.write(lba, b"seed")
        for __ in range(ftl.geometry.total_pages * 4):
            if rng.random() < 0.9:
                ftl.write(rng.randrange(8), b"hot")
            else:
                ftl.write(rng.randrange(ftl.num_lbas), b"warm")
        assert ftl.stats.write_amplification > 1.0
        assert ftl.stats.gc_copybacks > 0

    def test_overcommitted_export_rejected_at_construction(self):
        with pytest.raises(ValueError, match="overprovision"):
            make_ftl(overprovision=0.0)

    def test_gc_policy_validated_at_construction(self):
        # registry resolution is eager: a bogus name fails fast, not mid-GC
        with pytest.raises(ValueError, match="bogus"):
            make_ftl(gc_policy="bogus")


class TestWearLeveling:
    def test_wear_leveling_moves_cold_blocks(self):
        ftl = make_ftl(
            wear_level_threshold=4,
            wl_check_interval_erases=8,
        )
        # cold data that never moves on its own
        for lba in range(16):
            ftl.write(lba, b"cold")
        # hot churn elsewhere drives erase counts up
        for i in range(ftl.geometry.total_pages * 12):
            ftl.write(16 + (i % 4), bytes([i % 256]))
        assert ftl.stats.wl_moves > 0
        for lba in range(16):
            assert ftl.read(lba)[0] == b"cold"
        ftl.check_consistency()

    def test_wear_leveling_narrows_erase_spread(self):
        def spread(ftl):
            counts = [c for counts in ftl.device.erase_counts() for c in counts]
            return max(counts) - min(counts)

        churn = lambda f: [f.write(16 + (i % 4), b"x") for i in range(f.geometry.total_pages * 12)]
        plain = make_ftl()
        for lba in range(16):
            plain.write(lba, b"cold")
        churn(plain)
        leveled = make_ftl(wear_level_threshold=4, wl_check_interval_erases=8)
        for lba in range(16):
            leveled.write(lba, b"cold")
        churn(leveled)
        assert spread(leveled) <= spread(plain)


class TestConsistency:
    def test_check_consistency_on_fresh_device(self):
        make_ftl().check_consistency()

    def test_mapped_lbas_counts(self):
        ftl = make_ftl()
        ftl.write(0, b"x")
        ftl.write(5, b"y")
        ftl.write(0, b"z")
        assert ftl.mapped_lbas() == 2
