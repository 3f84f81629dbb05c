"""Unit tests for DFTL (cached mapping table) behaviour."""

import pytest

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.ftl import DFTL, PageMappingFTL


def make_dftl(cmt_entries=8, **kwargs):
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
    return DFTL(device, cmt_entries=cmt_entries, **defaults)


class TestCorrectness:
    def test_roundtrip_with_tiny_cmt(self):
        dftl = make_dftl(cmt_entries=2)
        payloads = {lba: bytes([lba]) * 8 for lba in range(32)}
        for lba, payload in payloads.items():
            dftl.write(lba, payload)
        for lba, payload in payloads.items():
            assert dftl.read(lba)[0] == payload

    def test_rejects_zero_cmt(self):
        with pytest.raises(ValueError):
            make_dftl(cmt_entries=0)

    def test_user_space_shrinks_for_translation_pages(self):
        dftl = make_dftl()
        geometry = dftl.geometry
        device = FlashDevice(geometry, timing=instant_timing())
        plain = PageMappingFTL(device, overprovision=0.4)
        assert dftl.num_lbas < plain.num_lbas

    def test_consistency_after_churn(self):
        import random

        rng = random.Random(3)
        dftl = make_dftl(cmt_entries=4)
        for __ in range(600):
            dftl.write(rng.randrange(dftl.num_lbas // 2), b"x")
        dftl.check_consistency()


class TestTranslationTraffic:
    def test_cmt_hit_costs_no_translation_io(self):
        dftl = make_dftl(cmt_entries=8)
        dftl.write(0, b"a")
        before = dftl.stats.trans_reads
        for __ in range(10):
            dftl.read(0)  # always a CMT hit
        assert dftl.stats.trans_reads == before

    def test_misses_trigger_translation_reads(self):
        dftl = make_dftl(cmt_entries=2)
        # fill enough LBAs that their mapping entries must be evicted,
        # persisted, and later demand-fetched
        entries = dftl.entries_per_tpage  # 256 bytes / 8 = 32
        lbas = [i * entries for i in range(4)]  # distinct translation pages
        for lba in lbas:
            if lba < dftl.num_lbas:
                dftl.write(lba, b"x")
        # revisit the first lba: its entry was evicted from the 2-entry CMT
        dftl.read(lbas[0])
        assert dftl.stats.trans_reads > 0

    def test_dirty_evictions_write_translation_pages(self):
        dftl = make_dftl(cmt_entries=2)
        entries = dftl.entries_per_tpage
        for i in range(6):
            lba = (i * entries) % dftl.num_lbas
            dftl.write(lba, b"x")
        assert dftl.stats.trans_writes > 0

    def test_cmt_respects_capacity(self):
        dftl = make_dftl(cmt_entries=4)
        for lba in range(16):
            dftl.write(lba, b"x")
        assert dftl.cmt_len() <= 4

    def test_batched_eviction_cleans_siblings(self):
        dftl = make_dftl(cmt_entries=4)
        # four dirty entries in the same translation page
        for lba in range(4):
            dftl.write(lba, b"x")
        before = dftl.stats.trans_writes
        # force an eviction with a 5th entry from another translation page
        other = dftl.entries_per_tpage
        dftl.write(other, b"y")
        # one translation write flushed all four siblings
        assert dftl.stats.trans_writes == before + 1
        # subsequent evictions of the cleaned siblings cost nothing
        dftl.write(other + 1, b"y")
        assert dftl.stats.trans_writes == before + 1


class TestInteractionWithGC:
    def test_translation_pages_survive_gc(self):
        import random

        rng = random.Random(7)
        dftl = make_dftl(cmt_entries=4)
        payloads = {}
        for __ in range(800):
            lba = rng.randrange(min(64, dftl.num_lbas))
            payload = bytes([rng.randrange(256)]) * 4
            dftl.write(lba, payload)
            payloads[lba] = payload
        assert dftl.stats.gc_erases > 0
        for lba, payload in payloads.items():
            assert dftl.read(lba)[0] == payload


class ScanningDFTL(DFTL):
    """The reference: a dirty eviction finds the victim's dirty siblings by
    scanning the whole CMT, as DFTL did before it kept them per page."""

    def _evict_lru(self, at):
        victim, victim_dirty = next(iter(self._cmt.items()))
        if not victim_dirty:
            del self._cmt[victim]
            return at
        tpage_index = victim // self.entries_per_tpage
        lo = tpage_index * self.entries_per_tpage
        hi = lo + self.entries_per_tpage
        at = self._write_internal(self.internal_lpn(tpage_index), b"T" * 64, at)
        self.stats.trans_writes += 1
        for lpn in [k for k, d in self._cmt.items() if d and lo <= k < hi]:
            self._cmt[lpn] = False
        del self._cmt[victim]
        return at


def device_counters(ftl):
    stats = ftl.device.stats
    return (
        stats.reads, stats.programs, stats.erases, stats.copybacks,
        stats.bytes_read, stats.bytes_written, stats.programs_per_die, stats.erases_per_die,
    )


class TestDirtySiblingIndex:
    @pytest.mark.parametrize("cmt_entries", [1, 5, 40])
    def test_matches_a_dftl_that_scans_the_cmt(self, cmt_entries):
        import random

        rng = random.Random(cmt_entries)
        fast, slow = make_dftl(cmt_entries), make_dftl(cmt_entries)
        slow.__class__ = ScanningDFTL
        # LBAs over a few translation pages, so evictions batch siblings
        span = min(fast.num_lbas, 3 * fast.entries_per_tpage)
        t_fast = t_slow = 0.0
        for step in range(span + 3000):
            lba = step if step < span else rng.randrange(span)  # write each once first
            if step < span or rng.random() < 0.6:
                t_fast = fast.write(lba, b"w", at=t_fast)
                t_slow = slow.write(lba, b"w", at=t_slow)
            else:
                __, t_fast = fast.read(lba, at=t_fast)
                __, t_slow = slow.read(lba, at=t_slow)
            assert list(fast._cmt.items()) == list(slow._cmt.items()), step
            assert t_fast == t_slow
            assert (fast.stats.trans_reads, fast.stats.trans_writes) == (
                slow.stats.trans_reads, slow.stats.trans_writes
            )
            assert device_counters(fast) == device_counters(slow)
        assert fast.stats.trans_writes > 50 and fast.stats.gc_erases > 0
