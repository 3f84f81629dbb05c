"""Unit tests for latency accumulators and device statistics."""

import random

import pytest

from repro.flash import FlashDevice, LatencyAccumulator, small_geometry
from repro.obs import MetricRegistry


class TestLatencyAccumulator:
    def test_empty(self):
        acc = LatencyAccumulator()
        assert acc.mean_us == 0.0
        assert acc.percentile_us(0.99) == 0.0

    def test_mean_min_max(self):
        acc = LatencyAccumulator()
        for v in (10.0, 20.0, 30.0):
            acc.record(v)
        assert acc.mean_us == pytest.approx(20.0)
        assert acc.min_us == 10.0
        assert acc.max_us == 30.0

    def test_percentiles_approximate_distribution(self):
        rng = random.Random(1)
        acc = LatencyAccumulator()
        samples = sorted(rng.uniform(100, 10_000) for __ in range(5000))
        for v in samples:
            acc.record(v)
        exact_p50 = samples[2500]
        exact_p99 = samples[4950]
        assert acc.percentile_us(0.5) == pytest.approx(exact_p50, rel=0.25)
        assert acc.percentile_us(0.99) == pytest.approx(exact_p99, rel=0.25)
        # conservative: the reported tail never undershoots badly
        assert acc.percentile_us(0.99) >= exact_p99 * 0.85

    def test_percentile_never_exceeds_max(self):
        acc = LatencyAccumulator()
        acc.record(123.0)
        assert acc.percentile_us(1.0) <= 123.0

    def test_heavy_tail_visible(self):
        acc = LatencyAccumulator()
        for __ in range(99):
            acc.record(100.0)
        acc.record(50_000.0)
        assert acc.percentile_us(0.5) < 200.0
        assert acc.percentile_us(0.995) > 10_000.0

    def test_merge(self):
        a, b = LatencyAccumulator(), LatencyAccumulator()
        for v in (10.0, 20.0):
            a.record(v)
        for v in (30.0, 40.0):
            b.record(v)
        a.merge(b)
        assert a.count == 4
        assert a.mean_us == pytest.approx(25.0)
        assert a.max_us == 40.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            LatencyAccumulator().percentile_us(0.0)
        with pytest.raises(ValueError):
            LatencyAccumulator().percentile_us(1.5)


def drive(device, die):
    """One of each native command on ``die``: PROGRAM PAGE of 100 bytes
    twice, READ PAGE, the OOB read, COPYBACK and ERASE BLOCK."""
    device.program_page_packed(die, 0, 0, b"p" * 100, 7, 1, -1, 0.0)
    device.program_page_packed(die, 0, 1, b"q" * 100, 8, 2, -1, 0.0)
    device.read_page_packed(die, 0, 0, 0.0)
    device.read_metadata(die, 0, 1, 0.0)
    device.copyback_packed(die, 0, 0, 1, 0, 0.0)
    device.erase_block_packed(die, 0, 0.0)


class TestFlashStats:
    def test_per_die_counters(self):
        # the device bumps its counters inline, one command at a time
        device = FlashDevice(small_geometry())
        stats = device.stats
        drive(device, 2)
        assert (stats.reads, stats.programs, stats.erases, stats.copybacks) == (2, 2, 1, 1)
        assert stats.bytes_written == 200
        assert stats.bytes_read == 100 + device.geometry.oob_size
        assert stats.reads_per_die[:4] == [0, 0, 2, 0]
        assert stats.programs_per_die[:4] == [0, 0, 2, 0]
        assert stats.erases_per_die[:4] == [0, 0, 1, 0]
        assert stats.copybacks_per_die[:4] == [0, 0, 1, 0]
        assert sum(stats.reads_per_die) == stats.reads
        assert stats.read_latency_total_us > 0 and stats.program_latency_total_us > 0

    def test_snapshot_and_delta(self):
        # a window of the device counters is the registry's snapshot since a mark
        device = FlashDevice(small_geometry())
        drive(device, 1)
        registry = MetricRegistry()
        registry.register_source("flash", device.stats)
        start = registry.mark()
        drive(device, 0)
        window = registry.snapshot(since=start)
        assert window["flash.reads"] == 2
        assert window["flash.programs"] == 2
        assert window["flash.erases"] == 1 and window["flash.copybacks"] == 1
        assert window["flash.bytes_read"] == 100 + device.geometry.oob_size
        assert registry.snapshot()["flash.reads"] == 4  # the live snapshot stays cumulative
