"""The measured window: an experiment's result is the delta of two registry
readings, and a document's ``registry`` section is that window.

The unit tests drive :meth:`MetricRegistry.mark` /
``snapshot(since=...)`` on stats objects directly; the cell tests run a
``fig3.quick``-sized TPC-C cell (its device and population, a shorter
stream) and check the window against the device and the Figure 3 rows.
"""

from copy import deepcopy
from dataclasses import replace

import pytest

from repro.bench import experiment, tpcc_experiment
from repro.core import figure2_placement
from repro.db.buffer import BufferStats
from repro.flash.stats import percentile_from_buckets
from repro.mapping.stats import ManagementStats
from repro.obs import MetricRegistry, combined_management_stats


def _registry(**sources):
    registry = MetricRegistry()
    for prefix, source in sources.items():
        registry.register_source(prefix, source)
    return registry


class TestRegistryWindow:
    def test_counters_subtract_and_p99_comes_from_bucket_deltas(self):
        stats = ManagementStats()
        for __ in range(50):
            stats.host_read_latency.record(5_000.0)  # before the window: a slow tail
        stats.host_reads = 50
        registry = _registry(mgmt=stats)
        start = registry.mark()
        for __ in range(10):
            stats.host_read_latency.record(100.0)
        stats.host_reads += 10
        window = registry.snapshot(since=start)
        assert window["mgmt.host_reads"] == 10
        assert window["mgmt.host_read_latency_mean_us"] == pytest.approx(100.0)
        buckets = [0] * len(stats.host_read_latency.buckets)
        buckets[stats.host_read_latency.buckets.index(10)] = 10
        assert window["mgmt.host_read_latency_p99_us"] == percentile_from_buckets(buckets, 0.99)
        assert window["mgmt.host_read_latency_p99_us"] < 200.0  # the earlier tail is outside
        # the live snapshot is still cumulative
        assert registry.snapshot()["mgmt.host_reads"] == 60

    def test_source_missing_at_mark_counts_from_zero(self):
        early, late = BufferStats(hits=4), BufferStats(hits=3, misses=1)
        registry = _registry(**{"db.buffer": early})
        start = registry.mark()
        registry.register_source("mgmt", ManagementStats(host_writes=2, gc_copybacks=1))
        registry.register_source("region.rgLate", lambda: late)
        window = registry.snapshot(since=start)
        assert window["db.buffer.hits"] == 0
        assert window["mgmt.host_writes"] == 2
        assert window["region.rgLate.hits"] == 3

    def test_empty_window_reads_zero(self):
        stats = ManagementStats(host_reads=7, host_writes=9, gc_copybacks=3)
        stats.host_write_latency.record(250.0)
        buffer = BufferStats(hits=5, misses=5)
        registry = _registry(mgmt=stats, **{"db.buffer": buffer})
        window = registry.snapshot(since=registry.mark())
        assert set(window) == set(registry.snapshot())
        assert all(value == 0.0 for value in window.values()), window

    def test_gauges_report_their_end_value(self):
        box = {"pages": 3.0}
        registry = MetricRegistry()
        registry.gauge("db.buffer.buffered_pages", lambda: box["pages"])
        start = registry.mark()
        box["pages"] = 8.0
        assert registry.snapshot(since=start) == {"db.buffer.buffered_pages": 8.0}

    def test_ratios_are_recomputed_never_subtracted(self):
        stats = ManagementStats(host_writes=100, gc_copybacks=100)  # WA 2.0 before
        buffer = BufferStats(hits=10, misses=90)  # hit ratio 0.1 before
        registry = _registry(mgmt=stats, **{"db.buffer": buffer})
        start = registry.mark()
        stats.host_writes += 10
        stats.gc_copybacks += 1
        stats.trans_writes += 4
        buffer.hits += 9
        buffer.misses += 1
        window = registry.snapshot(since=start)
        assert window["mgmt.write_amplification"] == (10 + 1 + 4) / 10
        assert window["db.buffer.hit_ratio"] == 0.9


@pytest.fixture(scope="module")
def cell():
    """A fig3.quick cell under the Figure 2 placement, with what the device
    and the regions counted at window start."""
    config = replace(
        tpcc_experiment("fig3.quick"),
        name="figure2",
        placement=figure2_placement(64),
        num_transactions=400,
    )
    cell = experiment._Cell(config)
    db = cell.db
    before = (db.device.stats.erases, deepcopy(combined_management_stats(db.store.regions())))
    cell.advance()
    result = cell.result()
    return result, db, before


class TestCellWindow:
    def test_registry_section_is_the_window(self, cell):
        result, db, (erases_before, __) = cell
        registry = result.metrics()["registry"]
        figure3 = result.metrics()["figure3"]
        assert registry["mgmt.host_writes"] == figure3["host_writes"]
        assert registry["mgmt.gc_copybacks"] == figure3["gc_copybacks"]
        assert registry["flash.erases"] == db.device.stats.erases - erases_before
        # the load is outside the window
        assert registry["mgmt.host_writes"] < db.metrics_registry().snapshot()["mgmt.host_writes"]

    def test_regions_add_up_to_mgmt(self, cell):
        window = cell[0].window
        names = {key.split(".")[1] for key in window if key.startswith("region.")}
        assert len(names) > 1
        for counter in ("host_reads", "host_writes", "gc_copybacks", "gc_erases"):
            total = sum(window[f"region.{name}.{counter}"] for name in names)
            assert total == window[f"mgmt.{counter}"], counter

    def test_every_management_key_is_in_the_window(self, cell):
        window = cell[0].window
        names = {key.split(".")[1] for key in window if key.startswith("region.")}
        for local in ManagementStats().snapshot():
            assert f"mgmt.{local}" in window
            for name in names:
                assert f"region.{name}.{local}" in window

    def test_derived_keys_equal_their_recomputation(self, cell):
        result, db, (__, start) = cell
        window = result.window
        host_writes = window["mgmt.host_writes"]
        moved = window["mgmt.gc_copybacks"] + window["mgmt.gc_reads"] + window["mgmt.wl_moves"]
        assert window["mgmt.write_amplification"] == (
            (host_writes + moved + window["mgmt.trans_writes"]) / host_writes
        )
        hits, misses = window["db.buffer.hits"], window["db.buffer.misses"]
        assert window["db.buffer.hit_ratio"] == hits / (hits + misses)
        end = combined_management_stats(db.store.regions())
        for kind in ("read", "write"):
            now, then = getattr(end, f"host_{kind}_latency"), getattr(start, f"host_{kind}_latency")
            assert window[f"mgmt.host_{kind}_latency_mean_us"] == (
                (now.total_us - then.total_us) / (now.count - then.count)
            )
            buckets = [a - b for a, b in zip(now.buckets, then.buckets)]
            assert window[f"mgmt.host_{kind}_latency_p99_us"] == percentile_from_buckets(
                buckets, 0.99
            )
