"""Unit tests for the central metric registry and its key grammar."""

import pytest

from repro.obs import (
    MetricKeyError,
    MetricRegistry,
    Snapshottable,
    check_key,
    prefixed,
)


class TestKeyGrammar:
    def test_accepts_dotted_identifiers(self):
        for key in ("flash.erases", "region.rgHot.host_writes", "a", "a1._x"):
            assert check_key(key) == key

    def test_rejects_malformed_keys(self):
        for key in ("", ".", "a..b", "a.", ".a", "a b", "a-b", "a/b"):
            with pytest.raises(MetricKeyError):
                check_key(key)

    def test_prefixed_joins_with_dots(self):
        assert prefixed("flash", {"erases": 3.0}) == {"flash.erases": 3.0}


class TestOwnedInstruments:
    def test_gauge_reads_live(self):
        registry = MetricRegistry()
        box = {"value": 1.0}
        registry.gauge("db.buffer.buffered_pages", lambda: box["value"])
        assert registry.snapshot()["db.buffer.buffered_pages"] == 1.0
        box["value"] = 7.0
        assert registry.snapshot()["db.buffer.buffered_pages"] == 7.0

    def test_duplicate_owned_key_rejected(self):
        registry = MetricRegistry()
        registry.gauge("flash.x", lambda: 0.0)
        with pytest.raises(MetricKeyError):
            registry.gauge("flash.x", lambda: 1.0)


class TestSources:
    class FakeStats:
        def snapshot(self):
            return {"hits": 3.0, "misses": 1.0}

    def test_source_is_snapshottable(self):
        assert isinstance(self.FakeStats(), Snapshottable)

    def test_mounted_source_is_namespaced(self):
        registry = MetricRegistry()
        registry.register_source("db.buffer", self.FakeStats())
        snap = registry.snapshot()
        assert snap == {"db.buffer.hits": 3.0, "db.buffer.misses": 1.0}

    def test_callable_source(self):
        registry = MetricRegistry()
        registry.register_source("mgmt", self.FakeStats)
        assert registry.snapshot() == {"mgmt.hits": 3.0, "mgmt.misses": 1.0}

    def test_duplicate_prefix_rejected(self):
        registry = MetricRegistry()
        registry.register_source("db.buffer", self.FakeStats())
        with pytest.raises(MetricKeyError):
            registry.register_source("db.buffer", self.FakeStats())

    def test_collision_between_source_and_gauge(self):
        registry = MetricRegistry()
        registry.gauge("db.buffer.hits", lambda: 0.0)
        registry.register_source("db.buffer", self.FakeStats())
        with pytest.raises(MetricKeyError):
            registry.snapshot()


class TestSnapshot:
    def test_sorted_deterministic_order(self):
        registry = MetricRegistry()
        registry.gauge("workload.z", lambda: 1.0)
        registry.gauge("flash.a", lambda: 1.0)
        registry.register_source("mgmt", TestSources.FakeStats())
        assert list(registry.snapshot()) == [
            "flash.a", "mgmt.hits", "mgmt.misses", "workload.z"
        ]
