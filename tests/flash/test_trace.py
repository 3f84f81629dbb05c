"""Tests for the flash command tracer."""

import pytest

from repro.flash import FlashDevice, PhysicalBlockAddress, PhysicalPageAddress, small_geometry
from repro.flash.trace import FlashTracer, TraceEvent


@pytest.fixture
def device():
    return FlashDevice(small_geometry())


def ppa(die=0, block=0, page=0):
    return PhysicalPageAddress(die, block, page)


class TestAttachment:
    def test_records_all_command_kinds(self, device):
        tracer = FlashTracer.attach(device)
        device.program_page(ppa(), b"x")
        device.read_page(ppa())
        device.read_metadata(ppa())
        device.copyback(ppa(), ppa(0, 1, 0))
        device.erase_block(PhysicalBlockAddress(0, 0))
        ops = [e.op for e in tracer.events]
        assert ops == ["program_page", "read_page", "read_metadata", "copyback", "erase_block"]
        tracer.detach()

    def test_detach_stops_tracing(self, device):
        tracer = FlashTracer.attach(device)
        device.program_page(ppa(), b"x")
        tracer.detach()
        device.read_page(ppa())
        assert len(tracer) == 1

    def test_double_attach_rejected(self, device):
        tracer = FlashTracer.attach(device)
        with pytest.raises(RuntimeError):
            tracer._subscribe()
        tracer.detach()

    def test_device_results_unchanged(self, device):
        tracer = FlashTracer.attach(device)
        device.program_page(ppa(), b"payload")
        assert device.read_page(ppa()).data == b"payload"
        tracer.detach()


class TestRingBuffer:
    def test_capacity_bounds_and_drop_count(self, device):
        tracer = FlashTracer.attach(device, capacity=3)
        for page in range(5):
            device.program_page(ppa(0, 0, page), b"x")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        tracer.detach()

    def test_eviction_keeps_newest_events(self, device):
        tracer = FlashTracer.attach(device, capacity=3)
        for page in range(7):
            device.program_page(ppa(0, 0, page), b"x")
        # oldest events fall off the front; the last `capacity` survive
        assert [e.page for e in tracer.events] == [4, 5, 6]
        assert tracer.dropped == 4
        tracer.detach()

    def test_invalid_capacity(self, device):
        with pytest.raises(ValueError):
            FlashTracer(device, capacity=0)


class TestQueries:
    def test_event_properties(self):
        event = TraceEvent("read_page", 0, 1, 2, issue_us=100.0, start_us=150.0, end_us=250.0)
        assert event.queue_us == 50.0
        assert event.service_us == 100.0
        assert "d0/b1/p2" in str(event)

    def test_on_die_and_between(self, device):
        tracer = FlashTracer.attach(device)
        device.program_page(ppa(0, 0, 0), b"x", at=0.0)
        device.program_page(ppa(1, 0, 0), b"y", at=0.0)
        assert len(tracer.on_die(0)) == 1
        assert len(tracer.on_die(1)) == 1
        first_end = tracer.events[0].end_us
        assert tracer.between(0.0, first_end) != []
        tracer.detach()

    def test_slowest_orders_by_queue(self, device):
        tracer = FlashTracer.attach(device)
        # two programs to the same die: the second queues
        device.program_page(ppa(0, 0, 0), b"x", at=0.0)
        device.program_page(ppa(0, 0, 1), b"y", at=0.0)
        slowest = tracer.slowest(1)[0]
        assert slowest.page == 1
        assert slowest.queue_us > 0
        tracer.detach()

    def test_snapshot(self, device):
        tracer = FlashTracer.attach(device)
        for page in range(4):
            device.program_page(ppa(0, 0, page), b"x")
        snap = tracer.snapshot()
        assert snap["events"] == 4.0
        assert snap["ops.program_page"] == 4.0
        assert snap["busiest_die"] == 0.0
        tracer.detach()

    def test_empty_snapshot(self, device):
        tracer = FlashTracer(device)
        snap = tracer.snapshot()
        assert snap["events"] == 0.0
        assert snap["busiest_die"] == -1.0


class TestEngineTraffic:
    def test_engine_commands_are_traced_one_for_one(self):
        """The tracer observes the device's one command path, so GC traffic
        issued by the mapping engine shows up next to host traffic."""
        import random

        from repro.bench.timeline import gc_interference_report
        from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats

        from dataclasses import replace

        geometry = replace(small_geometry(), blocks_per_plane=12, pages_per_block=8)
        device = FlashDevice(geometry)
        books = {0: DieBookkeeping(0, geometry.blocks_per_die, geometry.pages_per_block)}
        engine = FlashSpaceEngine(device, [0], books, ManagementStats())
        tracer = FlashTracer.attach(device)
        rng = random.Random(5)
        keys = engine.safe_capacity_pages()
        t = 0.0
        for i in range(200):  # fill, then skewed overwrites: GC copies and erases
            key = i if i < keys else int(keys * rng.random() ** 2)
            t = engine.write(key, b"v", at=t)
        engine.read(0, at=0.0)
        tracer.detach()

        stats = device.stats
        assert stats.copybacks > 0 and stats.erases > 0
        snap = tracer.snapshot()
        assert snap["ops.program_page"] == stats.programs
        assert snap["ops.copyback"] == stats.copybacks
        assert snap["ops.erase_block"] == stats.erases
        assert snap["ops.read_page"] == stats.reads
        report = gc_interference_report(tracer)
        assert "copyback" in report or "erase_block" in report
