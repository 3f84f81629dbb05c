"""Unit tests for the native flash device: commands, timing, contention.

Every command has one form, on integer coordinates ``(die, block, page)``;
``-1`` marks an unset OOB field and ``seq = -1`` programs no OOB record.
"""

import gc
from dataclasses import replace

import pytest

from repro.flash import (
    BadBlockError,
    CopybackError,
    DataError,
    FlashDevice,
    FlashGeometry,
    PageMetadata,
    ReadError,
    TimingModel,
    small_geometry,
)


@pytest.fixture
def device():
    return FlashDevice(small_geometry())


def program(device, die=0, block=0, page=0, data=b"x", lpn=-1, seq=-1, obj_id=-1, at=0.0,
            extra=None):
    return device.program_page_packed(die, block, page, data, lpn, seq, obj_id, at, extra)


def device_state(device):
    """Everything a command may touch: die columns, stats, timelines, clock."""
    return {
        "dies": [
            (
                list(d.page_data), list(d.page_length), list(d.page_lpn), list(d.page_seq),
                list(d.page_obj), dict(d.page_extra),
                list(d.block_wp), list(d.block_erases), list(d.block_reads),
                bytes(d.block_bad),
            )
            for d in device.dies
        ],
        "stats": device.stats.snapshot(),
        "timelines": [
            (t.busy_us, t._starts[t._lo :], t._ends[t._lo :])
            for t in [d.timeline for d in device.dies] + device.channels
        ],
        "clock": device.clock.now,
    }


class TestBasicCommands:
    def test_program_then_read_roundtrip(self, device):
        program(device, data=b"hello", lpn=42, seq=1)
        data, __, __ = device.read_page_packed(0, 0, 0, 0.0)
        assert data == b"hello"
        metadata, __, __ = device.read_metadata(0, 0, 0, 0.0)
        assert metadata.lpn == 42

    def test_read_metadata_returns_oob_only(self, device):
        extra = {"atomic_id": 7, "atomic_size": 2}
        program(device, data=b"hello", lpn=7, seq=0, obj_id=3, extra=extra)
        program(device, page=1, data=b"bare")
        metadata, __, __ = device.read_metadata(0, 0, 0, 0.0)
        assert metadata == PageMetadata(lpn=7, seq=0, obj_id=3, extra=extra)
        assert device.read_metadata(0, 0, 1, 0.0)[0] is None  # seq = -1: no record
        assert device.stats.bytes_read == 2 * device.geometry.oob_size

    def test_oversized_payload_rejected(self, device):
        big = b"x" * (device.geometry.page_size + 1)
        with pytest.raises(DataError):
            program(device, data=big)

    def test_non_bytes_payload_rejected(self, device):
        with pytest.raises(DataError):
            program(device, data="not bytes")

    def test_erase_then_reprogram(self, device):
        program(device, data=b"one")
        device.erase_block_packed(0, 0, 0.0)
        program(device, data=b"two")
        assert device.read_page_packed(0, 0, 0, 0.0)[0] == b"two"

    def test_stats_count_commands(self, device):
        program(device)
        device.read_page_packed(0, 0, 0, 0.0)
        device.erase_block_packed(0, 0, 0.0)
        assert device.stats.programs == 1
        assert device.stats.reads == 1
        assert device.stats.erases == 1


class TestCopyback:
    def test_copyback_moves_data_on_die(self, device):
        program(device, data=b"payload", lpn=5, seq=9)
        device.copyback_packed(0, 0, 0, 1, 0, 0.0)
        assert device.read_page_packed(0, 1, 0, 0.0)[0] == b"payload"
        metadata, __, __ = device.read_metadata(0, 1, 0, 0.0)
        assert (metadata.lpn, metadata.seq) == (5, 9)  # the version travels unchanged
        assert device.stats.copybacks == 1

    def test_strict_plane_copyback(self):
        # small geometry has 1 plane per die, so use a 2-plane variant
        geometry = replace(small_geometry(), planes_per_die=2)
        device = FlashDevice(geometry, strict_plane_copyback=True)
        program(device, data=b"p")
        with pytest.raises(CopybackError):
            device.copyback_packed(0, 0, 0, 1, 0, 0.0)  # plane 0 -> plane 1
        device.copyback_packed(0, 0, 0, 2, 0, 0.0)  # plane 0 -> plane 0

    def test_strict_plane_refusal_leaves_no_trace(self):
        # Killed by: a plane check that runs after the fault hook, the
        # source read or a reservation.
        geometry = replace(small_geometry(), planes_per_die=2)
        device = FlashDevice(geometry, strict_plane_copyback=True)
        program(device, data=b"src", lpn=11, seq=3, obj_id=2)
        device.attach_fault_injector(RecordingInjector())
        before = device_state(device)
        with pytest.raises(CopybackError):
            device.copyback_packed(0, 0, 0, 1, 0, 5.0)
        assert device_state(device) == before
        assert device.faults.calls == []


class TestTimingAndContention:
    def test_read_latency_includes_array_and_bus(self):
        t = TimingModel(read_us=100, program_us=0, erase_us=0, bus_us_per_page=10)
        device = FlashDevice(small_geometry(), timing=t)
        program(device)
        start = device.clock.now
        __, __, end = device.read_page_packed(0, 0, 0, start)
        assert end == pytest.approx(start + 110)

    def test_same_die_ops_serialize(self):
        t = TimingModel(read_us=100, program_us=100, erase_us=0, bus_us_per_page=0)
        device = FlashDevice(small_geometry(), timing=t)
        program(device, data=b"a")
        program(device, page=1, data=b"b")
        __, __, end1 = device.read_page_packed(0, 0, 0, 300.0)
        __, __, end2 = device.read_page_packed(0, 0, 1, 300.0)  # queued behind the first
        assert end2 == pytest.approx(end1 + 100)

    def test_different_dies_run_in_parallel(self):
        t = TimingModel(read_us=100, program_us=100, erase_us=0, bus_us_per_page=0)
        device = FlashDevice(small_geometry(), timing=t)
        program(device, data=b"a")
        program(device, die=2, data=b"b")  # die 2 is on channel 1
        assert device.read_page_packed(0, 0, 0, 500.0)[2] == pytest.approx(600)
        assert device.read_page_packed(2, 0, 0, 500.0)[2] == pytest.approx(600)

    def test_channel_is_shared_between_dies(self):
        # dies 0 and 1 share channel 0 in small_geometry
        t = TimingModel(read_us=0, program_us=0, erase_us=0, bus_us_per_page=50)
        device = FlashDevice(small_geometry(), timing=t)
        assert program(device, data=b"a")[1] == pytest.approx(50)
        assert program(device, die=1, data=b"b")[1] == pytest.approx(100)

    def test_erase_does_not_use_channel(self):
        t = TimingModel(read_us=0, program_us=0, erase_us=100, bus_us_per_page=50)
        device = FlashDevice(small_geometry(), timing=t)
        device.erase_block_packed(0, 0, 0.0)
        assert device.channels[0].busy_us == 0.0

    def test_copyback_does_not_use_channel(self):
        t = TimingModel(read_us=10, program_us=10, erase_us=0, bus_us_per_page=50)
        device = FlashDevice(small_geometry(), timing=t)
        program(device, data=b"a")
        before = device.channels[0].busy_us
        device.copyback_packed(0, 0, 0, 1, 0, device.clock.now)
        assert device.channels[0].busy_us == before

    def test_clock_tracks_completion(self, device):
        program(device)
        assert device.clock.now > 0

    def test_read_reserves_the_die_then_the_channel(self):
        # Killed by: a read that counts itself twice, or one whose
        # reservations, read counters or clock update drift.
        device = FlashDevice(small_geometry())
        program(device, data=b"src")
        program(device, block=1, data=b"busy", at=4.0)
        data, start, end = device.read_page_packed(0, 0, 0, 5.0)
        assert data == b"src" and start > 5.0  # queued behind the program
        assert device.dies[0].reads_since_erase(0) == 1
        assert device.stats.reads == 1 and device.clock.now == end
        # the read's array slot is the die's last, its transfer the channel's last
        die, channel = device.dies[0].timeline, device.channels[0]
        assert (die._starts[-1], die._ends[-1]) == (start, start + device.timing.read_us)
        assert channel._ends[-1] == end


class RecordingInjector:
    """Stands in for a FaultInjector: notes each hook call together with the
    device state it saw, then (optionally) fails the command."""

    def __init__(self, fail=None):
        self.fail = fail
        self.calls = []

    def on_command(self, device, op, die, block=None, page=None):
        self.calls.append(((op, die, block, page), device_state(device)))
        if self.fail is not None:
            raise self.fail


def busy_device(fail=None):
    """A device with page 0 of block 0 programmed, a busy die and channel
    (so a reservation queues) and a recording injector."""
    device = FlashDevice(small_geometry())
    program(device, data=b"src", lpn=11, seq=3, obj_id=2)
    program(device, block=1, data=b"busy", at=4.0)
    device.attach_fault_injector(RecordingInjector(fail))
    return device


class TestReadFaults:
    def test_read_shows_the_fault_hook_before_anything_is_reserved(self):
        # Killed by: a read that reserves (or counts the read) before the
        # hook — the state the hook saw would differ from the state before
        # the call — or one that calls the hook twice.
        device = busy_device()
        before = device_state(device)
        device.read_page_packed(0, 0, 0, 5.0)
        assert device.faults.calls == [(("read_page", 0, 0, 0), before)]

    def test_failed_read_leaves_no_trace(self):
        device = busy_device(fail=RuntimeError("injected"))
        before = device_state(device)
        with pytest.raises(RuntimeError):
            device.read_page_packed(0, 0, 0, 5.0)
        assert device_state(device) == before

    @pytest.mark.parametrize(
        "spoil,page,error",
        [
            pytest.param(lambda d: None, 1, ReadError, id="unprogrammed-page"),
            pytest.param(lambda d: d.dies[0].mark_bad(0), 0, BadBlockError,
                         id="bad-block"),
        ],
    )
    def test_read_refusal_leaves_no_trace(self, spoil, page, error):
        device = busy_device()
        spoil(device)
        before = device_state(device)
        with pytest.raises(error):
            device.read_page_packed(0, 0, page, 5.0)
        assert device_state(device) == before


class TestWearAndBadBlocks:
    def test_initial_bad_blocks_deterministic(self):
        g = small_geometry()
        d1 = FlashDevice(g, initial_bad_block_rate=0.25, seed=7)
        d2 = FlashDevice(g, initial_bad_block_rate=0.25, seed=7)
        bad1 = [die.bad_blocks() for die in d1.dies]
        bad2 = [die.bad_blocks() for die in d2.dies]
        assert bad1 == bad2
        assert any(bad1)

    def test_erase_counts_reporting(self, device):
        device.erase_block_packed(0, 0, 0.0)
        device.erase_block_packed(0, 0, 0.0)
        device.erase_block_packed(1, 2, 0.0)
        assert device.max_erase_count() == 2
        assert device.total_erase_count() == 3
        counts = device.erase_counts()
        assert counts[0][0] == 2
        assert counts[1][2] == 1

    def test_utilization_reporting(self):
        t = TimingModel(read_us=100, program_us=0, erase_us=0, bus_us_per_page=0)
        device = FlashDevice(small_geometry(), timing=t)
        program(device)
        device.read_page_packed(0, 0, 0, device.clock.now)
        utils = device.die_utilizations()
        assert utils[0] > 0
        assert utils[3] == 0


class TestConstructionCost:
    def test_a_device_build_adds_objects_per_die_not_per_block(self):
        # Killed by: any object per erase block (or per page) that the
        # cyclic collector tracks — a block record, a per-block list.
        geometry = FlashGeometry(
            channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=1,
            blocks_per_plane=256, pages_per_block=4,
        )
        blocks = geometry.dies * geometry.blocks_per_die
        assert blocks > 10 * geometry.dies * 20
        gc.collect()
        before = len(gc.get_objects())
        device = FlashDevice(geometry)
        added = len(gc.get_objects()) - before
        assert added <= 20 * geometry.dies, added
        assert len(device.dies) == geometry.dies
