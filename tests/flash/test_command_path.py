"""One command path: the object-address commands are adapters, not forks.

READ, PROGRAM, COPYBACK and ERASE are each implemented once, on integer
coordinates; ``read_page`` / ``program_page`` / ``copyback`` /
``erase_block`` validate an address object and call that body
(``read_page`` then adds the page's OOB record).  Driving two fresh
devices — one through the adapter, one through the int-coordinate command
— must leave every observable piece of device state identical.
"""

from dataclasses import replace

import pytest

from repro.flash import (
    BadBlockError,
    CopybackError,
    FlashDevice,
    PageMetadata,
    PhysicalBlockAddress,
    PhysicalPageAddress,
    ReadError,
    small_geometry,
)

GEOMETRY = replace(small_geometry(), planes_per_die=2)
EXTRA = {"atomic_id": 7, "atomic_size": 2}


def device_state(device):
    """Everything a command may touch: block columns, stats, timelines, clock."""
    return {
        "blocks": [
            (
                list(b._data), list(b._lpn), list(b._seq), list(b._obj), dict(b._extra),
                b.write_pointer, b.erase_count, b.reads_since_erase, b.is_bad,
            )
            for die in device.dies
            for b in die.blocks
        ],
        "stats": device.stats.snapshot(),
        "timelines": [
            (t.busy_us, t._starts[t._lo :], t._ends[t._lo :])
            for t in [d.timeline for d in device.dies] + device.channels
        ],
        "clock": device.clock.now,
    }


def seeded_device(strict=False):
    device = FlashDevice(GEOMETRY, strict_plane_copyback=strict)
    device.program_page_packed(0, 0, 0, b"src", 11, 3, 2, 0.0, dict(EXTRA))
    return device


def ppa(block, page=0):
    return PhysicalPageAddress(0, block, page)


#: (adapter call, int-coordinate call); both return (start_us, end_us)
CASES = [
    pytest.param(
        lambda d: d.program_page(ppa(2), b"x", None, at=5.0),
        lambda d: d.program_page_packed(0, 2, 0, b"x", -1, -1, -1, 5.0),
        id="program-no-metadata",
    ),
    pytest.param(
        lambda d: d.program_page(ppa(2), b"x", PageMetadata(lpn=5, seq=9, obj_id=1), at=5.0),
        lambda d: d.program_page_packed(0, 2, 0, b"x", 5, 9, 1, 5.0),
        id="program-metadata",
    ),
    pytest.param(
        lambda d: d.program_page(ppa(2), b"x", PageMetadata(lpn=5, seq=9, extra=dict(EXTRA)), at=5.0),
        lambda d: d.program_page_packed(0, 2, 0, b"x", 5, 9, -1, 5.0, dict(EXTRA)),
        id="program-extra",
    ),
    pytest.param(
        lambda d: d.copyback(ppa(0), ppa(2), at=5.0),
        lambda d: d.copyback_packed(0, 0, 0, 2, 0, 5.0),
        id="copyback",
    ),
    pytest.param(
        lambda d: d.copyback(ppa(0), ppa(2), metadata=PageMetadata(lpn=11, seq=40), at=5.0),
        lambda d: d.copyback_packed(0, 0, 0, 2, 0, 5.0, PageMetadata(lpn=11, seq=40)),
        id="copyback-refreshed-metadata",
    ),
    pytest.param(
        lambda d: d.erase_block(PhysicalBlockAddress(0, 0), at=5.0),
        lambda d: d.erase_block_packed(0, 0, 5.0),
        id="erase",
    ),
]


@pytest.mark.parametrize("adapter,body", CASES)
def test_adapter_and_int_coordinate_command_agree(adapter, body):
    via_adapter, via_body = seeded_device(), seeded_device()
    result = adapter(via_adapter)
    assert (result.start_us, result.end_us) == body(via_body)
    assert device_state(via_adapter) == device_state(via_body)


def test_strict_plane_refusal_is_the_same_on_both_entry_points():
    via_adapter, via_body = seeded_device(strict=True), seeded_device(strict=True)
    with pytest.raises(CopybackError):
        via_adapter.copyback(ppa(0), ppa(1), at=5.0)  # plane 0 -> plane 1
    with pytest.raises(CopybackError):
        via_body.copyback_packed(0, 0, 0, 1, 0, 5.0)
    assert device_state(via_adapter) == device_state(via_body) == device_state(
        seeded_device(strict=True)
    )



# ----------------------------------------------------------------------
# READ: same contract, plus a payload (and, on the adapter, the OOB record)
# ----------------------------------------------------------------------
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


def read_pair(fail=None):
    """Two seeded devices with a busy die and channel (so a reservation
    queues) and a recording injector each."""
    devices = seeded_device(), seeded_device()
    for device in devices:
        device.program_page_packed(0, 1, 0, b"busy", -1, -1, -1, 4.0)
        device.attach_fault_injector(RecordingInjector(fail))
    return devices


def test_read_adapter_and_int_coordinate_command_agree():
    # Killed by: a read_page that reads the block itself as well as calling
    # the body (reads_since_erase 2 != 1, stats.reads 2 != 1), or one with
    # its own reservation / record_read / clock code that drifts.
    via_adapter, via_body = read_pair()
    result = via_adapter.read_page(ppa(0), at=5.0)
    data, start, end = via_body.read_page_packed(0, 0, 0, 5.0)
    assert (result.data, result.start_us, result.end_us) == (data, start, end)
    assert data == b"src" and start > 5.0  # queued behind the program
    assert result.metadata == PageMetadata(lpn=11, seq=3, obj_id=2, extra=EXTRA)
    assert device_state(via_adapter) == device_state(via_body)
    assert via_body.dies[0].blocks[0].reads_since_erase == 1
    assert via_body.stats.reads == 1 and via_body.clock.now == end
    # the read's array slot is the die's last, its transfer the channel's last
    die, channel = via_body.dies[0].timeline, via_body.channel_of_die(0)
    assert (die._starts[-1], die._ends[-1]) == (start, start + via_body.timing.read_us)
    assert channel._ends[-1] == end


def test_read_shows_the_fault_hook_the_same_call_before_anything_is_reserved():
    # Killed by: a body that reserves (or counts the read) before the hook —
    # the state the hook saw would differ from the state before the call —
    # and by an adapter that calls the hook itself (two calls, not one).
    via_adapter, via_body = read_pair()
    before = device_state(via_body)
    via_adapter.read_page(ppa(0), at=5.0)
    via_body.read_page_packed(0, 0, 0, 5.0)
    assert via_adapter.faults.calls == via_body.faults.calls == [
        (("read_page", 0, 0, 0), before)
    ]


def test_failed_read_leaves_no_trace_on_either_entry_point():
    boom = RuntimeError("injected")
    via_adapter, via_body = read_pair(fail=boom)
    before = device_state(via_body)
    with pytest.raises(RuntimeError):
        via_adapter.read_page(ppa(0), at=5.0)
    with pytest.raises(RuntimeError):
        via_body.read_page_packed(0, 0, 0, 5.0)
    assert device_state(via_adapter) == device_state(via_body) == before


@pytest.mark.parametrize(
    "spoil,error",
    [
        pytest.param(lambda d: None, ReadError, id="unprogrammed-page"),
        pytest.param(lambda d: d.dies[0].blocks[0].mark_bad(), BadBlockError, id="bad-block"),
    ],
)
def test_read_refusal_is_the_same_on_both_entry_points(spoil, error):
    via_adapter, via_body = read_pair()
    spoil(via_adapter), spoil(via_body)
    before = device_state(via_body)
    page = 1 if error is ReadError else 0  # page 1 of block 0 was never programmed
    with pytest.raises(error) as from_adapter:
        via_adapter.read_page(ppa(0, page), at=5.0)
    with pytest.raises(error) as from_body:
        via_body.read_page_packed(0, 0, page, 5.0)
    assert str(from_adapter.value) == str(from_body.value)
    assert device_state(via_adapter) == device_state(via_body) == before
