"""One command path: the object-address commands are adapters, not forks.

PROGRAM, COPYBACK and ERASE are each implemented once, on integer
coordinates; ``program_page`` / ``copyback`` / ``erase_block`` validate an
address object and call that body.  Driving two fresh devices — one
through the adapter, one through the int-coordinate command — must leave
every observable piece of device state identical.
"""

from dataclasses import replace

import pytest

from repro.flash import (
    CopybackError,
    FlashDevice,
    PageMetadata,
    PhysicalBlockAddress,
    PhysicalPageAddress,
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
            (t.busy_us, list(t._intervals))
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

