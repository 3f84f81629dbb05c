"""The flash payload contract: a program stores ``bytes`` or a
:class:`~repro.flash.DeferredImage` as given, reads and copyback hand back
that very object, statistics count its ``len()``, and only a ``bytearray``
or ``memoryview`` is copied."""

import pytest

from repro.flash import (
    DataError,
    DeferredImage,
    FlashDevice,
    FlashGeometry,
    PhysicalPageAddress,
    small_geometry,
)


def deferred(payload, calls):
    """A deferred image of ``payload`` that records every encode."""

    def encode(value):
        calls.append(value)
        return value

    return DeferredImage(encode, (payload,), len(payload))


def ppa(die=0, block=0, page=0):
    return PhysicalPageAddress(die, block, page)


def test_deferred_image_encodes_on_every_bytes_call_and_never_for_len():
    calls = []
    image = deferred(b"abc", calls)
    assert len(image) == 3 and calls == []
    first, second = bytes(image), bytes(image)
    assert first == second == b"abc" and len(calls) == 2  # nothing is cached


def test_program_read_and_copyback_keep_the_object_and_count_its_len():
    device = FlashDevice(small_geometry())
    calls = []
    image = deferred(b"x" * 100, calls)
    device.program_page(ppa(), image)
    assert device.read_page(ppa()).data is image
    device.copyback(ppa(), ppa(block=1))
    assert device.read_page(ppa(block=1)).data is image
    device.program_page(ppa(page=1), b"y" * 7)
    assert device.stats.bytes_written == 107
    assert device.stats.bytes_read == 200  # two reads of the image, len() each
    assert calls == []  # the device never looked inside


def test_a_deferred_image_over_the_page_size_is_refused_by_its_len():
    device = FlashDevice(small_geometry())
    calls = []
    with pytest.raises(DataError):
        device.program_page(ppa(), deferred(b"z" * (device.geometry.page_size + 1), calls))
    assert calls == []


def multi_plane_device():
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=2,
        blocks_per_plane=4, pages_per_block=8, page_size=512, oob_size=16,
        max_pe_cycles=1000,
    )
    return FlashDevice(geometry)


def test_multi_plane_program_follows_the_same_payload_rule():
    device = multi_plane_device()
    pages = [ppa(block=0), ppa(block=1)]
    calls = []
    image, mutable = deferred(b"a" * 10, calls), bytearray(b"b" * 5)
    device.program_multi_plane(pages, [image, mutable])
    mutable[0] = 0
    first, second = device.read_multi_plane(pages)
    assert first.data is image and calls == []
    assert second.data == b"b" * 5 and type(second.data) is bytes  # copied
    assert device.stats.bytes_written == 15


@pytest.mark.parametrize("payload", ["text", 7, None])
def test_multi_plane_program_refuses_a_non_payload_before_reserving_time(payload):
    device = multi_plane_device()
    with pytest.raises(DataError):
        device.program_multi_plane([ppa(block=0), ppa(block=1)], [b"a", payload])
    assert device.stats.programs == 0 and device.clock.now == 0.0
    assert device.dies[0].timeline.utilization(1.0) == 0.0
