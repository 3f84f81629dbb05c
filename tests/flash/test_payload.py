"""The flash payload contract: a program stores ``bytes`` or a
:class:`~repro.flash.DeferredImage` as given, reads and copyback hand back
that very object, statistics count its ``len()``, and only a ``bytearray``
or ``memoryview`` is copied."""

import pytest

from repro.flash import DataError, DeferredImage, FlashDevice, small_geometry


def deferred(payload, calls):
    """A deferred image of ``payload`` that records every encode."""

    def encode(value):
        calls.append(value)
        return value

    return DeferredImage(encode, payload, len(payload))


def program(device, data, block=0, page=0):
    return device.program_page_packed(0, block, page, data, -1, -1, -1, 0.0)


def read(device, block=0, page=0):
    return device.read_page_packed(0, block, page, 0.0)[0]


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
    program(device, image)
    assert read(device) is image
    device.copyback_packed(0, 0, 0, 1, 0, 0.0)
    assert read(device, block=1) is image
    program(device, b"y" * 7, page=1)
    assert device.stats.bytes_written == 107
    assert device.stats.bytes_read == 200  # two reads of the image, len() each
    assert calls == []  # the device never looked inside


def test_a_deferred_image_over_the_page_size_is_refused_by_its_len():
    device = FlashDevice(small_geometry())
    calls = []
    with pytest.raises(DataError):
        program(device, deferred(b"z" * (device.geometry.page_size + 1), calls))
    assert calls == []


def test_program_copies_a_mutable_buffer():
    device = FlashDevice(small_geometry())
    mutable = bytearray(b"b" * 5)
    program(device, mutable)
    mutable[0] = 0
    data = read(device)
    assert data == b"b" * 5 and type(data) is bytes  # copied
    assert device.stats.bytes_written == 5


@pytest.mark.parametrize("payload", ["text", 7, None])
def test_program_refuses_a_non_payload_before_reserving_time(payload):
    device = FlashDevice(small_geometry())
    with pytest.raises(DataError):
        program(device, payload)
    assert device.stats.programs == 0 and device.clock.now == 0.0
    assert device.dies[0].timeline.utilization(1.0) == 0.0
