"""Property-based tests: the device enforces NAND rules for any op order."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.flash import FlashDevice, FlashError, instant_timing, small_geometry


ops = st.lists(
    st.one_of(
        st.tuples(st.just("program"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 15)),
        st.tuples(st.just("read"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 15)),
        st.tuples(st.just("erase"), st.integers(0, 3), st.integers(0, 3), st.just(0)),
    ),
    max_size=100,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_device_matches_reference_model(operations):
    """Shadow-model the chip: pages hold bytes or nothing; programs must be
    sequential per block; any op either succeeds in both models or raises."""
    device = FlashDevice(small_geometry(), timing=instant_timing())
    shadow: dict[tuple[int, int, int], bytes] = {}
    write_pointer: dict[tuple[int, int], int] = {}
    serial = 0
    for kind, die, block, page in operations:
        serial += 1
        if kind == "program":
            payload = bytes([serial % 256])
            expected_ok = write_pointer.get((die, block), 0) == page
            try:
                device.program_page_packed(die, block, page, payload, -1, -1, -1, 0.0)
                assert expected_ok, "device accepted an out-of-order program"
                shadow[(die, block, page)] = payload
                write_pointer[(die, block)] = page + 1
            except FlashError:
                assert not expected_ok, "device rejected a legal program"
        elif kind == "read":
            expected = shadow.get((die, block, page))
            try:
                data, __, __ = device.read_page_packed(die, block, page, 0.0)
                assert expected is not None, "device served an unprogrammed page"
                assert data == expected
            except FlashError:
                assert expected is None, "device failed a legal read"
        else:  # erase
            device.erase_block_packed(die, block, 0.0)
            write_pointer[(die, block)] = 0
            for key in [k for k in shadow if k[0] == die and k[1] == block]:
                del shadow[key]

    # final state agrees everywhere
    g = device.geometry
    for die in range(g.dies):
        for block in range(g.blocks_per_die):
            device_block = device.dies[die].blocks[block]
            assert device_block.write_pointer == write_pointer.get((die, block), 0)
            for page in range(g.pages_per_block):
                if (die, block, page) in shadow:
                    assert device_block.read_data(page) == shadow[(die, block, page)]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, width=32), min_size=1, max_size=40),
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.015625, max_value=1000.0, width=32)),
        min_size=1,
        max_size=40,
    ),
)
def test_timeline_reservations_never_overlap(earliest_times, durations):
    """Gap-filling reservations are pairwise disjoint for positive durations."""
    from repro.flash import ResourceTimeline

    timeline = ResourceTimeline()
    granted = []
    for earliest, duration in zip(earliest_times, durations):
        start, end = timeline.reserve(earliest, duration)
        assert start >= earliest
        assert end - start == duration
        if duration > 0:
            granted.append((start, end))
    granted.sort()
    for (s1, e1), (s2, e2) in zip(granted, granted[1:]):
        assert e1 <= s2, f"overlap: ({s1},{e1}) vs ({s2},{e2})"
