"""Property-based tests: the device enforces NAND rules for any op order,
as a flat reference model does."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.flash import (
    BadBlockError,
    CopybackError,
    DataError,
    DeferredImage,
    EraseError,
    FlashDevice,
    FlashGeometry,
    PageMetadata,
    ProgramError,
    ReadError,
)
from tests.flash.test_device import device_state


class FlatModel:
    """The reference chip: one flat page space, a page's id being
    ``(die * blocks_per_die + block) * pages_per_block + page``, and one
    entry per erase block in each per-block list.  It decides what NAND
    allows from these alone and says what a refused command raises."""

    def __init__(self, geometry):
        self.g = geometry
        blocks = geometry.dies * geometry.blocks_per_die
        self.data = {}  # page id -> the payload object programmed
        self.oob = {}  # page id -> (lpn, seq, obj_id, extra)
        self.write_pointer = [0] * blocks
        self.erase_count = [0] * blocks
        self.reads = [0] * blocks
        self.bad = [False] * blocks
        self.bytes_written = 0
        self.bytes_read = 0

    def block_id(self, die, block):
        return die * self.g.blocks_per_die + block

    def page_id(self, die, block, page):
        return self.block_id(die, block) * self.g.pages_per_block + page

    def read_refusal(self, die, block, page):
        b = self.block_id(die, block)
        if self.bad[b]:
            return BadBlockError
        if not 0 <= page < self.write_pointer[b]:
            return ReadError
        return None

    def program_refusal(self, die, block, page):
        b = self.block_id(die, block)
        if self.bad[b]:
            return BadBlockError
        if page != self.write_pointer[b] or page >= self.g.pages_per_block:
            return ProgramError
        return None

    def store(self, die, block, page, data, oob):
        self.data[self.page_id(die, block, page)] = data
        self.oob[self.page_id(die, block, page)] = oob
        self.write_pointer[self.block_id(die, block)] += 1


geometries = st.builds(
    FlashGeometry,
    channels=st.integers(1, 2),
    chips_per_channel=st.just(1),
    dies_per_chip=st.just(1),
    planes_per_die=st.integers(1, 2),
    blocks_per_plane=st.integers(1, 2),
    pages_per_block=st.integers(1, 4),
    page_size=st.just(8),
    oob_size=st.just(4),
    max_pe_cycles=st.integers(1, 5),
)

KINDS = ["program"] * 3 + ["read", "metadata", "copyback", "copyback", "erase", "mark_bad"]


def payloads(draw, page_size):
    size = draw(st.integers(0, page_size + 1))  # one past the page: refused
    if draw(st.booleans()):
        return DeferredImage(bytes, b"d" * size, size)
    return bytes([size % 256]) * size


def assert_agrees(device, model):
    """The device's columns, wear reports and byte counters say what the
    model says, and an unprogrammed page keeps nothing alive."""
    g = device.geometry
    assert device.stats.bytes_written == model.bytes_written
    assert device.stats.bytes_read == model.bytes_read
    for die in range(g.dies):
        flash_die = device.dies[die]
        for block in range(g.blocks_per_die):
            b = model.block_id(die, block)
            assert flash_die.write_pointer(block) == model.write_pointer[b]
            assert flash_die.erase_count(block) == model.erase_count[b]
            assert flash_die.reads_since_erase(block) == model.reads[b]
            assert flash_die.is_bad(block) == model.bad[b]
            for page in range(g.pages_per_block):
                i = model.page_id(die, block, page)
                index = block * g.pages_per_block + page
                if page >= model.write_pointer[b]:
                    # an unprogrammed page holds no payload and no annotation
                    assert flash_die.page_data[index] is None
                    assert index not in flash_die.page_extra
                    continue
                assert flash_die.oob(block, page) == model.oob[i]
                assert flash_die.page_data[index] is model.data[i]
                assert flash_die.page_length[index] == len(model.data[i])
        assert device.erase_counts()[die] == model.erase_count[
            model.block_id(die, 0):model.block_id(die + 1, 0)]
    assert device.max_erase_count() == max(model.erase_count)
    assert device.total_erase_count() == sum(model.erase_count)


@settings(max_examples=60, deadline=None)
@given(geometries, st.booleans(), st.data())
def test_device_matches_reference_model(geometry, strict, data):
    """Random program / read / OOB read / copyback / erase / mark_bad
    sequences on random geometries: the device agrees with the flat model
    on every write pointer, erase count, read-disturb count, bad flag, OOB
    field, payload (by identity) and byte counter, and every refusal —
    bad block, unprogrammed page, out-of-order, repeated or past-the-end
    program, strict-plane copyback, oversized payload — raises what the
    model says and leaves the device exactly as it was."""
    device = FlashDevice(geometry, strict_plane_copyback=strict)
    model = FlatModel(geometry)
    g = geometry
    draw = data.draw
    block_ids = st.integers(0, g.blocks_per_die - 1)
    page_ids = st.integers(0, g.pages_per_block)  # one past the end too
    at = 0.0
    for step in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(KINDS))
        die = draw(st.integers(0, g.dies - 1))
        block = draw(block_ids)
        page = draw(page_ids)
        written = model.write_pointer[model.block_id(die, block)]
        if draw(st.booleans()):  # mostly legal: the next page, or a programmed one
            page = written if kind == "program" or not written else draw(
                st.integers(0, written - 1))
        at += 1.0
        before = device_state(device)
        if kind == "program":
            payload = payloads(draw, g.page_size)
            seq = draw(st.integers(-1, 3))
            oob = (draw(st.integers(-1, 3)), seq, draw(st.integers(-1, 3)),
                   draw(st.sampled_from([None, {"atomic_id": step, "atomic_size": 2}])))
            expected = DataError if len(payload) > g.page_size else (
                model.program_refusal(die, block, page))
            command = lambda: device.program_page_packed(  # noqa: E731
                die, block, page, payload, *oob[:3], at, oob[3])
        elif kind in ("read", "metadata"):
            expected = model.read_refusal(die, block, page)
            command = (
                (lambda: device.read_page_packed(die, block, page, at)) if kind == "read"
                else (lambda: device.read_metadata(die, block, page, at))
            )
        elif kind == "copyback":
            dst_block = draw(block_ids)
            dst_page = model.write_pointer[model.block_id(die, dst_block)]
            if draw(st.booleans()):
                dst_page = draw(page_ids)
            if strict and g.plane_of_block(block) != g.plane_of_block(dst_block):
                expected = CopybackError
            else:
                expected = model.read_refusal(die, block, page) or model.program_refusal(
                    die, dst_block, dst_page)
            command = lambda: device.copyback_packed(  # noqa: E731
                die, block, page, dst_block, dst_page, at)
        elif kind == "erase":
            expected = EraseError if model.bad[model.block_id(die, block)] else None
            command = lambda: device.erase_block_packed(die, block, at)  # noqa: E731
        else:
            expected = None
            command = lambda: device.dies[die].mark_bad(block)  # noqa: E731

        if expected is not None:
            with pytest.raises(expected):
                command()
            assert device_state(device) == before, f"refused {kind} left a trace"
            continue
        result = command()
        b = model.block_id(die, block)
        if kind == "program":
            model.store(die, block, page, payload, oob)
            model.bytes_written += len(payload)
        elif kind == "read":
            model.reads[b] += 1
            assert result[0] is model.data[model.page_id(die, block, page)]
            model.bytes_read += len(result[0])
        elif kind == "metadata":
            model.reads[b] += 1
            lpn, seq, obj, extra = model.oob[model.page_id(die, block, page)]
            assert result[0] == (None if seq < 0 else PageMetadata(
                lpn=None if lpn < 0 else lpn, seq=seq, obj_id=None if obj < 0 else obj,
                extra=extra or {}))
            model.bytes_read += g.oob_size
        elif kind == "copyback":
            model.reads[b] += 1
            src = model.page_id(die, block, page)
            model.store(die, dst_block, dst_page, model.data[src], model.oob[src])
        elif kind == "erase":
            base = model.page_id(die, block, 0)
            for i in range(base, base + g.pages_per_block):
                model.data.pop(i, None)
                model.oob.pop(i, None)
            model.write_pointer[b] = 0
            model.reads[b] = 0
            model.erase_count[b] += 1
            model.bad[b] = model.erase_count[b] >= g.max_pe_cycles
        else:
            model.bad[b] = True
        assert_agrees(device, model)

@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, width=32), min_size=1, max_size=40),
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.015625, max_value=1000.0, width=32)),
        min_size=1,
        max_size=40,
    ),
)
@example(earliest_times=[0.0, 0.0, 1.2895141310309555e-07, 0.0], durations=[0.0, 0.0, 1.0, 511.0])
def test_timeline_reservations_never_overlap(earliest_times, durations):
    """Gap-filling reservations are pairwise disjoint for positive durations."""
    from repro.flash import ResourceTimeline

    timeline = ResourceTimeline()
    granted = []
    for earliest, duration in zip(earliest_times, durations):
        start, end = timeline.reserve(earliest, duration)
        assert start >= earliest
        assert end == start + duration
        if duration > 0:
            granted.append((start, end))
    granted.sort()
    for (s1, e1), (s2, e2) in zip(granted, granted[1:]):
        assert e1 <= s2, f"overlap: ({s1},{e1}) vs ({s2},{e2})"
