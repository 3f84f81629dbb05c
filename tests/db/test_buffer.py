"""Unit tests for the buffer pool."""

import random
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import BufferError, BufferPool, SlottedPage
from repro.db.buffer import BufferStats

from tests.db.conftest import MemoryBackend


def identity_codec():
    return dict(decoder=lambda b: bytearray(b), encoder=lambda p: bytes(p))


def make_pool(backend, capacity=4, flusher_interval=0, **kwargs):
    kwargs.setdefault("cpu_us_per_op", 0.0)
    return BufferPool(backend, capacity=capacity, flusher_interval=flusher_interval, **kwargs)


def seed_pages(backend, space_id, count):
    """Allocate and write `count` raw pages directly to the backend."""
    for i in range(count):
        page_no, __ = backend.allocate_page(space_id, 0.0)
        backend.write_page(space_id, page_no, bytes([i]) * 8, 0.0)


class TestHitMiss:
    def test_miss_then_hit(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 1)
        pool = make_pool(memory_backend)
        page, t1 = pool.get(sid, 0, 0.0, **identity_codec())
        assert bytes(page) == b"\x00" * 8
        assert t1 == 10.0  # one backend read
        __, t2 = pool.get(sid, 0, t1, **identity_codec())
        assert t2 == t1  # hit: free
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_hit_returns_same_object(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 1)
        pool = make_pool(memory_backend)
        a, __ = pool.get(sid, 0, 0.0, **identity_codec())
        b, __ = pool.get(sid, 0, 0.0, **identity_codec())
        assert a is b

    def test_put_new_installs_dirty(self, memory_backend):
        sid = memory_backend.create_space("t")
        page_no, __ = memory_backend.allocate_page(sid, 0.0)
        pool = make_pool(memory_backend)
        pool.put_new(sid, page_no, bytearray(b"fresh"), lambda p: bytes(p), 0.0)
        assert pool.is_buffered(sid, page_no)
        pool.flush_all(0.0)
        assert memory_backend.pages[(sid, page_no)] == b"fresh"


class TestEviction:
    def test_capacity_respected(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 8)
        pool = make_pool(memory_backend, capacity=4)
        for i in range(8):
            pool.get(sid, i, 0.0, **identity_codec())
        assert pool.buffered_pages() <= 4
        assert pool.stats.evictions >= 4

    def test_dirty_eviction_writes_back(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 8)
        pool = make_pool(memory_backend, capacity=4)
        page, __ = pool.get(sid, 0, 0.0, **identity_codec())
        page[0] = 0xFF
        pool.mark_dirty(sid, 0)
        for i in range(1, 8):
            pool.get(sid, i, 0.0, **identity_codec())
        assert not pool.is_buffered(sid, 0)
        assert memory_backend.pages[(sid, 0)][0] == 0xFF

    def test_clean_eviction_skips_write(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 8)
        writes_before = memory_backend.writes
        pool = make_pool(memory_backend, capacity=4)
        for i in range(8):
            pool.get(sid, i, 0.0, **identity_codec())
        assert memory_backend.writes == writes_before

    def test_pinned_pages_survive_pressure(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 8)
        pool = make_pool(memory_backend, capacity=4)
        pool.get(sid, 0, 0.0, pin=True, **identity_codec())
        for i in range(1, 8):
            pool.get(sid, i, 0.0, **identity_codec())
        assert pool.is_buffered(sid, 0)
        pool.unpin(sid, 0)

    def test_all_pinned_raises(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 5)
        pool = make_pool(memory_backend, capacity=4)
        for i in range(4):
            pool.get(sid, i, 0.0, pin=True, **identity_codec())
        with pytest.raises(BufferError):
            pool.get(sid, 4, 0.0, **identity_codec())


class TestFlusher:
    def test_background_flusher_cleans_dirty_pages(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 4)
        pool = make_pool(memory_backend, capacity=8, flusher_interval=4, flusher_batch=2)
        for i in range(4):
            page, __ = pool.get(sid, i, 0.0, **identity_codec())
            pool.mark_dirty(sid, i)
        # more ops to trigger the flusher
        for __ in range(8):
            pool.get(sid, 0, 0.0, **identity_codec())
        assert pool.stats.flusher_writes > 0

    def test_flusher_does_not_advance_caller_clock(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 4)
        pool = make_pool(memory_backend, capacity=8, flusher_interval=2, flusher_batch=4)
        for i in range(4):
            pool.get(sid, i, 0.0, **identity_codec())
            pool.mark_dirty(sid, i)
        __, t = pool.get(sid, 0, 100.0, **identity_codec())
        assert t == 100.0  # hit + async flush: no caller time

    @pytest.mark.parametrize("interval, rounds_after", [(3, {3, 6, 9}), (0, set()), (-1, set())])
    def test_flush_round_every_interval_page_operations(
        self, memory_backend, interval, rounds_after
    ):
        # both get and put_new count as page operations; the round runs at
        # the start of the interval-th one, so it sees what earlier ones dirtied
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 2)
        pool = make_pool(memory_backend, capacity=16, flusher_interval=interval, flusher_batch=1)
        pool.get(sid, 0, 0.0, **identity_codec())  # operation 1
        fired = set()
        for op in range(2, 11):
            pool.mark_dirty(sid, 0)
            before = pool.stats.flusher_writes
            if op % 2:
                pool.get(sid, 1, 0.0, **identity_codec())
            else:
                page_no, __ = memory_backend.allocate_page(sid, 0.0)
                pool.put_new(sid, page_no, bytearray(8), at=0.0, encoder=bytes)
                pool.flush_page(sid, page_no, 0.0)  # keep page 0 the only dirty one
            if pool.stats.flusher_writes > before:
                fired.add(op)
        assert fired == rounds_after


    @pytest.mark.parametrize("interval", [0, 1, 3, 256])
    def test_rounds_fire_on_the_touches_an_operation_counter_picks(self, memory_backend, interval):
        """The pool counts *down* to its next round; the reference counts
        operations *up* since the last one and fires inside the operation
        that reaches ``flusher_interval`` (never, for an interval <= 0)."""
        fired = []

        class Recording(BufferPool):
            def _flush_round(self, at):
                fired.append(at)  # every touch below carries its number as its time
                super()._flush_round(at)

        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 6)
        pool = Recording(
            memory_backend, capacity=8, flusher_interval=interval, flusher_batch=2,
            cpu_us_per_op=0.0,
        )
        rng = random.Random(interval)
        expected, ops_since_flush = [], 0
        for touch in range(1, 701):
            ops_since_flush += 1
            if ops_since_flush >= interval > 0:
                expected.append(float(touch))
                ops_since_flush = 0
            if touch == 1 or rng.random() < 0.7:
                pool.get(sid, rng.randrange(6), float(touch), **identity_codec())
            elif rng.random() < 0.5:
                page_no, __ = memory_backend.allocate_page(sid, 0.0)
                pool.put_new(sid, page_no, bytearray(8), bytes, float(touch))
            else:  # refused, but counted: the operation was made
                buffered = next(iter(pool._frames))[1]
                with pytest.raises(BufferError):
                    pool.put_new(sid, buffered, bytearray(8), bytes, float(touch))
        assert fired == expected
        assert len(fired) == (700 // interval if interval > 0 else 0)

    @pytest.mark.parametrize("evictions", [0, 1, 2])
    def test_round_walks_the_ring_from_position_zero_wherever_the_hand_is(
        self, memory_backend, evictions
    ):
        # a round cleans the first dirty frames in ring (installation)
        # order, not the ones the CLOCK hand will reach next; ROADMAP item 1
        # records what starting at the hand would change
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 4 + evictions)
        pool = make_pool(memory_backend, capacity=4, flusher_batch=2)
        for page_no in range(4 + evictions):
            pool.get(sid, page_no, 0.0, **identity_codec())
        ring = [frame.key for frame in pool._ring]
        assert pool._clock_hand == evictions  # the hand is where eviction left it
        for key in ring:
            pool.mark_dirty(*key)
        pool._flush_round(0.0)
        assert [key for key in ring if not pool._frames[key].dirty] == ring[:2]
        assert pool.stats.flusher_writes == 2


class TestFlush:
    def test_flush_all_clears_dirty(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 3)
        pool = make_pool(memory_backend)
        for i in range(3):
            page, __ = pool.get(sid, i, 0.0, **identity_codec())
            page[0] = i + 10
            pool.mark_dirty(sid, i)
        pool.flush_all(0.0)
        for i in range(3):
            assert memory_backend.pages[(sid, i)][0] == i + 10
        # second flush writes nothing
        writes = memory_backend.writes
        pool.flush_all(0.0)
        assert memory_backend.writes == writes

    def test_mark_dirty_unbuffered_rejected(self, memory_backend):
        pool = make_pool(memory_backend)
        with pytest.raises(BufferError):
            pool.mark_dirty(1, 0)

    def test_unpin_unpinned_rejected(self, memory_backend):
        pool = make_pool(memory_backend)
        with pytest.raises(BufferError):
            pool.unpin(1, 0)

    def test_drop_discards_without_writeback(self, memory_backend):
        sid = memory_backend.create_space("t")
        seed_pages(memory_backend, sid, 1)
        pool = make_pool(memory_backend)
        page, __ = pool.get(sid, 0, 0.0, **identity_codec())
        page[0] = 0xEE
        pool.mark_dirty(sid, 0)
        pool.drop(sid, 0)
        assert memory_backend.pages[(sid, 0)][0] != 0xEE


@dataclass
class RefFrame:
    key: tuple
    page: object
    encoder: object
    image: object = None
    dirty: bool = False
    pin_count: int = 0
    referenced: bool = True


class ReferencePool:
    """Stand-alone reference for :class:`BufferPool`: the pool as it was
    when its CLOCK ring held keys, not frames.  Every frame is found by a
    dict probe of its key, the victim is picked by one method and deleted
    from the ring by value (``list.remove``) by another, with the hand left
    where the sweep stopped, and an evicted page is parked as an ``(image,
    page object)`` tuple that a miss on that very image turns back into a
    new frame.  The edits the property below makes are never marked dirty,
    so a page object reinstalled on one side and decoded on the other would
    differ."""

    def __init__(self, backend, capacity, flusher_interval, flusher_batch, cpu_us_per_op=5.0):
        self.backend = backend
        self.capacity = capacity
        self.flusher_interval = flusher_interval
        self.flusher_batch = flusher_batch
        self.cpu_us_per_op = cpu_us_per_op
        self.stats = BufferStats()
        self._frames = {}
        self._parked = {}
        self._clock_keys = []
        self._clock_hand = 0
        self._ops_since_flush = 0

    def _touch(self, at):
        self._ops_since_flush += 1
        if self._ops_since_flush >= self.flusher_interval > 0:
            self._ops_since_flush = 0
            self._flush_round(at)

    def get(self, space_id, page_no, at, decoder, encoder, pin=False):
        self._touch(at)
        key = (space_id, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            frame.referenced = True
            at += self.cpu_us_per_op
        else:
            self.stats.misses += 1
            at = self._make_room(at + self.cpu_us_per_op)
            data, at = self.backend.read_page(space_id, page_no, at)
            parked = self._parked.pop(key, None)
            page = parked[1] if parked is not None and parked[0] is data else decoder(data)
            frame = self._frames[key] = RefFrame(key, page, encoder, data)
            self._clock_keys.append(key)
        if pin:
            frame.pin_count += 1
        return frame.page, at

    def put_new(self, space_id, page_no, page, encoder, at, pin=False):
        self._touch(at)
        at += self.cpu_us_per_op
        key = (space_id, page_no)
        if key in self._frames:
            raise BufferError(f"page {key} already buffered")
        at = self._make_room(at)
        frame = self._frames[key] = RefFrame(key, page, encoder, dirty=True)
        self._clock_keys.append(key)
        if pin:
            frame.pin_count += 1
        return at

    def mark_dirty(self, space_id, page_no):
        frame = self._frames.get((space_id, page_no))
        if frame is None:
            raise BufferError(f"page ({space_id}, {page_no}) is not buffered")
        frame.dirty = True

    def unpin(self, space_id, page_no):
        frame = self._frames.get((space_id, page_no))
        if frame is None or frame.pin_count == 0:
            raise BufferError(f"page ({space_id}, {page_no}) is not pinned")
        frame.pin_count -= 1

    def drop(self, space_id, page_no):
        self._parked.pop((space_id, page_no), None)
        frame = self._frames.pop((space_id, page_no), None)
        if frame is not None:
            self._clock_keys.remove(frame.key)
            if self._clock_hand >= len(self._clock_keys):
                self._clock_hand = 0

    def flush_page(self, space_id, page_no, at):
        frame = self._frames.get((space_id, page_no))
        if frame is None or not frame.dirty:
            return at
        return self._write_back(frame, at)

    def flush_all(self, at):
        for key in sorted(self._frames):
            at = self.flush_page(key[0], key[1], at)
        return at

    def _write_back(self, frame, at):
        image = frame.encoder(frame.page)
        at = self.backend.write_page(frame.key[0], frame.key[1], image, at)
        frame.image = image
        frame.dirty = False
        return at

    def _make_room(self, at):
        if len(self._frames) < self.capacity:
            return at
        victim = self._pick_victim()
        if victim.dirty:
            at = self._write_back(victim, at)
            self.stats.dirty_evictions += 1
        self.stats.evictions += 1
        if isinstance(victim.page, SlottedPage):
            victim.page.rows.clear()
        self._parked[victim.key] = (victim.image, victim.page)
        del self._frames[victim.key]
        self._clock_keys.remove(victim.key)
        if self._clock_hand >= len(self._clock_keys):
            self._clock_hand = 0
        return at

    def _pick_victim(self):
        sweeps = 0
        limit = 2 * len(self._clock_keys) + 1
        while sweeps < limit:
            key = self._clock_keys[self._clock_hand]
            self._clock_hand = (self._clock_hand + 1) % len(self._clock_keys)
            frame = self._frames[key]
            sweeps += 1
            if frame.pin_count > 0:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return frame
        raise BufferError("every buffer frame is pinned; cannot evict")

    def _flush_round(self, at):
        written = 0
        for key in self._clock_keys:
            if written >= self.flusher_batch:
                break
            frame = self._frames[key]
            if frame.dirty and frame.pin_count == 0:
                self._write_back(frame, at)
                self.stats.flusher_writes += 1
                written += 1


class WriteLogBackend(MemoryBackend):
    def __init__(self):
        super().__init__()
        self.write_log = []

    def store(self, space_id, page_no, data, at):
        self.write_log.append((space_id, page_no, bytes(data)))
        return super().store(space_id, page_no, data, at)


PAGES = 10
page_nos = st.integers(0, PAGES - 1)
pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), page_nos, st.booleans()),
        st.tuples(st.just("put_new"), page_nos, st.booleans()),
        st.tuples(st.just("unpin"), page_nos, st.none()),
        st.tuples(st.just("unpin_all"), st.none(), st.lists(page_nos, max_size=3)),
        st.tuples(st.just("mark_dirty"), page_nos, st.none()),
        st.tuples(st.just("drop"), page_nos, st.none()),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(pool_ops, st.sampled_from([0, 3]))
def test_evict_by_ring_position_equals_evict_by_value(operations, flusher_interval):
    def build(cls):
        backend = WriteLogBackend()
        sid = backend.create_space("t")
        seed_pages(backend, sid, PAGES)
        backend.write_log.clear()
        pool = cls(backend, capacity=4, flusher_interval=flusher_interval, flusher_batch=2)
        return pool, backend, sid

    def apply(pool, sid, kind, page_no, flag, at):
        """``(outcome, completion time)``; a refused operation is an outcome too."""
        try:
            if kind == "get":
                page, at = pool.get(sid, page_no, at, **identity_codec(), pin=flag)
                if flag:
                    page[0] ^= 0xFF  # the pinned page is edited: write-backs carry it
                return bytes(page), at
            if kind == "put_new":
                return None, pool.put_new(
                    sid, page_no, bytearray([page_no, 0xAA]), bytes, at, pin=flag
                )
            if kind == "unpin_all":
                pins = list(flag)
                if isinstance(pool, ReferencePool):
                    while pins:  # as a B-tree released its pins, one call each
                        pool.unpin(sid, pins.pop())
                else:
                    pool.unpin_all(sid, pins)
                return pins, at
            getattr(pool, kind)(sid, page_no)
            return None, at
        except BufferError as error:
            return str(error), at

    (new, new_backend, sid), (old, old_backend, __) = build(BufferPool), build(ReferencePool)
    new_at = old_at = 0.0
    for kind, page_no, flag in operations:
        new_out, new_at = apply(new, sid, kind, page_no, flag, new_at)
        old_out, old_at = apply(old, sid, kind, page_no, flag, old_at)
        assert (new_out, new_at) == (old_out, old_at)
        # same victims, same ring order, same parked images
        assert [frame.key for frame in new._ring] == old._clock_keys
        assert {key: (f.image, f.page) for key, f in new._parked.items()} == old._parked
        assert new._clock_hand == old._clock_hand
        assert new.stats == old.stats
        assert new_backend.write_log == old_backend.write_log  # write-back order and images
    assert new.flush_all(new_at) == old.flush_all(old_at)
    assert new_backend.pages == old_backend.pages
