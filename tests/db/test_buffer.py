"""Unit tests for the buffer pool."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import BufferError, BufferPool

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
        ring = list(pool._clock_keys)
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


class RemoveBasedPool(BufferPool):
    """Reference: eviction as it was before the victim was deleted by ring
    position — ``_pick_victim`` hands back the frame and ``_make_room``
    finds it again by value.  The hand is left where the sweep stopped.
    The victim is parked as the pool parks it: the edits below are never
    marked dirty, so a page object reinstalled on one side and decoded on
    the other would differ."""

    def _make_room(self, at):
        if len(self._frames) < self.capacity:
            return at
        victim = self._pick_victim()
        if victim.dirty:
            at = self._write_back(victim, at)
            self.stats.dirty_evictions += 1
        self.stats.evictions += 1
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


class WriteLogBackend(MemoryBackend):
    def __init__(self):
        super().__init__()
        self.write_log = []

    def _write(self, space, page_no, data, at):
        self.write_log.append((space.space_id, page_no, bytes(data)))
        return super()._write(space, page_no, data, at)


PAGES = 10
page_nos = st.integers(0, PAGES - 1)
pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), page_nos, st.booleans()),
        st.tuples(st.just("put_new"), page_nos, st.booleans()),
        st.tuples(st.just("unpin"), page_nos, st.none()),
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
            getattr(pool, kind)(sid, page_no)
            return None, at
        except BufferError as error:
            return str(error), at

    (new, new_backend, sid), (old, old_backend, __) = build(BufferPool), build(RemoveBasedPool)
    new_at = old_at = 0.0
    for kind, page_no, flag in operations:
        new_out, new_at = apply(new, sid, kind, page_no, flag, new_at)
        old_out, old_at = apply(old, sid, kind, page_no, flag, old_at)
        assert (new_out, new_at) == (old_out, old_at)
        assert new._clock_keys == old._clock_keys  # same victims, same ring order
        assert new._clock_hand == old._clock_hand
        assert new.stats == old.stats
        assert new_backend.write_log == old_backend.write_log  # write-back order and images
    assert new.flush_all(new_at) == old.flush_all(old_at)
    assert new_backend.pages == old_backend.pages
