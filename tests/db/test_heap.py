"""Unit tests for heap files."""

import pytest

from repro.db import (
    BufferPool,
    HeapError,
    HeapFile,
    Schema,
    char_col,
    int_col,
    make_rid,
    split_rid,
    varchar_col,
)


def make_heap(backend, fill_hint=1.0, buffer_pages=16):
    sid = backend.create_space("heap_t")
    pool = BufferPool(backend, capacity=buffer_pages, flusher_interval=0)
    schema = Schema([int_col("id"), varchar_col("payload", 64)])
    return HeapFile(pool, sid, schema, fill_hint=fill_hint)


class TestInsertRead:
    def test_roundtrip(self, memory_backend):
        heap = make_heap(memory_backend)
        rid, __ = heap.insert((1, "hello"), 0.0)
        row, __ = heap.read(rid, 0.0)
        assert row == (1, "hello")

    def test_many_rows_span_pages(self, memory_backend):
        heap = make_heap(memory_backend)
        rids = {}
        for i in range(200):
            rid, __ = heap.insert((i, f"row-{i}"), 0.0)
            rids[i] = rid
        assert heap.page_count > 1
        for i, rid in rids.items():
            assert heap.read(rid, 0.0)[0] == (i, f"row-{i}")

    def test_row_count_tracks(self, memory_backend):
        heap = make_heap(memory_backend)
        rid, __ = heap.insert((1, "a"), 0.0)
        heap.insert((2, "b"), 0.0)
        heap.delete(rid, 0.0)
        assert heap.row_count == 1

    def test_foreign_rid_rejected(self, memory_backend):
        heap = make_heap(memory_backend)
        heap.insert((1, "a"), 0.0)
        with pytest.raises(HeapError):
            heap.read(make_rid(999, 0), 0.0)

    def test_oversized_schema_rejected(self, memory_backend):
        sid = memory_backend.create_space("big")
        pool = BufferPool(memory_backend, capacity=8)
        schema = Schema([char_col("c", memory_backend.page_size)])
        with pytest.raises(HeapError):
            HeapFile(pool, sid, schema)


class TestUpdateDelete:
    def test_update_in_place_keeps_rid(self, memory_backend):
        heap = make_heap(memory_backend)
        rid, __ = heap.insert((1, "short"), 0.0)
        new_rid, __ = heap.update(rid, (1, "other"), 0.0)
        assert new_rid == rid
        assert heap.read(rid, 0.0)[0] == (1, "other")

    def test_update_that_outgrows_page_moves_record(self, memory_backend):
        heap = make_heap(memory_backend)
        # fill one page with tight rows
        rids = [heap.insert((i, "x" * 50), 0.0)[0] for i in range(12)]
        target = rids[0]
        # grow one record well past the page's free space
        new_rid, __ = heap.update(target, (0, "y" * 64), 0.0)
        row, __ = heap.read(new_rid, 0.0)
        assert row == (0, "y" * 64)
        assert heap.row_count == 12

    def test_deleted_space_is_reused(self, memory_backend):
        heap = make_heap(memory_backend)
        rids = [heap.insert((i, "x" * 50), 0.0)[0] for i in range(30)]
        pages_before = heap.page_count
        for rid in rids:
            heap.delete(rid, 0.0)
        for i in range(30):
            heap.insert((i, "x" * 50), 0.0)
        assert heap.page_count == pages_before

    def test_delete_then_read_rejected(self, memory_backend):
        heap = make_heap(memory_backend)
        rid, __ = heap.insert((1, "a"), 0.0)
        heap.delete(rid, 0.0)
        from repro.db import SlotError

        with pytest.raises(SlotError):
            heap.read(rid, 0.0)


class TestScan:
    def test_scan_returns_all_live_rows(self, memory_backend):
        heap = make_heap(memory_backend)
        expected = set()
        rids = []
        for i in range(50):
            rid, __ = heap.insert((i, f"p{i}"), 0.0)
            rids.append(rid)
            expected.add(i)
        heap.delete(rids[10], 0.0)
        expected.remove(10)
        seen = {row[0] for __, row, __ in heap.scan(0.0)}
        assert seen == expected

    def test_scan_empty_heap(self, memory_backend):
        heap = make_heap(memory_backend)
        assert list(heap.scan(0.0)) == []


class TestPersistence:
    def test_rows_survive_buffer_eviction(self, memory_backend):
        heap = make_heap(memory_backend, buffer_pages=4)
        rids = {}
        for i in range(200):
            rid, __ = heap.insert((i, f"row-{i}" + "x" * 50), 0.0)
            rids[i] = rid
        # small pool: most pages were evicted and re-read
        assert heap.buffer_pool.stats.evictions > 0
        for i, rid in rids.items():
            assert heap.read(rid, 0.0)[0] == (i, f"row-{i}" + "x" * 50)

    def test_time_accounting_charges_misses(self, memory_backend):
        heap = make_heap(memory_backend, buffer_pages=4)
        t = 0.0
        for i in range(100):
            __, t = heap.insert((i, "x"), t)
        assert t > 0.0


class TestRid:
    """A row address is one int, ``page_no << 16 | slot``: it orders,
    equals and hashes as its ``(page_no, slot)`` pair does."""

    #: the on-flash form's limits (``<iH``) and a few pairs between them
    PAIRS = [(2, 0), (1, 9), (1, 2), (-1, 5), (0, 2**16 - 1), (2**31 - 1, 2**16 - 1), (-(2**31), 0)]

    def test_orders_by_page_then_slot(self):
        rids = [make_rid(page_no, slot) for page_no, slot in self.PAIRS]
        assert sorted(rids) == [make_rid(*pair) for pair in sorted(self.PAIRS)]
        assert make_rid(1, 2) < make_rid(1, 3) <= make_rid(1, 3) < make_rid(2, 0)

    def test_hashes_and_equals_like_its_pair(self):
        # equal (and so hashed alike) exactly when the pairs are equal
        for a in self.PAIRS:
            for b in self.PAIRS:
                assert (make_rid(*a) == make_rid(*b)) == (a == b)
        assert {make_rid(7, 3): "row"}[make_rid(7, 3)] == "row"
        assert make_rid(7, 3) != make_rid(3, 7)

    def test_split_returns_page_and_slot(self):
        for pair in self.PAIRS:
            rid = make_rid(*pair)
            assert type(rid) is int and split_rid(rid) == pair

    def test_make_refuses_a_pair_the_on_flash_form_cannot_hold(self):
        for page_no, slot in ((0, 2**16), (0, -1), (2**31, 0), (-(2**31) - 1, 0)):
            with pytest.raises(HeapError, match="no row address"):
                make_rid(page_no, slot)
