"""A miss on a page the pool evicted reinstalls the parked page object.

The pool parks the evicted frame, with its image and page object; a
later miss still reads the backend and reinstalls the parked frame only
when the bytes handed back are that image *itself*.  The oracle is a backend that hands
back a fresh copy of every stored image, so its pool decodes every miss,
as the pool did before it parked anything: both runs must agree on every
returned row, every completion time, the pool's counters and the
backend's traffic.
"""

import os
import random

import pytest

from repro.db import (
    BTree,
    BufferPool,
    HeapFile,
    IndexInfo,
    Schema,
    SlottedPage,
    TableInfo,
    char_col,
    float_col,
    int_col,
    split_rid,
    varchar_col,
)
from repro.db import heap as heap_module
from repro.db.table import Table
from repro.flash import DeferredImage

from tests.db.conftest import MemoryBackend

#: the fault-matrix CI job reruns this file under its three REPRO_FAULT_SEEDs
BASE_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SCHEMA = Schema(
    [int_col("w"), int_col("i"), int_col("qty"), float_col("ytd"),
     char_col("last", 8), varchar_col("data", 40)]
)
NAMES = ["ABLE", "BAR", "OUGHT", "PRI", "ESE ANTI", "CALLY"]


class CheckingBackend(MemoryBackend):
    """Hands back the stored image object itself, as the flash device does,
    and calls ``on_read(key, image)`` before every read returns."""

    on_read = None

    def read_stored(self, space_id, page_no, at):
        data, at = super().read_stored(space_id, page_no, at)
        if self.on_read is not None:
            self.on_read((space_id, page_no), data)
        return data, at


class CopyingBackend(MemoryBackend):
    """Hands back a fresh copy of every stored image, as bytes: nothing is
    reused, and every miss decodes what a deferred image encodes to."""

    def read_stored(self, space_id, page_no, at):
        data, at = super().read_stored(space_id, page_no, at)
        return bytes(bytearray(bytes(data))), at


class Stack:
    """One table with a unique INT index and a text index, behind a small
    pool, with every page decode counted."""

    def __init__(self, backend, monkeypatch, capacity=6):
        self.backend = backend
        self.pool = BufferPool(backend, capacity=capacity, flusher_interval=5, flusher_batch=2)
        heap = HeapFile(self.pool, backend.create_space("t"), SCHEMA)
        self.table = Table(TableInfo("T", SCHEMA, "t", heap))
        self.trees = {}
        indexes = (("T_IDX", ("w", "i"), True), ("T_NAME", ("w", "last"), False))
        for name, columns, unique in indexes:
            space_id = backend.create_space(name)
            tree = BTree(self.pool, space_id, SCHEMA.project(list(columns)), unique)
            self.table.info.indexes.append(IndexInfo(name, "T", columns, unique, name, tree))
            self.trees[tree.space_id] = tree
        self.heap_space = heap.space_id
        self.decodes = 0
        for tree in self.trees.values():
            tree._decode = self.counted(tree._decode)
        monkeypatch.setattr(heap_module, "_DECODE_PAGE", self.counted(SlottedPage.from_bytes))

    def counted(self, decode):
        def counting(data):
            self.decodes += 1
            return decode(data)

        return counting

    def encoder(self, space_id):
        if space_id == self.heap_space:
            return SlottedPage.to_bytes
        return self.trees[space_id].codec.encode


def run(stack, seed, steps=500):
    """Drive a seeded mix of every table operation; returns what each
    operation handed back, completion times included."""
    rng = random.Random(seed)
    table, trace, live, at = stack.table, [], [], 0.0
    for step in range(steps):
        roll = rng.random()
        if roll < 0.3 or not live:
            row = (rng.randrange(1, 3), step, rng.randrange(100), rng.random(),
                   rng.choice(NAMES), "d" * rng.randrange(41))
            rid, at = table.insert(row, at)
            live.append((rid, row[:2], row[4]))
            trace.append(("insert", rid, at))
            continue
        index = rng.randrange(len(live))
        rid, key, last = live[index]
        if roll < 0.45:
            row, at = table.read(rid, at)
            trace.append(("read", row, at))
        elif roll < 0.55:
            row, at = table.lookup("T_IDX", key, at)
            trace.append(("lookup", row, at))
        elif roll < 0.62:
            rows, at = table.lookup_all("T_NAME", (key[0], last), at)
            trace.append(("names", rows, at))
        elif roll < 0.72:
            changes = {"qty": rng.randrange(100), "ytd": rng.random()}
            new_rid, at = table.update_columns(rid, changes, at)
            trace.append(("patch", new_rid, at))
        elif roll < 0.8:
            changes = {"data": "u" * rng.randrange(41)}
            new_rid, at = table.update_columns(rid, changes, at)  # may move the row
            live[index] = (new_rid, key, last)
            trace.append(("grow", new_rid, at))
        elif roll < 0.88:
            at = table.delete(rid, at)
            live.pop(index)
            trace.append(("delete", at))
        elif roll < 0.95:
            btree = table.index("T_IDX").btree
            entries, at = btree.range_scan(key, (key[0], key[1] + 20), at)
            trace.append(("range", entries, at))
        else:
            at = stack.pool.flush_all(at)
            trace.append(("checkpoint", at))
    return trace


@pytest.mark.parametrize("offset", range(4))
def test_reuse_matches_an_always_decoding_pool(monkeypatch, offset):
    seed = BASE_SEED * 10 + offset
    reused = CheckingBackend()
    reuse = Stack(reused, monkeypatch)
    reuses = []

    def check(key, image):
        parked = reuse.pool._parked.get(key)
        if parked is not None and parked.image is image:  # the miss will reinstall
            page = parked.page
            assert reuse.encoder(key[0])(page) == bytes(image)
            if isinstance(page, SlottedPage):
                assert page.rows == {}
            reuses.append(key)

    reused.on_read = check
    reuse_trace = run(reuse, seed)

    copied = CopyingBackend()
    decode = Stack(copied, monkeypatch)
    decode_trace = run(decode, seed)

    assert reuse_trace == decode_trace
    assert reuse.pool.stats == decode.pool.stats
    assert (reused.reads, reused.writes) == (copied.reads, copied.writes)
    assert reuse.pool.flush_all(0.0) == decode.pool.flush_all(0.0)
    assert reused.images() == copied.images()
    misses = decode.pool.stats.misses
    assert misses > 200 and decode.decodes == misses  # the oracle decodes every miss
    assert reuses and reuse.decodes == misses - len(reuses)


def test_a_fresh_pool_decodes_another_pools_deferred_images(monkeypatch):
    # no benchmark workload takes this path: a pool's misses on images that
    # another pool wrote back, so nothing is parked and every one is decoded
    backend = MemoryBackend()
    writer = Stack(backend, monkeypatch, capacity=512)
    run(writer, BASE_SEED * 10, steps=300)
    writer.pool.flush_all(0.0)
    assert writer.pool.stats.evictions == 0  # every page object is still buffered
    codecs = {writer.heap_space: (SlottedPage.from_bytes, SlottedPage.image)}
    for space_id, tree in writer.trees.items():
        codecs[space_id] = (tree.codec.decode, tree.codec.image)
    reader = BufferPool(backend, capacity=4, flusher_interval=0)
    row_codec = writer.table.info.heap.codec
    pages = nodes = 0
    for key, data in backend.pages.items():
        if key[0] not in codecs:
            continue  # the metadata space's extent maps are plain bytes
        assert isinstance(data, DeferredImage)
        page, __ = reader.get(*key, 0.0, *codecs[key[0]])
        original = writer.pool._frames[key].page
        if key[0] == writer.heap_space:
            assert page.slots() == original.slots()
            assert [row_codec.decode(r) for __, r in page.slots()] == [
                row_codec.decode(r) for __, r in original.slots()
            ]
            pages += 1
        else:
            assert (page.is_leaf, page.keys, page.next_leaf) == (
                original.is_leaf, original.keys, original.next_leaf
            )
            assert (page.values, page.children) == (original.values, original.children)
            nodes += 1
    assert pages > 5 and nodes > 5
    assert reader.stats.misses == pages + nodes


def evicted_page(backend, capacity=4):
    """A pool in which page 0 of space ``sid`` was buffered and evicted."""
    sid = backend.create_space("t")
    for page_no in range(capacity + 1):
        backend.allocate_page(sid, 0.0)
        backend.write_page(sid, page_no, SlottedPage.empty_image(backend.page_size), 0.0)
    pool = BufferPool(backend, capacity=capacity, flusher_interval=0)
    page, __ = pool.get(sid, 0, 0.0, SlottedPage.from_bytes, SlottedPage.to_bytes)
    for page_no in range(1, capacity + 1):
        pool.get(sid, page_no, 0.0, SlottedPage.from_bytes, SlottedPage.to_bytes)
    assert not pool.is_buffered(sid, 0)
    return pool, sid, page


def get(pool, sid, page_no=0):
    return pool.get(sid, page_no, 0.0, SlottedPage.from_bytes, SlottedPage.to_bytes)[0]


class TestWhenTheParkedObjectReturns:
    def test_the_image_it_was_parked_with(self, memory_backend):
        pool, sid, page = evicted_page(memory_backend)
        assert get(pool, sid) is page
        assert pool.stats.misses == 6  # still a miss, and still a read
        assert memory_backend.reads == 6

    def test_as_the_same_frame_referenced_clean_unpinned_with_the_callers_encoder(
        self, memory_backend
    ):
        pool, sid, page = evicted_page(memory_backend)
        frame = pool._parked[(sid, 0)]
        assert frame.page is page and not frame.referenced
        encoder = SlottedPage.image  # not the encoder the page was evicted with
        again, __ = pool.get(sid, 0, 0.0, SlottedPage.from_bytes, encoder)
        assert again is page
        assert pool._frames[(sid, 0)] is frame and pool._ring[-1] is frame
        assert (sid, 0) not in pool._parked
        assert frame.referenced and not frame.dirty and frame.pin_count == 0
        assert frame.encoder is encoder

    def test_not_for_an_equal_copy(self, memory_backend):
        pool, sid, page = evicted_page(memory_backend)
        memory_backend.pages[(sid, 0)] = bytes(bytearray(memory_backend.pages[(sid, 0)]))
        again = get(pool, sid)
        assert again is not page and again.to_bytes() == page.to_bytes()

    def test_not_for_a_rewritten_image(self, memory_backend):
        pool, sid, page = evicted_page(memory_backend)
        fresh = SlottedPage(memory_backend.page_size)
        fresh.insert(b"rewritten")
        memory_backend.write_page(sid, 0, fresh.to_bytes(), 0.0)
        again = get(pool, sid)
        assert again is not page and again.read(0) == b"rewritten"

    def test_not_after_drop(self, memory_backend):
        pool, sid, page = evicted_page(memory_backend)
        pool.drop(sid, 0)  # freed: the next life of the page number starts from its image
        assert (sid, 0) not in pool._parked
        assert get(pool, sid) is not page

    def test_written_back_pages_return_too(self, memory_backend):
        sid = memory_backend.create_space("t")
        pool = BufferPool(memory_backend, capacity=4, flusher_interval=0)
        pages = []
        for __ in range(5):
            page_no, __ = memory_backend.allocate_page(sid, 0.0)
            page = SlottedPage(memory_backend.page_size)
            page.insert(b"row %d" % page_no)
            pool.put_new(sid, page_no, page, SlottedPage.to_bytes, 0.0)
            pages.append(page)
        assert pool.stats.dirty_evictions == 1  # page 0 was encoded, written and parked
        assert get(pool, sid) is pages[0]

    def test_without_its_rows(self, memory_backend):
        sid = memory_backend.create_space("t")
        pool = BufferPool(memory_backend, capacity=4, flusher_interval=0)
        heap = HeapFile(pool, sid, Schema([int_col("k"), char_col("c", 4)]))
        rid, __ = heap.insert((1, "ab  "), 0.0)
        row, __ = heap.read(rid, 0.0)
        rid_page, slot = split_rid(rid)
        page = get(pool, sid, rid_page)
        assert page.rows == {slot: row}
        for __ in range(4):  # evict the heap page: every insert below opens a page
            page_no, __ = memory_backend.allocate_page(sid, 0.0)
            fresh = SlottedPage(memory_backend.page_size)
            pool.put_new(sid, page_no, fresh, SlottedPage.to_bytes, 0.0)
        assert not pool.is_buffered(sid, rid_page)
        assert page.rows == {}
        assert get(pool, sid, rid_page) is page and page.rows == {}
        assert heap.read(rid, 0.0)[0] == (1, "ab")
