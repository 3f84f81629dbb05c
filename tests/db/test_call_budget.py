"""Call budgets of the buffered page-touch and row-update paths.

Host time in ``repro.db`` is mostly Python frames, and those paths run a
million times per experiment, so a wrapper that creeps back in costs
seconds without failing anything.  Timing floors are machine-dependent;
the number of Python-level calls an operation makes is not.  Each test
counts the ``call`` events ``sys.setprofile`` reports (C functions report
``c_call`` and are not counted) for one operation on a warm buffer and
compares it with the frames the operation is designed to need.  Budgets
are upper bounds: an interpreter that inlines comprehensions needs fewer.

Simulated time has a budget of its own: every ``BufferPool.get`` charges
``cpu_us_per_op`` and counts towards the next flush round, and a row
write — update, column update, delete, and their WAL replay — touches
its heap page exactly once, as the tests at the end pin.
"""

import sys

import pytest

from repro.db import (
    RID,
    BTree,
    BufferPool,
    Database,
    HeapFile,
    IndexInfo,
    Schema,
    TableInfo,
    char_col,
    float_col,
    int_col,
    varchar_col,
)
from repro.db.table import Table
from repro.db.wal import LogRecord, LogRecordType, _apply_record

from tests.db.conftest import MemoryBackend, page_touches


def python_calls(operation, *args):
    """Qualified names of the Python functions ``operation(*args)`` enters,
    itself included, in call order."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        operation(*args)
    finally:
        sys.setprofile(previous)
    return entered


@pytest.fixture(scope="module")
def warm():
    """A 2,000-row table behind a two-level index, every page buffered and
    every row decoded once; ``(table, rid of row 1000)``."""
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    pool = BufferPool(backend, capacity=512, flusher_interval=256)
    schema = Schema(
        [int_col("w"), int_col("i"), int_col("qty"), char_col("dist", 24),
         float_col("ytd"), int_col("cnt"), varchar_col("data", 50)]
    )
    info = TableInfo("T", schema, "t", HeapFile(pool, backend.create_space("t"), schema))
    tree = BTree(pool, backend.create_space("i"), schema.project(["w", "i"]), unique=True)
    info.indexes.append(IndexInfo("T_IDX", "T", ("w", "i"), True, "i", tree))
    table = Table(info)
    at = 0.0
    for i in range(2000):
        __, at = table.insert((1, i, 50, "d" * 24, 0.0, 0, "x" * 30), at)
    assert tree.height == 2
    for rid, __, at in list(table.scan(at)):
        table.read(rid, at)
    rid, at = table.lookup_rid("T_IDX", (1, 1000), at)
    assert pool.stats.misses == 0  # nothing was ever evicted: all of the below are hits
    return table, rid


def test_buffered_read(warm):
    table, rid = warm
    # Table.read -> HeapFile.read (RID check, touch, kept row) -> BufferPool.get
    assert python_calls(table.read, rid, 0.0) == ["Table.read", "HeapFile.read", "BufferPool.get"]


def test_buffered_undecoded_read():
    # the row's page is buffered but a whole-row update dropped the row it
    # kept: the read decodes the record in one frame of the schema's codec
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    pool = BufferPool(backend, capacity=8, flusher_interval=0)
    schema = Schema([int_col("w"), char_col("dist", 24), float_col("ytd"), varchar_col("data", 50)])
    heap = HeapFile(pool, backend.create_space("t"), schema)
    table = Table(TableInfo("T", schema, "t", heap))
    rid, at = table.insert((1, "d" * 24, 0.0, "x" * 30), 0.0)
    table.update(rid, (1, "e" * 24, 1.0, "y" * 3), at)
    assert python_calls(table.read, rid, 0.0) == [
        "Table.read", "HeapFile.read", "BufferPool.get",
        "SlottedPage.read_row", "SlottedPage.read", "SlottedPage._slot",
        "decode",
    ]


def test_index_insert_checks_its_key_in_one_frame():
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    pool = BufferPool(backend, capacity=8, flusher_interval=0)
    tree = BTree(pool, backend.create_space("i"), Schema([int_col("w"), char_col("name", 16)]))
    at = tree.insert((1, "a"), RID(1, 1), 0.0)
    entered = python_calls(tree.insert, (1, "b"), RID(1, 2), at)
    # KeyCodec.encode is the compiled encoder itself, not a wrapper of it
    assert entered[:3] == ["BTree.insert", "encode", "BTree._insert_into"], entered


def test_buffered_lookup(warm):
    table, __ = warm
    entered = python_calls(table.lookup, "T_IDX", (1, 1000), 0.0)
    # lookup, index by name, search, one descent with a get per level, the
    # RID handed out, and a buffered read
    assert len(entered) <= 4 + 2 + 1 + 3, entered
    assert entered.count("BufferPool.get") == 3


def test_miss_on_an_unchanged_page_decodes_nothing():
    # a small pool: the scan evicts the index and row 0's heap page, whose
    # images stay what the pool last read or wrote, so the lookup misses on
    # every level and reinstalls each parked page object
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    pool = BufferPool(backend, capacity=8, flusher_interval=0)
    schema = Schema([int_col("w"), int_col("i"), char_col("dist", 24), varchar_col("data", 50)])
    info = TableInfo("T", schema, "t", HeapFile(pool, backend.create_space("t"), schema))
    tree = BTree(pool, backend.create_space("i"), schema.project(["w", "i"]), unique=True)
    info.indexes.append(IndexInfo("T_IDX", "T", ("w", "i"), True, "i", tree))
    table = Table(info)
    at = 0.0
    for i in range(2000):
        __, at = table.insert((1, i, "d" * 24, "x" * 30), at)
    assert tree.height == 2
    at = pool.flush_all(at)
    for __ in table.scan(at):
        pass
    misses = pool.stats.misses
    entered = python_calls(table.lookup, "T_IDX", (1, 0), 0.0)
    assert pool.stats.misses == misses + 3  # root, leaf, heap page
    assert not {"SlottedPage.from_bytes", "NodeCodec.decode"} & set(entered), entered


#: every function that builds page bytes: the two page encoders and what
#: a deferred image runs to encode
ENCODERS = {
    "SlottedPage.to_bytes",
    "_encode",
    "NodeCodec.encode",
    "NodeCodec._encode_leaf",
    "NodeCodec._encode_inner",
    "NodeCodec._pack_entries",
    "DeferredImage.__bytes__",
}


def test_write_back_encodes_nothing():
    # inserts into a small pool evict dirty heap pages and index nodes, the
    # flusher writes more back, a checkpoint flushes the rest, and a scan
    # and a lookup miss on written-back pages: not one page is encoded
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    pool = BufferPool(backend, capacity=8, flusher_interval=64, flusher_batch=1)
    schema = Schema([int_col("w"), int_col("i"), char_col("dist", 24), varchar_col("data", 50)])
    info = TableInfo("T", schema, "t", HeapFile(pool, backend.create_space("t"), schema))
    tree = BTree(pool, backend.create_space("i"), schema.project(["w", "i"]), unique=True)
    info.indexes.append(IndexInfo("T_IDX", "T", ("w", "i"), True, "i", tree))
    table = Table(info)

    def workload():
        at = 0.0
        for i in range(2000):
            __, at = table.insert((1, i, "d" * 24, "x" * 30), at)
        at = pool.flush_all(at)
        for __ in table.scan(at):
            pass
        table.lookup("T_IDX", (1, 0), at)

    entered = set(python_calls(workload))
    stats = pool.stats
    assert stats.dirty_evictions and stats.flusher_writes and stats.misses
    assert "BufferPool._write_back" in entered and "SlottedPage.image" in entered
    assert "NodeCodec.image" in entered
    assert not ENCODERS & entered, ENCODERS & entered


def test_fixed_width_update_columns(warm):
    table, rid = warm
    changes = {"qty": 49, "ytd": 12.5, "cnt": 3}
    table.update_columns(rid, changes, 0.0)  # compiles the plan for these columns
    entered = python_calls(table.update_columns, rid, changes, 0.0)
    # one touch (heap rewrite, RID check + get, the kept row, the record
    # and its slot check), the change with the patch and its value list,
    # the overwrite and its slot check, the dirty mark: no row codec, no
    # key extraction, no update
    assert len(entered) <= 14, entered
    assert entered.count("BufferPool.get") == 1
    assert not {"Table.update", "encode", "decode"} & set(entered)
    # one frame of the compiled patch, which calls no Python function
    assert entered.count("patch") == 1
    assert entered[entered.index("patch") + 1] == "SlottedPage.replace", entered


def heap_page(table, rid):
    return (table.info.heap.space_id, rid.page_no)


#: one row write of each kind on row 1000: each touches its heap page once
#: and no index page (no key column changes, the record does not move)
ROW_WRITES = {
    "update": lambda table, rid: table.update(rid, (1, 1000, 48, "e" * 24, 1.0, 1, "y" * 30), 0.0),
    "update_columns-patched": lambda table, rid: table.update_columns(rid, {"cnt": 4}, 0.0),
    "update_columns-whole-row": lambda table, rid: table.update_columns(
        rid, {"data": "z" * 30, "cnt": 5}, 0.0
    ),
}


@pytest.mark.parametrize("write", list(ROW_WRITES))
def test_row_write_touches_its_heap_page_once(warm, write):
    table, rid = warm
    assert page_touches(ROW_WRITES[write], table, rid) == [heap_page(table, rid)]
    table.read(rid, 0.0)  # decoded again, as the fixture promises


def test_delete_touches_its_heap_page_once():
    backend = MemoryBackend(page_size=4096, io_cost=0.0)
    db = Database(backend, buffer_pages=64)
    table = db.create_table("T", Schema([int_col("k"), varchar_col("v", 20)]))
    at = db.create_index("T_IDX", "T", ["k"], unique=True)
    rid, at = table.insert((1, "one"), at)
    touched = page_touches(table.delete, rid, at)
    heap = [touch for touch in touched if touch[0] == table.info.heap.space_id]
    assert heap == [heap_page(table, rid)]
    assert len(touched) == 2  # and the one-level index's root, for its entry


@pytest.mark.parametrize("kind", [LogRecordType.UPDATE, LogRecordType.DELETE], ids=["UPDATE", "DELETE"])
def test_replayed_row_write_touches_its_heap_page_once(kind):
    db = Database(MemoryBackend(page_size=4096, io_cost=0.0), buffer_pages=64)
    table = db.create_table("T", Schema([int_col("k"), varchar_col("v", 20)]))
    rid, at = table.insert((1, "one"), 0.0)
    record = LogRecord(1, kind, "T", rid, table.info.heap.codec.encode((1, "uno")))
    assert page_touches(_apply_record, db, record, at) == [heap_page(table, rid)]
