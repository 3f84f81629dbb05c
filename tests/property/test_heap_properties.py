"""Property-based tests: heap files behave like a dict of rows."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import (
    BufferPool,
    HeapFile,
    Schema,
    SlotError,
    TableInfo,
    char_col,
    float_col,
    int_col,
    varchar_col,
)
from repro.db.table import Table

from tests.db.conftest import MemoryBackend


def make_heap():
    backend = MemoryBackend(page_size=256, io_cost=0.0)
    sid = backend.create_space("h")
    pool = BufferPool(backend, capacity=16, flusher_interval=0)
    return HeapFile(pool, sid, Schema([int_col("k"), varchar_col("v", 40)]))


text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1000), text),
        st.tuples(st.just("update"), st.integers(0, 30), text),
        st.tuples(st.just("delete"), st.integers(0, 30), st.just("")),
    ),
    max_size=100,
)


@settings(max_examples=50, deadline=None)
@given(ops)
def test_heap_matches_dict(operations):
    heap = make_heap()
    live: dict = {}  # rid -> row
    order: list = []  # insertion order of live rids
    at = 0.0
    for kind, key, value in operations:
        if kind == "insert":
            rid, at = heap.insert((key, value), at)
            live[rid] = (key, value)
            order.append(rid)
        elif kind == "update" and order:
            rid = order[key % len(order)]
            row = (live[rid][0], value)
            new_rid, at = heap.update(rid, row, at)
            if new_rid != rid:
                del live[rid]
                order.remove(rid)
                order.append(new_rid)
            live[new_rid] = row
        elif kind == "delete" and order:
            rid = order[key % len(order)]
            __, at = heap.delete(rid, at)
            del live[rid]
            order.remove(rid)
    assert heap.row_count == len(live)
    for rid, row in live.items():
        assert heap.read(rid, at)[0] == row
    scanned = {rid: row for rid, row, __ in heap.scan(at)}
    assert scanned == live


# ----------------------------------------------------------------------
# Row residency: a buffered page keeps the rows decoded from it
# ----------------------------------------------------------------------
residency_schema = Schema(
    [int_col("k"), char_col("c", 6), float_col("f"), varchar_col("v", 60)]
)

# values whose written form is not what reads back: CHAR drops trailing
# spaces, an int in a FLOAT column returns as a float (and a bool in an INT
# column as an int: the column patch keeps the row it did not decode)
padded = st.sampled_from(["", "ab", "ab  ", "abcdef", " x "])
number = st.one_of(
    st.integers(-5, 5), st.booleans(), st.floats(-5, 5, allow_nan=False, width=32)
)
short, long_ = text.filter(lambda s: len(s) <= 8), st.text(alphabet="xyz", min_size=45, max_size=60)

residency_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), padded, number, st.one_of(short, long_)),
        st.tuples(st.just("update"), st.integers(0, 30), number, short),  # fits: in place
        st.tuples(st.just("update"), st.integers(0, 30), number, long_),  # grows: may move
        st.tuples(st.just("delete"), st.integers(0, 30), st.none(), st.none()),
        # Table.update_columns: f alone, k and f (patched in place), f and v (rebuilt)
        st.tuples(st.just("columns"), st.integers(0, 30), number, st.sampled_from("fkv")),
        st.tuples(st.just("reload"), st.none(), st.none(), st.none()),
    ),
    max_size=60,
)


def typed(row):
    """``3 == 3.0``: compare the types too."""
    return [(type(value), value) for value in row]


@settings(max_examples=60, deadline=None)
@given(residency_ops)
def test_read_always_equals_a_fresh_decode_of_the_record(operations):
    backend = MemoryBackend(page_size=256, io_cost=0.0)
    sid = backend.create_space("h")
    pool = BufferPool(backend, capacity=4, flusher_interval=0)  # evicts all the time
    heap = HeapFile(pool, sid, residency_schema)
    table = Table(TableInfo("t", residency_schema, "h", heap))
    live: list = []  # rids, insertion order
    dead: set = set()  # deleted and not handed out again
    at = 0.0

    def check(at):
        for rid in live:
            row, at = heap.read(rid, at)
            again, at = heap.read(rid, at)
            assert again is row  # the page stayed buffered: decoded once
            record, at = heap.read_record(rid, at)
            assert typed(row) == typed(heap.codec.decode(record))
        for rid in dead:
            with pytest.raises(SlotError):
                heap.read(rid, at)
        return at

    def moved(rid, new_rid):
        if new_rid != rid:  # outgrew its page: the old slot is empty now
            dead.add(rid)
            dead.discard(new_rid)
            live[live.index(rid)] = new_rid

    for kind, a, b, c in operations:
        if kind == "insert":
            rid, at = heap.insert((len(live), a, b, c), at)
            dead.discard(rid)  # a deleted slot handed out again
            live.append(rid)
        elif kind == "update" and live:
            rid = live[a % len(live)]
            old, at = heap.read(rid, at)
            new_rid, at = heap.update(rid, (old[0], old[1][:5] + " ", b, c), at)
            moved(rid, new_rid)
        elif kind == "delete" and live:
            rid = live.pop(a % len(live))
            __, at = heap.delete(rid, at)
            dead.add(rid)
        elif kind == "columns" and live:
            rid = live[a % len(live)]
            changes = {"f": {"f": b}, "k": {"f": b, "k": bool(b)}, "v": {"f": b, "v": "v" * 9}}[c]
            new_rid, at = table.update_columns(rid, changes, at)
            assert new_rid == rid or c == "v"  # a patched row cannot move
            moved(rid, new_rid)
        elif kind == "reload":
            at = pool.flush_all(at)
            for page_no in range(heap.page_count):
                pool.drop(sid, page_no)
        at = check(at)
    assert {rid: typed(row) for rid, row, __ in heap.scan(at)} == {
        rid: typed(heap.read(rid, at)[0]) for rid in live
    }
