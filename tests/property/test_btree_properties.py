"""Property-based tests: B+-tree behaves like a sorted multimap."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db import BTree, BufferPool, Schema, int_col, make_rid

from tests.db.conftest import MemoryBackend


def make_tree(unique=False):
    backend = MemoryBackend(page_size=256, io_cost=0.0)
    sid = backend.create_space("idx")
    pool = BufferPool(backend, capacity=64, flusher_interval=0)
    return BTree(pool, sid, Schema([int_col("k")]), unique=unique)


keys = st.integers(min_value=-(2**32), max_value=2**32)


@settings(max_examples=50, deadline=None)
@given(st.lists(keys, max_size=150))
def test_matches_sorted_reference(inserted):
    tree = make_tree()
    reference = []
    for i, key in enumerate(inserted):
        rid = make_rid(i, 0)
        tree.insert((key,), rid, 0.0)
        reference.append(((key,), rid))
    entries, __ = tree.range_scan(None, None, 0.0)
    assert sorted(k for k, __ in entries) == [k for k, __ in entries]
    assert sorted(entries) == sorted(reference)
    tree.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=120))
def test_insert_delete_matches_multiset(operations):
    tree = make_tree()
    from collections import Counter

    reference: Counter = Counter()
    serial = 0
    for is_insert, key in operations:
        if is_insert:
            tree.insert((key,), make_rid(key, serial % 1000), 0.0)
            reference[key] += 1
            serial += 1
        else:
            deleted, __ = tree.delete((key,), None, 0.0)
            assert deleted == (reference[key] > 0)
            if deleted:
                reference[key] -= 1
    for key in range(31):
        rids, __ = tree.search_all((key,), 0.0)
        assert len(rids) == reference[key]
    assert tree.entry_count == sum(reference.values())
    tree.check_invariants()


@settings(max_examples=40, deadline=None)
@given(st.lists(keys, min_size=1, max_size=120), st.tuples(keys, keys))
def test_range_scan_equals_filter(inserted, bounds):
    lo, hi = min(bounds), max(bounds)
    tree = make_tree()
    for i, key in enumerate(sorted(set(inserted))):
        tree.insert((key,), make_rid(i, 0), 0.0)
    entries, __ = tree.range_scan((lo,), (hi,), 0.0)
    expected = sorted(k for k in set(inserted) if lo <= k <= hi)
    assert [k[0] for k, __ in entries] == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(keys, unique=True, max_size=100))
def test_unique_index_search_exact(inserted):
    tree = make_tree(unique=True)
    for i, key in enumerate(inserted):
        tree.insert((key,), make_rid(i, 1), 0.0)
    for i, key in enumerate(inserted):
        rid, __ = tree.search((key,), 0.0)
        assert rid == make_rid(i, 1)
