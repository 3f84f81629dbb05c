"""Unit tests for the B+-tree index."""

import random
import tracemalloc
from array import array

import pytest

from repro.db import (
    BTree,
    BufferPool,
    IndexError_,
    KeyCodec,
    Schema,
    SchemaError,
    char_col,
    float_col,
    int_col,
    make_rid,
    split_rid,
    varchar_col,
)

from tests.db.conftest import MemoryBackend


def make_tree(backend, columns=None, unique=False, buffer_pages=64):
    sid = backend.create_space(f"idx_{random.random()}")
    pool = BufferPool(backend, capacity=buffer_pages, flusher_interval=0)
    schema = Schema(columns or [int_col("k")])
    return BTree(pool, sid, schema, unique=unique)


class TestBasics:
    def test_insert_search(self, memory_backend):
        tree = make_tree(memory_backend)
        tree.insert((5,), make_rid(1, 1), 0.0)
        rid, __ = tree.search((5,), 0.0)
        assert rid == make_rid(1, 1)

    def test_search_missing(self, memory_backend):
        tree = make_tree(memory_backend)
        tree.insert((5,), make_rid(1, 1), 0.0)
        assert tree.search((6,), 0.0)[0] is None
        assert tree.search((4,), 0.0)[0] is None

    def test_empty_tree(self, memory_backend):
        tree = make_tree(memory_backend)
        assert tree.search((1,), 0.0)[0] is None
        assert tree.range_scan(None, None, 0.0)[0] == []
        assert tree.entry_count == 0

    def test_float_key_rejected(self, memory_backend):
        with pytest.raises(SchemaError):
            make_tree(memory_backend, columns=[float_col("f")])

    def test_many_inserts_split_and_stay_sorted(self, memory_backend):
        tree = make_tree(memory_backend)
        keys = list(range(500))
        random.Random(1).shuffle(keys)
        for k in keys:
            tree.insert((k,), make_rid(k, 0), 0.0)
        assert tree.height > 1
        assert tree.entry_count == 500
        tree.check_invariants()
        entries, __ = tree.range_scan(None, None, 0.0)
        assert [k[0] for k, __ in entries] == sorted(range(500))

    def test_search_finds_every_inserted_key(self, memory_backend):
        tree = make_tree(memory_backend)
        rng = random.Random(2)
        keys = rng.sample(range(10_000), 300)
        for k in keys:
            tree.insert((k,), make_rid(k % 100, k % 50), 0.0)
        for k in keys:
            rid, __ = tree.search((k,), 0.0)
            assert rid == make_rid(k % 100, k % 50)


class TestCompositeAndStringKeys:
    def test_composite_key_ordering(self, memory_backend):
        tree = make_tree(memory_backend, columns=[int_col("a"), int_col("b")])
        tree.insert((1, 5), make_rid(1, 0), 0.0)
        tree.insert((1, 2), make_rid(2, 0), 0.0)
        tree.insert((0, 9), make_rid(3, 0), 0.0)
        entries, __ = tree.range_scan(None, None, 0.0)
        assert [k for k, __ in entries] == [(0, 9), (1, 2), (1, 5)]

    def test_string_keys(self, memory_backend):
        tree = make_tree(memory_backend, columns=[char_col("name", 12)])
        for i, name in enumerate(["delta", "alpha", "charlie", "bravo"]):
            tree.insert((name,), make_rid(i, 0), 0.0)
        entries, __ = tree.range_scan(None, None, 0.0)
        assert [k[0] for k, __ in entries] == ["alpha", "bravo", "charlie", "delta"]

    def test_mixed_composite(self, memory_backend):
        tree = make_tree(memory_backend, columns=[char_col("s", 8), int_col("i")])
        tree.insert(("b", 1), make_rid(0, 0), 0.0)
        tree.insert(("a", 9), make_rid(1, 0), 0.0)
        entries, __ = tree.range_scan(("a", 0), ("a", 99), 0.0)
        assert [k for k, __ in entries] == [("a", 9)]


class TestKeyCodec:
    def test_image_layout(self):
        # INT parts are <q; text parts (CHAR and VARCHAR alike) are
        # <H-prefixed and unpadded
        codec = KeyCodec(Schema([int_col("a"), char_col("c", 4), varchar_col("v", 8)]))
        image = codec.encode((-2, "ab", "héllo"))
        assert image == (-2).to_bytes(8, "little", signed=True) + b"\x02\x00ab" + (
            b"\x06\x00" + "héllo".encode()
        )
        assert codec.decode(b"??" + image, 2) == ((-2, "ab", "héllo"), 2 + len(image))
        assert codec.max_size == 8 + (2 + 4) + (2 + 8)

    def test_overlong_text_part_rejected(self):
        # 14 bytes where max_size, which the fan-out is computed from, says 8 + 6
        codec = KeyCodec(Schema([int_col("a"), char_col("c", 4)]))
        with pytest.raises(SchemaError):
            codec.encode((1, "toolongvalue"))

    @pytest.mark.parametrize("key", [("1",), (1.5,), (None,), (2**63,)])
    def test_bad_int_part_is_a_schema_error(self, key):
        with pytest.raises(SchemaError):
            KeyCodec(Schema([int_col("a")])).encode(key)

    def test_non_str_text_part_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            KeyCodec(Schema([varchar_col("v", 8)])).encode((5,))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            KeyCodec(Schema([int_col("a"), int_col("b")])).encode((1,))

    @pytest.mark.parametrize(
        "columns, good, key",
        [
            ([int_col("a"), int_col("b")], (1, 2), (1, "x")),  # whole-entry struct path
            ([int_col("a"), char_col("c", 4)], (1, "ab"), (1, "toolongvalue")),  # per-part path
        ],
    )
    def test_bad_key_is_refused_at_insert_with_schema_error(
        self, memory_backend, columns, good, key
    ):
        # a node is encoded only if its image is read, so insert checks the
        # key, and the tree is left as it was: empty, then with one entry
        tree = make_tree(memory_backend, columns=columns)
        with pytest.raises(SchemaError):
            tree.insert(key, make_rid(0, 0), 0.0)
        assert (tree.height, tree.entry_count) == (0, 0)
        tree.insert(good, make_rid(0, 1), 0.0)
        with pytest.raises(SchemaError):
            tree.insert(key, make_rid(0, 2), 0.0)
        assert tree.range_scan(None, None, 0.0)[0] == [(good, make_rid(0, 1))]
        tree.buffer_pool.flush_all(0.0)
        assert tree.codec.decode(memory_backend.pages[(tree.space_id, 0)]).keys == [good]
        tree.check_invariants()


class TestDuplicatesAndUnique:
    def test_duplicates_allowed_by_default(self, memory_backend):
        tree = make_tree(memory_backend)
        for slot in range(10):
            tree.insert((7,), make_rid(1, slot), 0.0)
        rids, __ = tree.search_all((7,), 0.0)
        assert sorted(split_rid(r)[1] for r in rids) == list(range(10))

    def test_unique_rejects_duplicates(self, memory_backend):
        tree = make_tree(memory_backend, unique=True)
        tree.insert((7,), make_rid(1, 0), 0.0)
        with pytest.raises(IndexError_):
            tree.insert((7,), make_rid(1, 1), 0.0)

    def test_duplicates_across_leaf_splits(self, memory_backend):
        tree = make_tree(memory_backend)
        # enough duplicates to span multiple leaves
        for slot in range(200):
            tree.insert((42,), make_rid(slot, 0), 0.0)
        tree.insert((41,), make_rid(0, 1), 0.0)
        tree.insert((43,), make_rid(0, 2), 0.0)
        rids, __ = tree.search_all((42,), 0.0)
        assert len(rids) == 200
        tree.check_invariants()


class TestRangeScan:
    def test_bounded_scan(self, memory_backend):
        tree = make_tree(memory_backend)
        for k in range(100):
            tree.insert((k,), make_rid(k, 0), 0.0)
        entries, __ = tree.range_scan((10,), (20,), 0.0)
        assert [k[0] for k, __ in entries] == list(range(10, 21))

    def test_scan_with_limit(self, memory_backend):
        tree = make_tree(memory_backend)
        for k in range(100):
            tree.insert((k,), make_rid(k, 0), 0.0)
        entries, __ = tree.range_scan((50,), None, 0.0, limit=5)
        assert [k[0] for k, __ in entries] == [50, 51, 52, 53, 54]

    def test_open_lower_bound(self, memory_backend):
        tree = make_tree(memory_backend)
        for k in range(20):
            tree.insert((k,), make_rid(k, 0), 0.0)
        entries, __ = tree.range_scan(None, (3,), 0.0)
        assert [k[0] for k, __ in entries] == [0, 1, 2, 3]


class TestDelete:
    def test_delete_specific_rid(self, memory_backend):
        tree = make_tree(memory_backend)
        tree.insert((1,), make_rid(0, 0), 0.0)
        tree.insert((1,), make_rid(0, 1), 0.0)
        deleted, __ = tree.delete((1,), make_rid(0, 0), 0.0)
        assert deleted
        rids, __ = tree.search_all((1,), 0.0)
        assert rids == [make_rid(0, 1)]

    def test_delete_missing_returns_false(self, memory_backend):
        tree = make_tree(memory_backend)
        tree.insert((1,), make_rid(0, 0), 0.0)
        deleted, __ = tree.delete((2,), None, 0.0)
        assert not deleted

    def test_delete_from_empty_tree(self, memory_backend):
        tree = make_tree(memory_backend)
        assert tree.delete((1,), None, 0.0)[0] is False

    def test_mass_delete_keeps_invariants(self, memory_backend):
        tree = make_tree(memory_backend)
        rng = random.Random(3)
        keys = list(range(300))
        rng.shuffle(keys)
        for k in keys:
            tree.insert((k,), make_rid(k, 0), 0.0)
        rng.shuffle(keys)
        for k in keys[:150]:
            deleted, __ = tree.delete((k,), make_rid(k, 0), 0.0)
            assert deleted
        tree.check_invariants()
        remaining = {k[0] for k, __ in tree.range_scan(None, None, 0.0)[0]}
        assert remaining == set(keys[150:])


class TestPersistence:
    def test_tree_survives_tiny_buffer(self, memory_backend):
        tree = make_tree(memory_backend, buffer_pages=8)
        rng = random.Random(5)
        keys = rng.sample(range(100_000), 400)
        for k in keys:
            tree.insert((k,), make_rid(k % 997, k % 13), 0.0)
        assert tree.buffer_pool.stats.evictions > 0
        for k in keys:
            rid, __ = tree.search((k,), 0.0)
            assert rid == make_rid(k % 997, k % 13)
        tree.check_invariants()


class TestCorruptNodeImages:
    """``NodeCodec.decode`` refuses an entry count no encoder writes."""

    #: an all-INT key (whole-node passes) and a text key (per-entry path)
    COLUMNS = {"int": [int_col("a"), int_col("b")], "text": [int_col("a"), varchar_col("s", 6)]}

    @staticmethod
    def with_count(image, count):
        return image[:1] + count.to_bytes(2, "little") + image[3:]

    def images(self, backend, kind):
        """A written-out leaf and inner image of a two-level tree."""
        tree = make_tree(backend, columns=self.COLUMNS[kind], buffer_pages=8)
        for i in range(3 * tree.leaf_capacity):
            tree.insert((i, i) if kind == "int" else (i, f"s{i % 9}"), make_rid(i, 0), 0.0)
        tree.buffer_pool.flush_all(0.0)
        images = [img for (sid, __), img in backend.images().items() if sid == tree.space_id]
        leaf = next(img for img in images if img[0] == 1)
        inner = next(img for img in images if img[0] == 2)
        return tree, leaf, inner

    @pytest.mark.parametrize("kind", ["int", "text"])
    def test_count_at_capacity_is_still_a_node(self, memory_backend, kind):
        tree, leaf, inner = self.images(memory_backend, kind)
        assert len(tree.codec.decode(self.with_count(leaf, 0)).keys) == 0
        if kind == "int":  # fixed width: capacity entries always lie inside the page
            assert len(tree.codec.decode(self.with_count(leaf, tree.leaf_capacity)).keys) == (
                tree.leaf_capacity
            )
            node = tree.codec.decode(self.with_count(inner, tree.inner_capacity))
            assert len(node.children) == tree.inner_capacity + 1

    @pytest.mark.parametrize("kind", ["int", "text"])
    def test_count_above_capacity_rejected(self, memory_backend, kind):
        # was: zero-filled phantom entries read out of the padding (text key:
        # real entries are shorter than the capacity assumes, so there is
        # room) or a raw struct.error (INT key: one entry more than fits)
        tree, leaf, inner = self.images(memory_backend, kind)
        with pytest.raises(IndexError_, match="corrupt index page"):
            tree.codec.decode(self.with_count(leaf, tree.leaf_capacity + 1))
        with pytest.raises(IndexError_, match="corrupt index page"):
            tree.codec.decode(self.with_count(inner, tree.inner_capacity + 1))

    @pytest.mark.parametrize("kind", ["int", "text"])
    def test_count_running_past_the_page_rejected(self, memory_backend, kind):
        # was: a raw struct.error (INT key), a SchemaError about a truncated
        # *record* (text key)
        tree, leaf, inner = self.images(memory_backend, kind)
        for image in (leaf, inner):
            with pytest.raises(IndexError_, match="corrupt index page"):
                tree.codec.decode(self.with_count(image, 0xFFFF))

    @pytest.mark.parametrize("kind", ["int", "text"])
    def test_no_image_of_a_node_over_capacity(self, memory_backend, kind):
        # what decode refuses, image() refuses to write; at capacity it is
        # still an image, and it decodes to the node
        tree, leaf, inner = self.images(memory_backend, kind)
        for image, capacity in ((leaf, tree.leaf_capacity), (inner, tree.inner_capacity)):
            node = tree.codec.decode(image)
            tails = node.values if node.is_leaf else node.children
            while len(node.keys) <= capacity:
                if len(node.keys) == capacity:
                    assert tree.codec.decode(tree.codec.image(node)).keys == node.keys
                node.keys.append(node.keys[-1])
                tails.append(tails[-1])
            with pytest.raises(IndexError_, match="overflow"):
                tree.codec.image(node)


class TestRidRepresentation:
    """A leaf keeps its row addresses, ``page_no << 16 | slot`` ints, in
    one ``array('q')`` column, whether it was built by inserts or decoded
    from its image's ``<iH`` entries; lookups hand out those ints."""

    #: an all-INT key (one struct per entry) and ``C_NAME_IDX``'s text key
    KEYS = {
        "int": ([int_col("w"), int_col("d"), int_col("o")], lambda i: (1, i % 7, i)),
        "name": (
            [int_col("w"), int_col("d"), char_col("last", 16), char_col("first", 16)],
            lambda i: (1, i % 7, f"BAROUGHT{i % 31:02d}", f"first{i:04d}"),
        ),
    }

    def decoded_again(self, backend, kind, entries=300):
        """A tree whose every node has been written out and read back."""
        columns, key_of = self.KEYS[kind]
        tree = make_tree(backend, columns=columns, buffer_pages=8)
        keys = [key_of(i) for i in range(entries)]
        for i, key in enumerate(keys):
            tree.insert(key, make_rid(i, i % 5), 0.0)
        pool = tree.buffer_pool
        pool.flush_all(0.0)
        for key in list(pool._frames):
            pool.drop(*key)
        return tree, keys

    @pytest.mark.parametrize("kind", ["int", "name"])
    def test_lookups_return_rids(self, memory_backend, kind):
        tree, keys = self.decoded_again(memory_backend, kind)
        rid, __ = tree.search(keys[17], 0.0)
        assert type(rid) is int and rid == make_rid(17, 2)
        found, __ = tree.search_all(keys[40], 0.0)
        assert found == [make_rid(40, 0)] and type(found[0]) is int
        entries, __ = tree.range_scan(min(keys), max(keys), 0.0)
        assert len(entries) == len(keys)
        assert all(type(rid) is int for __, rid in entries)
        assert sorted(rid for __, rid in entries) == [make_rid(i, i % 5) for i in range(len(keys))]

    @pytest.mark.parametrize("kind", ["int", "name"])
    def test_lookups_hand_out_the_rid_insert_stored(self, memory_backend, kind):
        # a tree that never left the pool: its leaves hold the addresses
        # insert got, in their columns, and lookups hand them back
        columns, key_of = self.KEYS[kind]
        tree = make_tree(memory_backend, columns=columns)
        keys = [key_of(i) for i in range(300)]
        stored = [make_rid(i, i % 5) for i in range(len(keys))]
        for key, rid in zip(keys, stored):
            tree.insert(key, rid, 0.0)
        assert tree.height >= 2
        leaves = [frame.page for frame in tree.buffer_pool._frames.values() if frame.page.is_leaf]
        assert all(type(leaf.values) is array for leaf in leaves)
        assert sorted(rid for leaf in leaves for rid in leaf.values) == stored
        assert tree.search(keys[17], 0.0)[0] == stored[17]
        assert tree.search_all(keys[40], 0.0)[0] == [stored[40]]
        entries, __ = tree.range_scan(min(keys), max(keys), 0.0)
        assert sorted(rid for __, rid in entries) == stored

    @pytest.mark.parametrize("kind", ["int", "name"])
    def test_a_decoded_entry_comes_back_as_an_rid(self, memory_backend, kind):
        tree, keys = self.decoded_again(memory_backend, kind)
        leaf = tree.codec.decode(memory_backend.images()[(tree.space_id, tree._root_page)])
        while not leaf.is_leaf:
            child = leaf.children[0]
            leaf = tree.codec.decode(memory_backend.images()[(tree.space_id, child)])
        assert type(leaf.values) is array  # decoded into the column
        found = [tree.search(keys[23], 0.0)[0], tree.range_scan(keys[23], keys[23], 0.0)[0][0][1]]
        for rid in found:
            assert type(rid) is int and rid == make_rid(23, 3)
            assert split_rid(rid) == (23, 3)

    @pytest.mark.parametrize("kind", ["int", "name"])
    def test_delete_by_rid_matches_a_decoded_entry(self, memory_backend, kind):
        tree, keys = self.decoded_again(memory_backend, kind)
        tree.insert(keys[9], make_rid(9000, 1), 0.0)  # a duplicate: the rid picks the entry
        assert tree.delete(keys[9], make_rid(9, 3), 0.0)[0] is False  # no such pair
        assert tree.delete(keys[9], make_rid(9, 4), 0.0)[0] is True  # the entry read from flash
        assert tree.search_all(keys[9], 0.0)[0] == [make_rid(9000, 1)]
        tree.check_invariants()

    @pytest.mark.parametrize("kind", ["int", "name"])
    def test_reencoding_a_decoded_leaf_is_byte_identical(self, memory_backend, kind):
        tree, __ = self.decoded_again(memory_backend, kind)
        images = [
            image for (sid, __), image in memory_backend.images().items() if sid == tree.space_id
        ]
        assert len(images) > 3
        for image in images:
            assert tree.codec.encode(tree.codec.decode(image)) == image


class TestEntryFootprint:
    def test_an_entry_costs_bytes_not_objects(self):
        # the keys exist before the count starts, so what is traced is the
        # tree's own cost per entry: its leaf columns (keys, addresses),
        # one write-back snapshot of every node, and the inner nodes.  An
        # address is 8 bytes of an array('q') column and 8 of a snapshot's
        # bytes; an address object per entry (a tuple of two ints, ~100
        # bytes with its page number) would read well over 100.
        backend = MemoryBackend(page_size=4096, io_cost=0.0)
        tree = make_tree(backend, buffer_pages=256)
        entries = 20_000
        keys = [(k,) for k in range(entries)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, key in enumerate(keys):
                tree.insert(key, make_rid(1000 + i, i % 7), 0.0)
            tree.buffer_pool.flush_all(0.0)
            per_entry = (tracemalloc.get_traced_memory()[0] - before) / entries
        finally:
            tracemalloc.stop()
        assert tree.buffer_pool.stats.evictions == 0  # one snapshot per node
        assert per_entry < 48, f"{per_entry:.1f} traced bytes per entry"


class TestAddressLimits:
    @pytest.mark.parametrize(
        "pair", [(2**31 - 1, 2**16 - 1), (-(2**31), 0), (0, 2**16 - 1), (2**31 - 1, 0)]
    )
    def test_the_leaf_format_limits_round_trip(self, memory_backend, pair):
        tree = make_tree(memory_backend)
        rid = make_rid(*pair)
        tree.insert((1,), rid, 0.0)
        tree.buffer_pool.flush_all(0.0)
        image = memory_backend.images()[(tree.space_id, tree._root_page)]
        leaf = tree.codec.decode(image)
        assert list(leaf.values) == [rid] and split_rid(leaf.values[0]) == pair
        assert tree.codec.encode(leaf) == image
        assert tree.search((1,), 0.0)[0] == rid

    @pytest.mark.parametrize("rid", [2**47, -(2**47) - 1, 2**63, 1.5, "7"])
    def test_an_address_outside_the_leaf_format_is_refused_before_the_tree_changes(
        self, memory_backend, rid
    ):
        tree = make_tree(memory_backend)
        for k in range(200):  # a tree of more than one level
            tree.insert((k,), make_rid(k, 0), 0.0)
        before = tree.range_scan(None, None, 0.0)[0]
        with pytest.raises((IndexError_, TypeError)):
            tree.insert((50,), rid, 0.0)
        assert tree.range_scan(None, None, 0.0)[0] == before
        assert tree.entry_count == 200
        tree.check_invariants()
