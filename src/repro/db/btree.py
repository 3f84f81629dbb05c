"""B+-tree secondary indexes over the buffer pool.

Nodes are page-sized and travel through the same buffer/backend path as
heap pages, so index traffic hits flash exactly like Shore-MT's B-trees
do.  Design points:

* composite keys — tuples of INT/CHAR/VARCHAR column values, compared
  lexicographically; a :class:`KeyCodec` serialises them;
* values are heap :class:`~repro.db.heap.RID`\\ s; inside a leaf they are
  whatever ``(page_no, slot)`` tuple arrived — an ``RID`` from
  :meth:`BTree.insert`, the plain pair a page image unpacks to — and only
  what :meth:`BTree.search` / :meth:`BTree.range_scan` hand out is made an
  ``RID``, so decoding a leaf builds no object per entry it will not return;
* duplicates allowed unless ``unique=True`` (non-unique lookups return
  every match);
* deletes are *lazy* (no merge/rebalance on underflow) — the strategy of
  several production engines; emptied leaves are reclaimed only when the
  index is rebuilt;
* leaves are chained for range scans;
* a node is written back as :meth:`NodeCodec.image`, a snapshot of its
  entries that is encoded only if someone reads the image as bytes, so
  :meth:`BTree.insert` validates each key before the tree changes, and an
  image refuses a node over capacity.
"""

from __future__ import annotations

import bisect
import struct
from collections.abc import Callable, Sequence
from itertools import starmap
from operator import add

from repro.db.buffer import BufferPool
from repro.db.heap import RID
from repro.db.records import ColumnType, Key, RowCodec, Schema, SchemaError, varchar_col
from repro.flash.payload import DeferredImage, Payload


class IndexError_(Exception):
    """Invalid index operation (duplicate key on unique index, ...)."""


_RID_STRUCT = struct.Struct("<iH")
_CHILD_STRUCT = struct.Struct("<i")
_LEAF_HEADER = struct.Struct("<BHi")  # type, count, next_leaf
_INNER_HEADER = struct.Struct("<BH")  # type, count
_LEAF_TYPE = 1
_INNER_TYPE = 2

#: structs of a fixed-width node entry (see :meth:`KeyCodec.entry_structs`)
_EntryStructs = tuple[struct.Struct, struct.Struct, struct.Struct]


class KeyCodec:
    """Serialises composite keys of INT/CHAR/VARCHAR columns.

    A key is stored like a row whose text parts are all VARCHARs
    (length-prefixed, unpadded), so :attr:`encode` and :attr:`decode` are
    the compiled functions of a :class:`RowCodec` over that storage schema,
    called with no frame of this class in between.
    """

    #: ``encode(key) -> bytes``; validates arity, types and text lengths
    encode: Callable[[Key], bytes]
    #: ``decode(data, offset) -> (key, end)``: one key starting at ``offset``
    decode: Callable[[bytes, int], tuple[Key, int]]

    def __init__(self, schema: Schema) -> None:
        for column in schema:
            if column.type is ColumnType.FLOAT:
                raise SchemaError(f"FLOAT column {column.name!r} cannot be a key")
        self.schema = schema
        stored = RowCodec(
            Schema(
                [
                    c if c.type is ColumnType.INT else varchar_col(c.name, c.length)
                    for c in schema
                ]
            )
        )
        #: largest serialized key size in bytes
        self.max_size = stored.schema.max_row_size
        self.encode, self.decode = stored.encode, stored.decode_from

    def entry_structs(self, tail: struct.Struct) -> _EntryStructs | None:
        """Structs for a node entry — the key, then ``tail``'s fields — when
        every key part is an INT; ``None`` for keys with a text part, whose
        entries have no fixed width.

        All three span one whole entry, so each walks a node's entry area
        in a single C pass: the first packs (or unpacks) every field, the
        second skips the tail as pad bytes and yields the key tuples, the
        third skips the key and yields the tail tuples.
        """
        if any(column.type is not ColumnType.INT for column in self.schema):
            return None
        key = "q" * len(self.schema)
        fields = tail.format.lstrip("<")
        return (
            struct.Struct(f"<{key}{fields}"),
            struct.Struct(f"<{key}{tail.size}x"),
            struct.Struct(f"<{8 * len(self.schema)}x{fields}"),
        )


class _Node:
    """In-memory B+-tree node (leaf or inner)."""

    __slots__ = ("is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Key] = []
        self.values: list[tuple[int, ...]] = []  # leaves only: (page_no, slot)
        self.children: list[int] = []  # inner only: len(keys) + 1 page_nos
        self.next_leaf: int = -1  # leaves only


class NodeCodec:
    """Page images of one index's nodes: header, then the entries.

    Owns everything coding needs — the key codec, the entry structs, the
    page size and the capacities they imply — and nothing else: the tree
    hands the pool this object's bound :meth:`decode` / :meth:`image`, the
    pool's frames keep the latter and every image written keeps the codec,
    so a codec must not lead back to the tree or the pool (that would make
    every storage stack a reference cycle, freed only by the cyclic
    collector).  :meth:`encode` is the one encoder: an image's bytes, when
    anyone reads them, are what it returns for the snapshot.
    """

    def __init__(self, keys: KeyCodec, page_size: int) -> None:
        self.keys = keys
        self.page_size = page_size
        self._leaf_entry = keys.entry_structs(_RID_STRUCT)
        self._inner_entry = keys.entry_structs(_CHILD_STRUCT)
        leaf_entry = keys.max_size + _RID_STRUCT.size
        inner_entry = keys.max_size + _CHILD_STRUCT.size
        self.leaf_capacity = (page_size - _LEAF_HEADER.size) // leaf_entry
        self.inner_capacity = (
            page_size - _INNER_HEADER.size - _CHILD_STRUCT.size
        ) // inner_entry
        if self.leaf_capacity < 4 or self.inner_capacity < 4:
            raise IndexError_(
                f"key of max {keys.max_size} bytes leaves fanout < 4 on "
                f"{page_size}-byte pages"
            )

    def encode(self, node: _Node) -> bytes:
        """A node's page image, zero-padded to the page size."""
        if node.is_leaf:
            return self._encode_leaf(node.keys, node.values, node.next_leaf)
        return self._encode_inner(node.keys, node.children)

    def image(self, node: _Node) -> DeferredImage:
        """:meth:`encode`, deferred: a snapshot of the node's entries (tuples
        of its keys and values or children, and ``next_leaf``) that is
        encoded only if the image is ever read as bytes.  Refuses a node
        over capacity, which no decoder would accept back."""
        count = len(node.keys)
        if node.is_leaf:
            if count > self.leaf_capacity:
                raise IndexError_(f"leaf overflow: {count} > {self.leaf_capacity} entries")
            state: tuple[object, ...] = (
                self, tuple(node.keys), tuple(node.values), node.next_leaf
            )
            return DeferredImage(NodeCodec._encode_leaf, state, self.page_size)
        if count > self.inner_capacity:
            raise IndexError_(f"inner overflow: {count} > {self.inner_capacity} entries")
        state = (self, tuple(node.keys), tuple(node.children))
        return DeferredImage(NodeCodec._encode_inner, state, self.page_size)

    def _encode_leaf(
        self, keys: Sequence[Key], values: Sequence[tuple[int, ...]], next_leaf: int
    ) -> bytes:
        header = _LEAF_HEADER.pack(_LEAF_TYPE, len(keys), next_leaf)
        return self._pad(header, self._pack_entries(keys, values, self._leaf_entry, _RID_STRUCT))

    def _encode_inner(self, keys: Sequence[Key], children: Sequence[int]) -> bytes:
        header = _INNER_HEADER.pack(_INNER_TYPE, len(keys)) + _CHILD_STRUCT.pack(children[0])
        tails = [(child,) for child in children[1:]]
        return self._pad(header, self._pack_entries(keys, tails, self._inner_entry, _CHILD_STRUCT))

    def _pad(self, header: bytes, entries: list[bytes]) -> bytes:
        image = header + b"".join(entries)
        if len(image) > self.page_size:
            raise IndexError_(f"node overflow: {len(image)} > {self.page_size}")
        return image.ljust(self.page_size, b"\x00")

    def _pack_entries(
        self,
        keys: Sequence[Key],
        tails: Sequence[tuple[int, ...]],
        entry: _EntryStructs | None,
        tail: struct.Struct,
    ) -> list[bytes]:
        """Images of a node's entries: each key followed by its tail fields."""
        if entry is None:
            encode = self.keys.encode
            return [encode(key) + tail.pack(*fields) for key, fields in zip(keys, tails)]
        try:
            # key + fields is one tuple concatenation per entry, in C, and
            # so is the pack: no Python frame between the node and its image
            return list(starmap(entry[0].pack, map(add, keys, tails)))
        except struct.error as error:
            raise SchemaError(f"key does not match the index's INT columns: {error}") from None

    def _unpack_entries(
        self,
        data: bytes,
        offset: int,
        count: int,
        entry: _EntryStructs | None,
        tail: struct.Struct,
    ) -> tuple[list[Key], list[tuple[int, ...]]]:
        """Inverse of :meth:`_pack_entries` for ``count`` entries at ``offset``."""
        if entry is not None:
            # two passes over the entry area, each yielding finished tuples:
            # one reads the keys and steps over the tails, one the reverse
            whole, keys_only, tails_only = entry
            area = data[offset : offset + count * whole.size]
            return list(keys_only.iter_unpack(area)), list(tails_only.iter_unpack(area))
        keys: list[Key] = []
        tails: list[tuple[int, ...]] = []
        decode = self.keys.decode
        for __ in range(count):
            key, offset = decode(data, offset)
            keys.append(key)
            tails.append(tail.unpack_from(data, offset))
            offset += tail.size
        return keys, tails

    def decode(self, data: Payload) -> _Node:
        """The node a page image holds; refuses a corrupt header."""
        data = bytes(data)  # the image itself when it is bytes already
        node_type = data[0]
        if node_type == _LEAF_TYPE:
            __, count, next_leaf = _LEAF_HEADER.unpack_from(data, 0)
            self._check_count(count, self.leaf_capacity)
            node = _Node(is_leaf=True)
            node.next_leaf = next_leaf
            node.keys, node.values = self._unpack_entries(
                data, _LEAF_HEADER.size, count, self._leaf_entry, _RID_STRUCT
            )
            return node
        if node_type == _INNER_TYPE:
            __, count = _INNER_HEADER.unpack_from(data, 0)
            self._check_count(count, self.inner_capacity)
            node = _Node(is_leaf=False)
            offset = _INNER_HEADER.size
            node.children = list(_CHILD_STRUCT.unpack_from(data, offset))
            node.keys, tails = self._unpack_entries(
                data, offset + _CHILD_STRUCT.size, count, self._inner_entry, _CHILD_STRUCT
            )
            node.children += [child for (child,) in tails]
            return node
        raise IndexError_(f"corrupt index page (type byte {node_type})")

    @staticmethod
    def _check_count(count: int, capacity: int) -> None:
        """Refuse a node header no encoder writes: a node splits before it
        is written with more than ``capacity`` entries, so a larger count
        would read phantom keys out of the padding or run off the page."""
        if count > capacity:
            raise IndexError_(
                f"corrupt index page (entry count {count} exceeds capacity {capacity})"
            )


class BTree:
    """A B+-tree index stored in one tablespace.

    Args:
        buffer_pool: shared buffer manager.
        space_id: tablespace for the index's pages.
        key_schema: columns forming the key (order matters).
        unique: reject duplicate keys when ``True``.
    """

    def __init__(
        self,
        buffer_pool: BufferPool,
        space_id: int,
        key_schema: Schema,
        unique: bool = False,
    ) -> None:
        self.buffer_pool = buffer_pool
        self.space_id = space_id
        self.unique = unique
        self.page_size = buffer_pool.backend.page_size
        self.codec = NodeCodec(KeyCodec(key_schema), self.page_size)
        self.leaf_capacity = self.codec.leaf_capacity
        self.inner_capacity = self.codec.inner_capacity
        self._root_page: int = -1
        self._height = 0
        self._entry_count = 0
        self._pins: list[int] = []
        # bound once: a node touch is one positional call through the pool's
        # only door, with no method object built on the way
        self._get = buffer_pool.get
        self._decode = self.codec.decode
        self._image = self.codec.image
        self._check_key = self.codec.keys.encode

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Number of (key, rid) entries in the index."""
        return self._entry_count

    @property
    def height(self) -> int:
        """Tree height (0 = empty, 1 = root leaf)."""
        return self._height

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def _fetch(self, page_no: int, at: float, pin: bool = True) -> tuple[_Node, float]:
        fetched = self._get(self.space_id, page_no, at, self._decode, self._image, pin)
        if pin:
            self._pins.append(page_no)
        return fetched

    def _new_node(self, node: _Node, at: float, pin: bool = True) -> tuple[int, float]:
        page_no, at = self.buffer_pool.backend.allocate_page(self.space_id, at)
        at = self.buffer_pool.put_new(self.space_id, page_no, node, self._image, at, pin)
        if pin:
            self._pins.append(page_no)
        return page_no, at

    def _dirty(self, page_no: int) -> None:
        self.buffer_pool.mark_dirty(self.space_id, page_no)

    def _release_pins(self) -> None:
        while self._pins:
            self.buffer_pool.unpin(self.space_id, self._pins.pop())

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _descend_to_leaf(
        self, key: Key, at: float, pin: bool = True
    ) -> tuple[int, _Node, float]:
        """Walk from the root to the leaf that may contain ``key``.

        Read-only callers pass ``pin=False``: they keep Python references
        to the decoded nodes, which stay readable even if the frame is
        evicted, so long chains never exhaust the pool.  Mutating callers
        keep the default pinning so their in-place changes cannot be lost
        to eviction mid-operation.
        """
        get, space_id, decode, image = self._get, self.space_id, self._decode, self._image
        page_no = self._root_page
        while True:
            node, at = get(space_id, page_no, at, decode, image, pin)
            if pin:
                self._pins.append(page_no)
            if node.is_leaf:
                return page_no, node, at
            # rightmost child whose separator <= key (duplicates: go left
            # of equal separators so scans start at the first duplicate)
            page_no = node.children[bisect.bisect_left(node.keys, key)]

    def search(self, key: Key, at: float) -> tuple[RID | None, float]:
        """First RID stored under ``key``, or ``None``."""
        if self._root_page < 0:
            return None, at
        __, leaf, at = self._descend_to_leaf(key, at, pin=False)
        while True:
            index = bisect.bisect_left(leaf.keys, key)
            if index < len(leaf.keys):
                if leaf.keys[index] == key:
                    return RID(*leaf.values[index]), at
                return None, at
            if leaf.next_leaf < 0:
                return None, at
            leaf, at = self._fetch(leaf.next_leaf, at, pin=False)

    def search_all(self, key: Key, at: float) -> tuple[list[RID], float]:
        """Every RID stored under ``key`` (non-unique indexes)."""
        results, at = self.range_scan(key, key, at)
        return [rid for __, rid in results], at

    def range_scan(
        self, lo: Key | None, hi: Key | None, at: float, limit: int | None = None
    ) -> tuple[list[tuple[Key, RID]], float]:
        """Entries with ``lo <= key <= hi`` (either bound may be ``None``).

        Returns ``(entries, completion_us)``; ``limit`` caps the result.
        """
        if self._root_page < 0:
            return [], at
        if lo is None:
            leaf, at = self._leftmost_leaf(at)
            index = 0
        else:
            __, leaf, at = self._descend_to_leaf(lo, at, pin=False)
            index = bisect.bisect_left(leaf.keys, lo)
        results: list[tuple[Key, RID]] = []
        while True:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if hi is not None and key > hi:
                    return results, at
                results.append((key, RID(*leaf.values[index])))
                if limit is not None and len(results) >= limit:
                    return results, at
                index += 1
            if leaf.next_leaf < 0:
                return results, at
            leaf, at = self._fetch(leaf.next_leaf, at, pin=False)
            index = 0

    def _leftmost_leaf(self, at: float) -> tuple[_Node, float]:
        node, at = self._fetch(self._root_page, at, pin=False)
        while not node.is_leaf:
            node, at = self._fetch(node.children[0], at, pin=False)
        return node, at

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key: Key, rid: RID, at: float) -> float:
        """Insert ``(key, rid)``; raises on duplicates for unique indexes.

        A key the index cannot store (wrong arity, a part of the wrong type,
        text too long) raises :class:`SchemaError` before the tree changes:
        a node's image is encoded only if it is read, so this is where a
        bad key is caught.
        """
        key = tuple(key)
        self._check_key(key)
        try:
            if self._root_page < 0:
                root = _Node(is_leaf=True)
                root.keys.append(key)
                root.values.append(rid)
                self._root_page, at = self._new_node(root, at)
                self._height = 1
                self._entry_count = 1
                return at
            split, at = self._insert_into(self._root_page, key, rid, at)
            if split is not None:
                sep_key, new_page = split
                new_root = _Node(is_leaf=False)
                new_root.keys.append(sep_key)
                new_root.children.extend([self._root_page, new_page])
                self._root_page, at = self._new_node(new_root, at)
                self._height += 1
            self._entry_count += 1
            return at
        finally:
            self._release_pins()

    def _insert_into(
        self, page_no: int, key: Key, rid: RID, at: float
    ) -> tuple[tuple[Key, int] | None, float]:
        """Recursive insert; returns (separator, new right sibling) on split."""
        node, at = self._fetch(page_no, at)
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if self.unique and index < len(node.keys) and node.keys[index] == key:
                raise IndexError_(f"duplicate key {key!r} on unique index")
            node.keys.insert(index, key)
            node.values.insert(index, rid)
            self._dirty(page_no)
            if len(node.keys) <= self.leaf_capacity:
                return None, at
            return self._split_leaf(page_no, node, at)
        index = bisect.bisect_left(node.keys, key)
        split, at = self._insert_into(node.children[index], key, rid, at)
        if split is None:
            return None, at
        sep_key, new_page = split
        node.keys.insert(index, sep_key)
        node.children.insert(index + 1, new_page)
        self._dirty(page_no)
        if len(node.keys) <= self.inner_capacity:
            return None, at
        return self._split_inner(page_no, node, at)

    def _split_leaf(
        self, page_no: int, node: _Node, at: float
    ) -> tuple[tuple[Key, int], float]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        right.next_leaf = node.next_leaf
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right_page, at = self._new_node(right, at)
        node.next_leaf = right_page
        self._dirty(page_no)
        return (right.keys[0], right_page), at

    def _split_inner(
        self, page_no: int, node: _Node, at: float
    ) -> tuple[tuple[Key, int], float]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        right_page, at = self._new_node(right, at)
        self._dirty(page_no)
        return (sep_key, right_page), at

    # ------------------------------------------------------------------
    # Delete (lazy: no rebalancing)
    # ------------------------------------------------------------------
    def delete(self, key: Key, rid: RID | None, at: float) -> tuple[bool, float]:
        """Remove one entry for ``key`` (matching ``rid`` if given).

        Returns ``(deleted, completion_us)``.
        """
        if self._root_page < 0:
            return False, at
        key = tuple(key)
        try:
            __, leaf, at = self._descend_to_leaf(key, at)
            leaf_page = self._pins[-1]
            while True:
                index = bisect.bisect_left(leaf.keys, key)
                while index < len(leaf.keys) and leaf.keys[index] == key:
                    if rid is None or leaf.values[index] == rid:
                        del leaf.keys[index]
                        del leaf.values[index]
                        self._dirty(leaf_page)
                        self._entry_count -= 1
                        return True, at
                    index += 1
                if index < len(leaf.keys) or leaf.next_leaf < 0:
                    return False, at
                leaf_page = leaf.next_leaf
                leaf, at = self._fetch(leaf_page, at)
        finally:
            self._release_pins()

    # ------------------------------------------------------------------
    # Validation (tests and property checks)
    # ------------------------------------------------------------------
    def check_invariants(self, at: float = 0.0) -> float:
        """Assert key ordering and structural invariants; returns time."""
        if self._root_page < 0:
            assert self._entry_count == 0
            return at
        try:
            count, at = self._check_node(self._root_page, None, None, at)
            assert count == self._entry_count, (
                f"entry count drift: counted {count}, tracked {self._entry_count}"
            )
            return at
        finally:
            self._release_pins()

    def _check_node(
        self, page_no: int, lo: Key | None, hi: Key | None, at: float
    ) -> tuple[int, float]:
        node, at = self._fetch(page_no, at, pin=False)
        keys = node.keys
        assert keys == sorted(keys), f"unsorted keys in page {page_no}"
        for key in keys:
            assert lo is None or key >= lo, f"key {key} below subtree bound {lo}"
            assert hi is None or key <= hi, f"key {key} above subtree bound {hi}"
        if node.is_leaf:
            assert len(node.values) == len(keys)
            return len(keys), at
        assert len(node.children) == len(keys) + 1
        total = 0
        bounds = [lo] + keys + [hi]
        for i, child in enumerate(node.children):
            count, at = self._check_node(child, bounds[i], bounds[i + 1], at)
            total += count
        return total, at
