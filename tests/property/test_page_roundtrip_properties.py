"""Property-based tests: every page object the buffer pool holds survives
``decode(encode(page))`` unchanged.

The pool reinstalls an evicted page object, instead of decoding its image
again, when the backend hands back the image the object was last coded
to.  That is exact only if decoding the encoded object gives the object
back, so these properties drive random operation sequences and then
compare the object with the decode of its own image: slotted pages over
insert / update / replace / delete, and B+-tree leaf and inner nodes over
inserts and deletes, for an all-INT key and for a text key of CHAR
columns.  A CHAR *row* value reads back without its trailing spaces, but
:class:`~repro.db.btree.KeyCodec` stores a key's text parts as VARCHARs,
so a key keeps them; the properties draw such keys on purpose.

A write-back hands the backend a page's *deferred* image
(:meth:`SlottedPage.image`, :meth:`~repro.db.btree.NodeCodec.image`): a
snapshot that is encoded only when read.  The same operation sequences
check that such an image encodes to what the page encoded to when it was
taken, that its ``len`` is exact, that later operations on the page (and
node splits) leave it unchanged, and that it decodes back to the page.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db import RID, BTree, BufferPool, PageFullError, Schema, SlottedPage, char_col, int_col
from repro.flash import DeferredImage

from tests.db.conftest import MemoryBackend


def state(page):
    """A slotted page's image-bearing state (its kept rows are a cache)."""
    return {name: value for name, value in vars(page).items() if name != "rows"}


records = st.binary(max_size=40)
slot_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50), records),
        st.tuples(st.just("update"), st.integers(0, 50), records),
        st.tuples(st.just("replace"), st.integers(0, 50), st.binary(max_size=1)),
        st.tuples(st.just("delete"), st.integers(0, 50), st.none()),
        st.tuples(st.just("read"), st.integers(0, 50), st.none()),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([64, 128, 256]), slot_ops)
def test_slotted_page_round_trips(page_size, operations):
    page = SlottedPage(page_size)
    for kind, pick, record in operations:
        if kind != "insert" and not page.slot_count:
            continue
        apply_slot_op(page, kind, pick, record)
        decoded = SlottedPage.from_bytes(page.to_bytes())
        assert state(decoded) == state(page)
        assert decoded.rows == {}
        assert decoded.to_bytes() == page.to_bytes()


def apply_slot_op(page, kind, pick, record):
    """One drawn operation of ``slot_ops`` on ``page`` (skipped where it
    does not apply)."""
    if kind == "insert":
        if page.fits(record):
            page.insert(record)
        return
    live = [slot for slot, __ in page.slots()]
    if not live:
        return
    slot = live[pick % len(live)]
    if kind == "update":
        try:
            page.update(slot, record)
        except PageFullError:
            pass
    elif kind == "replace":  # a same-length overwrite keeps the row it is handed
        old = page.read(slot)
        new = bytes(b ^ record[0] for b in old) if record else old[::-1]
        page.replace(slot, new, ("row of", new))
    elif kind == "delete":
        page.delete(slot)
    else:
        page.read_row(slot, lambda data: ("row of", data))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([64, 128, 256]), slot_ops)
def test_slotted_page_images_are_frozen_snapshots(page_size, operations):
    page = SlottedPage(page_size)
    taken = []  # (deferred image, the page's bytes when it was taken)
    for kind, pick, record in operations:
        apply_slot_op(page, kind, pick, record)
        image = page.image()
        assert isinstance(image, DeferredImage)
        encoded = page.to_bytes()
        assert len(image) == len(encoded)
        decoded = SlottedPage.from_bytes(image)
        assert state(decoded) == state(page) and decoded.rows == {}
        taken.append((image, encoded))
    for image, encoded in taken:  # every later operation left it as it was
        assert bytes(image) == encoded
        assert len(image) == len(bytes(image))


def typed(values):
    """``1 == True == 1.0``: compare element types too."""
    return [[(type(part), part) for part in value] for value in values]


#: ``(key schema, key strategy)``: an all-INT key and ``C_NAME_IDX``'s shape,
#: whose CHAR parts may end (or be nothing but) spaces
INT_KEY = (
    Schema([int_col("w"), int_col("o")]),
    st.tuples(st.integers(0, 3), st.integers(-(2**63), 2**63 - 1)),
)
names = st.one_of(
    st.sampled_from(["", " ", "ab", "ab ", "ab  ", " ab", "BAR   ", "é ", "ABLE"]),
    st.text(alphabet="AB é", max_size=4),
)
TEXT_KEY = (
    Schema([int_col("w"), char_col("last", 8), char_col("first", 8)]),
    st.tuples(st.integers(0, 3), names, names),
)


def node_ops(key):
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), key, st.integers(0, 2**31 - 1)),
            st.tuples(st.just("delete"), key, st.integers(0, 2**31 - 1)),
        ),
        max_size=150,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([INT_KEY, TEXT_KEY]).flatmap(
        lambda shape: st.tuples(st.just(shape[0]), node_ops(shape[1]))
    )
)
def test_btree_nodes_round_trip(case):
    schema, operations = case
    backend = MemoryBackend(page_size=256, io_cost=0.0)
    pool = BufferPool(backend, capacity=256, flusher_interval=0)  # nothing is evicted
    tree = BTree(pool, backend.create_space("idx"), schema)
    inserted = []
    for kind, key, pick in operations:
        if kind == "insert":
            tree.insert(key, RID(pick, pick % 7), 0.0)
            inserted.append(key)
        elif inserted:  # delete a key that is there, or one that may not be
            tree.delete(inserted[pick % len(inserted)] if pick % 3 else key, None, 0.0)
    assert pool.stats.evictions == 0
    nodes = [frame.page for frame in pool._frames.values()]
    assert (len(nodes) > 1) == (tree.height > 1)
    for node in nodes:
        decoded = tree.codec.decode(tree.codec.encode(node))
        assert decoded.is_leaf == node.is_leaf
        assert typed(decoded.keys) == typed(node.keys)
        # a leaf holds RIDs where it was written and plain pairs where it
        # was decoded: both are the same (page_no, slot) tuple
        assert decoded.values == node.values
        assert decoded.children == node.children
        assert decoded.next_leaf == node.next_leaf
    tree.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([INT_KEY, TEXT_KEY]).flatmap(
        lambda shape: st.tuples(st.just(shape[0]), node_ops(shape[1]))
    )
)
def test_btree_node_images_are_frozen_snapshots(case):
    schema, operations = case
    backend = MemoryBackend(page_size=256, io_cost=0.0)
    pool = BufferPool(backend, capacity=256, flusher_interval=0)  # nothing is evicted
    tree = BTree(pool, backend.create_space("idx"), schema)
    codec = tree.codec
    inserted, taken = [], []  # taken: (deferred image, node bytes when taken)
    for kind, key, pick in operations:
        if kind == "insert":
            tree.insert(key, RID(pick, pick % 7), 0.0)
            inserted.append(key)
        elif inserted:
            tree.delete(inserted[pick % len(inserted)] if pick % 3 else key, None, 0.0)
        for frame in pool._frames.values():  # every node, split or not
            node = frame.page
            image, encoded = codec.image(node), codec.encode(node)
            assert len(image) == len(encoded) == tree.page_size
            decoded = codec.decode(image)
            assert typed(decoded.keys) == typed(node.keys)
            assert (decoded.values, decoded.children, decoded.next_leaf) == (
                node.values, node.children, node.next_leaf
            )
            taken.append((image, encoded))
    for image, encoded in taken:  # later inserts, deletes and splits left it as it was
        assert bytes(image) == encoded
        assert len(image) == len(bytes(image))
