"""Property-based tests: codecs roundtrip arbitrary valid values, and the
codecs compiled per schema produce exactly the bytes and rows of the
per-column reference implementation kept in this file."""

import struct
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import (
    BTree,
    BufferPool,
    Column,
    ColumnType,
    PageFullError,
    RowCodec,
    Schema,
    SchemaError,
    SlotError,
    SlottedPage,
    char_col,
    float_col,
    int_col,
    make_rid,
    split_rid,
    varchar_col,
)
from repro.db.btree import KeyCodec, _Node

from tests.db.conftest import MemoryBackend

int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# printable text without exotic encodings blowing the length budget
short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)


@settings(max_examples=80, deadline=None)
@given(int64, short_text, short_text, st.floats(allow_nan=False, allow_infinity=False))
def test_row_codec_roundtrip(i, c, v, f):
    schema = Schema(
        [int_col("i"), char_col("c", 12), varchar_col("v", 12), float_col("f")]
    )
    codec = RowCodec(schema)
    decoded = codec.decode(codec.encode((i, c, v, f)))
    assert decoded[0] == i
    assert decoded[1] == c.rstrip(" ")  # CHAR pads with spaces
    assert decoded[2] == v
    assert decoded[3] == f


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(int64, short_text), max_size=30))
def test_key_codec_preserves_tuple_order(pairs):
    schema = Schema([int_col("a"), varchar_col("b", 12)])
    codec = KeyCodec(schema)
    for key in pairs:
        decoded, end = codec.decode(codec.encode(key), 0)
        assert decoded == key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(max_size=24), max_size=12))
def test_slotted_page_roundtrip(records):
    page = SlottedPage(512)
    slots = []
    for record in records:
        if page.fits(record):
            slots.append((page.insert(record), record))
    restored = SlottedPage.from_bytes(page.to_bytes())
    for slot, record in slots:
        assert restored.read(slot) == record
    assert restored.live_records() == len(slots)


# ----------------------------------------------------------------------
# Reference implementation: the per-column encoder/decoder the compiled
# codecs replaced.  One value at a time, dispatched on the column type.
# ----------------------------------------------------------------------
def ref_encode_value(column, value):
    if column.type is ColumnType.INT:
        return struct.pack("<q", value)
    if column.type is ColumnType.FLOAT:
        return struct.pack("<d", float(value))
    raw = value.encode("utf-8")
    assert len(raw) <= column.length
    if column.type is ColumnType.CHAR:
        return raw.ljust(column.length, b" ")
    return struct.pack("<H", len(raw)) + raw


def ref_decode_value(column, data, offset):
    if column.type is ColumnType.INT:
        return struct.unpack_from("<q", data, offset)[0], offset + 8
    if column.type is ColumnType.FLOAT:
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if column.type is ColumnType.CHAR:
        raw = data[offset : offset + column.length]
        return raw.decode("utf-8").rstrip(" "), offset + column.length
    (length,) = struct.unpack_from("<H", data, offset)
    offset += 2
    return data[offset : offset + length].decode("utf-8"), offset + length


def ref_encode_row(schema, row):
    return b"".join(ref_encode_value(c, v) for c, v in zip(schema, row))


def ref_decode_from(schema, data, offset):
    values = []
    for column in schema:
        value, offset = ref_decode_value(column, data, offset)
        values.append(value)
    return tuple(values), offset


def ref_decode_row(schema, data):
    row, end = ref_decode_from(schema, data, 0)
    assert end == len(data)
    return row


def ref_encode_key(schema, key):
    """Keys: INT as <q, any text part length-prefixed and unpadded."""
    parts = []
    for column, value in zip(schema, key):
        if column.type is ColumnType.INT:
            parts.append(struct.pack("<q", value))
        else:
            raw = value.encode("utf-8")
            parts.append(struct.pack("<H", len(raw)) + raw)
    return b"".join(parts)


def ref_encode_node(schema, node, page_size):
    buf = bytearray()
    if node.is_leaf:
        buf += struct.pack("<BHi", 1, len(node.keys), node.next_leaf)
        for key, rid in zip(node.keys, node.values):
            buf += ref_encode_key(schema, key) + struct.pack("<iH", *split_rid(rid))
    else:
        buf += struct.pack("<BH", 2, len(node.keys)) + struct.pack("<i", node.children[0])
        for key, child in zip(node.keys, node.children[1:]):
            buf += ref_encode_key(schema, key) + struct.pack("<i", child)
    assert len(buf) <= page_size
    return bytes(buf.ljust(page_size, b"\x00"))


def ref_page_image(records, page_size):
    buf = bytearray(page_size)
    free_end = page_size
    offsets = []
    for record in records:
        if record is None:
            offsets.append((0, 0))
            continue
        free_end -= len(record)
        buf[free_end : free_end + len(record)] = record
        offsets.append((free_end, len(record)))
    struct.pack_into("<HHH", buf, 0, 0x5350, len(records), free_end)
    for i, (offset, length) in enumerate(offsets):
        struct.pack_into("<HH", buf, 6 + 4 * i, offset, length)
    return bytes(buf)


# ----------------------------------------------------------------------
# Strategies: random schemas and rows that fit them
# ----------------------------------------------------------------------
TEXT = (ColumnType.CHAR, ColumnType.VARCHAR)


def text_for(length):
    """Text of at most ``length`` UTF-8 bytes, often exactly at the limit and
    often non-ASCII (1- to 4-byte characters)."""
    chars = st.sampled_from(["a", "Z", " ", "0", "é", "ß", "€", "日", "𝄞"])

    def fit(parts):
        out = ""
        for ch in parts:
            if len((out + ch).encode("utf-8")) > length:
                break
            out += ch
        return out

    # up to `length` characters: with 1-byte picks this reaches the limit exactly
    return st.lists(chars, max_size=length).map(fit)


def value_for(column):
    if column.type is ColumnType.INT:
        return int64
    if column.type is ColumnType.FLOAT:
        return st.one_of(st.floats(allow_nan=False), st.integers(-(2**53), 2**53))
    return text_for(column.length)


@st.composite
def schema_and_rows(draw, rows=3, patchable=False):
    """Fixed-width prefix (INT/FLOAT/CHAR), 0-2 VARCHARs, and — beyond what
    TPC-C uses — sometimes fixed-width columns after or between them;
    ``patchable`` puts an INT or FLOAT column into the prefix."""
    fixed = st.sampled_from([ColumnType.INT, ColumnType.FLOAT, ColumnType.CHAR])
    kinds = draw(st.lists(fixed, max_size=6))
    if patchable:
        kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(NUMERIC)))
    for __ in range(draw(st.integers(0, 2))):
        kinds.append(ColumnType.VARCHAR)
        kinds += draw(st.lists(fixed, max_size=1))
    if not kinds:
        kinds = [ColumnType.INT]
    columns = [
        Column(f"c{i}", kind, draw(st.integers(1, 12)) if kind in TEXT else 0)
        for i, kind in enumerate(kinds)
    ]
    schema = Schema(columns)
    row = st.tuples(*(value_for(c) for c in columns))
    return schema, draw(st.lists(row, min_size=1, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(schema_and_rows())
def test_compiled_row_codec_equals_reference(case):
    schema, rows = case
    codec = RowCodec(schema)
    for row in rows:
        image = codec.encode(row)
        assert image == ref_encode_row(schema, row)
        assert codec.decode(image) == ref_decode_row(schema, image)
        assert len(image) <= schema.max_row_size
        if schema.fixed_row_size is not None:
            assert len(image) == schema.fixed_row_size


# ----------------------------------------------------------------------
# Column patch: patch(record, values) == encode(updated row), and the values
# it reports == what decode returns for them
# ----------------------------------------------------------------------
NUMERIC = (ColumnType.INT, ColumnType.FLOAT)
#: what a patched column accepts: the 64-bit ends, bools (ints to isinstance),
#: ints into FLOAT up to the largest double, both zeros, nan, the infinities
GOOD = {
    ColumnType.INT: st.one_of(
        int64, st.booleans(), st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
    ),
    ColumnType.FLOAT: st.one_of(
        st.floats(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), 2**1023, -(2**1023), 2**53 + 1]),
    ),
}
#: what encode refuses there: wrong types, and numbers struct cannot pack
BAD = {
    ColumnType.INT: st.sampled_from([2**63, -(2**63) - 1, 10**400, 1.5, "7", None, b"7"]),
    ColumnType.FLOAT: st.sampled_from([10**400, -(10**400), 2**1024, "7.0", None, b"7"]),
}


def patchable_positions(schema):
    """INT/FLOAT columns in front of the first VARCHAR."""
    patchable = []
    for position, column in enumerate(schema.columns):
        if column.type is ColumnType.VARCHAR:
            break
        if column.type in NUMERIC:
            patchable.append(position)
    return patchable


def exact(values):
    """Types and bits: ``True == 1 == 1.0``, ``-0.0 == 0.0``, ``nan != nan``."""
    return [
        (type(v), struct.pack("<d", v) if type(v) is float else v) for v in values
    ]


@st.composite
def patch_case(draw, some_bad):
    """A schema, a stored row, and new values for a random non-empty choice
    (in random order) of its patchable columns: INT/FLOAT before any VARCHAR."""
    schema, (row,) = draw(schema_and_rows(rows=1, patchable=True))
    columns = schema.columns
    positions = draw(
        st.lists(st.sampled_from(patchable_positions(schema)), min_size=1, unique=True)
    )
    bad = set(draw(st.lists(st.sampled_from(positions), min_size=1))) if some_bad else set()
    values = [draw((BAD if p in bad else GOOD)[columns[p].type]) for p in positions]
    return schema, row, positions, values


def updated(row, positions, values):
    out = list(row)
    for position, value in zip(positions, values):
        out[position] = value
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(patch_case(some_bad=False))
def test_patch_equals_encode_of_the_updated_row(case):
    # Killed by: an offset that forgets a CHAR's length or counts the patched
    # column itself, values written in schema order instead of the order
    # given, a reported value left as passed in (bool, int into FLOAT).
    schema, row, positions, values = case
    codec = RowCodec(schema)
    record = codec.encode(row)
    patch = codec.patcher(positions)
    image, decoded = patch(record, values)
    assert image == codec.encode(updated(row, positions, values))
    assert image == ref_encode_row(schema, updated(row, positions, values))
    assert record == codec.encode(row)  # the input is not written to
    fresh = codec.decode(image)
    assert exact(decoded) == exact(fresh[p] for p in positions)
    # the row a page keeps: the old decode with the reported values put in
    assert exact(updated(codec.decode(record), positions, decoded)) == exact(fresh)


@settings(max_examples=300, deadline=None)
@given(patch_case(some_bad=True))
def test_patch_refuses_what_encode_refuses_in_the_same_words(case):
    # Killed by: checks made in the order the values were given (encode
    # reports INT types, then FLOAT types, then INT ranges, then the FLOAT
    # overflow, each in schema order), a struct.error or OverflowError let out.
    schema, row, positions, values = case
    codec = RowCodec(schema)
    record = codec.encode(row)
    with pytest.raises(SchemaError) as expected:
        codec.encode(updated(row, positions, values))
    with pytest.raises(SchemaError) as got:
        codec.patcher(positions)(record, values)
    assert str(got.value) == str(expected.value)


@settings(max_examples=200, deadline=None)
@given(schema_and_rows(rows=1), st.data())
def test_only_numeric_columns_before_the_first_varchar_are_patchable(case, data):
    schema, __ = case
    positions = data.draw(st.lists(st.integers(0, len(schema) - 1), unique=True))
    eligible = bool(positions) and set(positions) <= set(patchable_positions(schema))
    assert (RowCodec(schema).patcher(positions) is not None) == eligible


@st.composite
def key_schema_and_keys(draw, all_int):
    kinds = st.just(ColumnType.INT) if all_int else st.sampled_from([ColumnType.INT, *TEXT])
    columns = [
        Column(f"k{i}", kind, draw(st.integers(1, 8)) if kind in TEXT else 0)
        for i, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=4)))
    ]
    schema = Schema(columns)
    key = st.tuples(*(value_for(c) for c in columns))
    return schema, draw(st.lists(key, max_size=6))


def make_tree(schema):
    backend = MemoryBackend(page_size=512, io_cost=0.0)
    pool = BufferPool(backend, capacity=8, flusher_interval=0)
    return BTree(pool, backend.create_space("idx"), schema)


rids = st.builds(make_rid, st.integers(-(2**31), 2**31 - 1), st.integers(0, 2**16 - 1))
page_nos = st.integers(-(2**31), 2**31 - 1)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda all_int: key_schema_and_keys(all_int)), st.data())
def test_node_images_equal_reference(case, data):
    schema, keys = case
    tree = make_tree(schema)
    codec = KeyCodec(schema)
    for key in keys:
        image = codec.encode(key)
        assert image == ref_encode_key(schema, key)
        assert codec.decode(b"\xff" + image, 1) == (key, 1 + len(image))

    leaf = _Node(is_leaf=True)
    leaf.keys = sorted(keys)
    leaf.values = array("q", [data.draw(rids) for __ in keys])
    leaf.next_leaf = data.draw(page_nos)
    inner = _Node(is_leaf=False)
    inner.keys = sorted(keys)
    inner.children = [data.draw(page_nos) for __ in range(len(keys) + 1)]
    for node in (leaf, inner):
        image = tree.codec.encode(node)
        assert image == ref_encode_node(schema, node, tree.page_size)
        decoded = tree.codec.decode(image)
        assert tree.codec.encode(decoded) == image
        assert decoded.is_leaf == node.is_leaf
        assert decoded.keys == node.keys
        assert decoded.values == node.values
        assert decoded.children == node.children
        assert decoded.next_leaf == node.next_leaf


# ----------------------------------------------------------------------
# All-INT node images: whole-node passes == the per-entry pack and the
# transposing unpack they replaced, kept here as the reference
# ----------------------------------------------------------------------
def ref_pack_entries(entry, keys, tails):
    return [entry.pack(*key, *fields) for key, fields in zip(keys, tails)]


def ref_unpack_entries(entry, arity, data, offset, count):
    columns = list(zip(*entry.iter_unpack(data[offset : offset + count * entry.size])))
    return list(zip(*columns[:arity])), list(zip(*columns[arity:]))


def is_list_of_int_tuples(values):
    return type(values) is list and all(
        type(value) is tuple and all(type(part) is int for part in value) for value in values
    )


@st.composite
def int_key_node_case(draw):
    arity = draw(st.integers(1, 4))
    tree = make_tree(Schema([int_col(f"k{i}") for i in range(arity)]))
    is_leaf = draw(st.booleans())
    capacity = tree.leaf_capacity if is_leaf else tree.inner_capacity
    count = draw(st.one_of(st.sampled_from([0, 1, capacity]), st.integers(0, capacity)))
    # hypothesis shrinks towards 0: name the negative and the 63-bit ends
    part = st.one_of(int64, st.sampled_from([-(2**63), -1, 2**62, 2**63 - 1]))
    keys = draw(st.lists(st.tuples(*[part] * arity), min_size=count, max_size=count))
    return tree, arity, is_leaf, keys


@settings(max_examples=150, deadline=None)
@given(int_key_node_case(), st.data())
def test_int_key_node_passes_equal_per_entry_reference(case, data):
    # Killed by: keys/values yielded as lists or as one flat tuple per entry,
    # pad bytes in the wrong half (keys read the tail's bytes), an encoder
    # that drops or reorders the tail fields, an area slice off by one entry.
    tree, arity, is_leaf, keys = case
    node = _Node(is_leaf=is_leaf)
    node.keys = keys
    if is_leaf:
        node.values = array(
            "q", data.draw(st.lists(rids, min_size=len(keys), max_size=len(keys)))
        )
        node.next_leaf = data.draw(page_nos)
        tails = [split_rid(rid) for rid in node.values]
        entry, tail = struct.Struct("<" + "q" * arity + "iH"), struct.Struct("<iH")
        header = struct.pack("<BHi", 1, len(keys), node.next_leaf)
        structs = tree.codec._leaf_entry
    else:
        node.children = [data.draw(page_nos) for __ in range(len(keys) + 1)]
        tails = [(child,) for child in node.children[1:]]
        entry, tail = struct.Struct("<" + "q" * arity + "i"), struct.Struct("<i")
        header = struct.pack("<BHi", 2, len(keys), node.children[0])
        structs = tree.codec._inner_entry

    expected = ref_pack_entries(entry, keys, tails)
    assert tree.codec._pack_entries(keys, tails, structs, tail) == expected
    image = tree.codec.encode(node)
    assert image == (header + b"".join(expected)).ljust(tree.page_size, b"\x00")

    got_keys, got_tails = tree.codec._unpack_entries(image, len(header), len(keys), structs, tail)
    assert (got_keys, got_tails) == ref_unpack_entries(entry, arity, image, len(header), len(keys))
    assert is_list_of_int_tuples(got_keys) and is_list_of_int_tuples(got_tails)

    decoded = tree.codec.decode(image)
    assert decoded.is_leaf == is_leaf
    assert decoded.keys == keys and is_list_of_int_tuples(decoded.keys)
    if is_leaf:
        assert decoded.values == node.values and type(decoded.values) is array
        assert decoded.next_leaf == node.next_leaf and decoded.children == []
    else:
        assert decoded.children == node.children
        assert all(type(child) is int for child in decoded.children)
        assert len(decoded.values) == 0
    assert tree.codec.encode(decoded) == image


@pytest.mark.parametrize("is_leaf", [True, False], ids=["leaf", "inner"])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_int_key_node_encoder_still_refuses_foreign_keys(arity, is_leaf):
    # Killed by: an encoder that lets the C pass's own error out (struct.error
    # for arity and type, as the per-entry pack raised it) or that pads or
    # truncates a key to the schema's arity.
    tree = make_tree(Schema([int_col(f"k{i}") for i in range(arity)]))
    good = tuple(range(arity))
    foreign = [good[:-1], good + (1,)]
    for spot in range(arity):
        for part in ("7", 7.0, None, 2**63):
            foreign.append(good[:spot] + (part,) + good[spot + 1 :])
    for bad in foreign:
        node = _Node(is_leaf=is_leaf)
        node.keys = [good, bad, good]
        if is_leaf:
            node.values = array("q", [make_rid(1, 2), make_rid(3, 4), make_rid(5, 6)])
        else:
            node.children = [1, 2, 3, 4]
        with pytest.raises(SchemaError):
            tree.codec.encode(node)


# ----------------------------------------------------------------------
# SlottedPage: maintained counters == recount, image == reference image
# ----------------------------------------------------------------------
page_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.binary(max_size=40)),
        st.tuples(st.just("update"), st.integers(0, 20), st.binary(max_size=60)),
        st.tuples(st.just("delete"), st.integers(0, 20)),
        st.tuples(st.just("replace"), st.integers(0, 20), st.integers(0, 255)),
        st.tuples(st.just("roundtrip")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(page_ops)
def test_slotted_page_counters_and_image_match_recount(ops):
    page = SlottedPage(256)
    model: list[bytes | None] = []
    for op in ops:
        live = [i for i, r in enumerate(model) if r is not None]
        if op[0] == "insert":
            try:
                slot = page.insert(op[1])
            except PageFullError:
                continue
            if slot == len(model):
                model.append(op[1])
            else:
                assert model[slot] is None
                model[slot] = op[1]
        elif op[0] == "update" and live:
            slot = live[op[1] % len(live)]
            try:
                page.update(slot, op[2])
            except PageFullError:
                continue
            model[slot] = op[2]
        elif op[0] == "delete" and live:
            slot = live[op[1] % len(live)]
            page.delete(slot)
            model[slot] = None
            while model and model[-1] is None:
                model.pop()
        elif op[0] == "replace" and live:  # same length: nothing to account for
            slot = live[op[1] % len(live)]
            model[slot] = bytes([op[2]]) * len(model[slot])
            page.replace(slot, model[slot], ("row",))
            assert page.read_row(slot, lambda record: pytest.fail("decoded")) == ("row",)
            with pytest.raises(SlotError):
                page.replace(slot, model[slot] + b"!", ("row",))
        elif op[0] == "roundtrip":
            page = SlottedPage.from_bytes(page.to_bytes())

        payload = sum(len(r) for r in model if r is not None)
        assert page._records == model
        assert page._payload == payload
        assert page._empty == model.count(None)
        assert page.live_records() == len(model) - model.count(None)
        assert page.free_space() == 256 - (6 + 4 * len(model) + payload) - 4
        assert page.fits(b"x" * max(0, page.free_space() + 4)) == (None in model)
        image = page.to_bytes()
        assert len(image) == 256
        assert image == ref_page_image(model, 256)


# ----------------------------------------------------------------------
# Drawn schemas: 1-12 columns of any type mix, VARCHARs first, last or
# adjacent; every codec function against the reference
# ----------------------------------------------------------------------
@st.composite
def any_schema(draw, patchable=False):
    """A schema of up to 12 columns, VARCHARs often first, last or paired;
    ``patchable`` adds an INT or FLOAT column ahead of the first VARCHAR."""
    kinds = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=8))
    if draw(st.booleans()):
        kinds.insert(0, ColumnType.VARCHAR)
    if draw(st.booleans()):
        kinds.append(ColumnType.VARCHAR)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(kinds)))
        kinds[at:at] = [ColumnType.VARCHAR, ColumnType.VARCHAR]
    kinds = kinds or [draw(st.sampled_from(list(ColumnType)))]
    if patchable:
        ahead = kinds.index(ColumnType.VARCHAR) if ColumnType.VARCHAR in kinds else len(kinds)
        kinds.insert(draw(st.integers(0, ahead)), draw(st.sampled_from(NUMERIC)))
    return Schema(
        [
            Column(f"c{i}", kind, draw(st.integers(1, 12)) if kind in TEXT else 0)
            for i, kind in enumerate(kinds)
        ]
    )


@st.composite
def any_schema_and_row(draw, patchable=False):
    schema = draw(any_schema(patchable))
    return schema, draw(st.tuples(*(value_for(c) for c in schema)))


@settings(max_examples=300, deadline=None)
@given(any_schema_and_row(), st.binary(max_size=5), st.binary(max_size=5))
def test_drawn_schema_codec_equals_reference(case, before, after):
    schema, row = case
    codec = RowCodec(schema)
    image = codec.encode(row)
    assert image == ref_encode_row(schema, row)
    assert exact(codec.decode(image)) == exact(ref_decode_row(schema, image))
    got, end = codec.decode_from(before + image + after, len(before))
    want, want_end = ref_decode_from(schema, before + image + after, len(before))
    assert (exact(got), end) == (exact(want), want_end) and end == len(before) + len(image)


@settings(max_examples=300, deadline=None)
@given(any_schema_and_row(patchable=True), st.data())
def test_drawn_patcher_equals_reference(case, data):
    schema, row = case
    positions = data.draw(
        st.lists(st.sampled_from(patchable_positions(schema)), min_size=1, unique=True)
    )
    values = [data.draw(GOOD[schema.columns[p].type]) for p in positions]
    codec = RowCodec(schema)
    image, decoded = codec.patcher(positions)(codec.encode(row), values)
    new_row = updated(row, positions, values)
    assert image == ref_encode_row(schema, new_row)
    assert exact(decoded) == exact(ref_decode_row(schema, image)[p] for p in positions)


#: every SchemaError text encode raises, pinned as the row codec has always
#: worded them (and the patcher words its share)
REFUSALS = {
    "arity": "row has {got} values, schema has {want} columns",
    "type": "column {name!r} expects {expected}, got {type}",
    "length": "column {name!r}: value of {size} bytes exceeds {kind}({length})",
    "int range": "column {name!r}: {value} is out of range for INT",
    "float range": "number too large for a FLOAT column",
}


def ref_refusal(schema, row):
    """What encode refuses ``row`` with, or ``None``.  The order: arity; the
    INT types, then the FLOAT types; each CHAR's type and length, then each
    VARCHAR's; the INT ranges; a number too large for a double."""
    columns = schema.columns
    if len(row) != len(columns):
        return REFUSALS["arity"].format(got=len(row), want=len(columns))

    def of(kind):
        return [(c, v) for c, v in zip(columns, row) if c.type is kind]

    def wrong(column, expected, value):
        return REFUSALS["type"].format(name=column.name, expected=expected, type=type(value).__name__)

    for column, value in of(ColumnType.INT):
        if not isinstance(value, int):
            return wrong(column, "int", value)
    for column, value in of(ColumnType.FLOAT):
        if not isinstance(value, (int, float)):
            return wrong(column, "number", value)
    for column, value in of(ColumnType.CHAR) + of(ColumnType.VARCHAR):
        if not isinstance(value, str):
            return wrong(column, "str", value)
        if len(value.encode()) > column.length:
            return REFUSALS["length"].format(
                name=column.name, size=len(value.encode()), kind=column.type.value.upper(),
                length=column.length,
            )
    for column, value in of(ColumnType.INT):
        if not -(2**63) <= value < 2**63:
            return REFUSALS["int range"].format(name=column.name, value=value)
    for column, value in of(ColumnType.FLOAT):
        try:
            float(value)
        except OverflowError:
            return REFUSALS["float range"]
    return None


class Text(str):
    """A ``str`` subclass: text columns accept it."""


def foreign_value(column):
    """Values encode refuses in ``column`` (wrong type, too long, out of
    range), or accepts though they are not of the column's own type."""
    if column.type is ColumnType.INT:
        return st.sampled_from(["7", 1.5, None, b"7", 2**63, -(2**63) - 1, True, False])
    if column.type is ColumnType.FLOAT:
        return st.sampled_from(["7.0", None, b"7", 10**400, -(10**400), True, 2**70])
    return st.one_of(
        st.sampled_from([b"ab", 5, None, 1.0, "x" * (column.length + 1), "é" * column.length]),
        text_for(column.length).map(Text),
    )


@settings(max_examples=400, deadline=None)
@given(any_schema_and_row(), st.data())
def test_drawn_invalid_rows_are_refused_as_the_reference_says(case, data):
    schema, row = case
    values = list(row)
    for position in data.draw(st.lists(st.integers(0, len(values) - 1), max_size=3)):
        values[position] = data.draw(foreign_value(schema.columns[position]))
    values = values[: data.draw(st.sampled_from([len(values), len(values), len(values) - 1]))]
    values += data.draw(st.lists(st.integers(), max_size=1))
    codec = RowCodec(schema)
    refusal = ref_refusal(schema, tuple(values))
    if refusal is None:
        assert codec.encode(tuple(values)) == ref_encode_row(schema, values)
    else:
        with pytest.raises(SchemaError) as refused:
            codec.encode(tuple(values))
        assert str(refused.value) == refusal


PINNED_SCHEMA = Schema([int_col("i"), float_col("f"), char_col("c", 4), varchar_col("v", 4)])


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ((1, 1.0, "a"), "row has 3 values, schema has 4 columns"),
        (("1", 1.0, "a", "b"), "column 'i' expects int, got str"),
        ((1, "1", "a", "b"), "column 'f' expects number, got str"),
        ((1, 1.0, b"a", "b"), "column 'c' expects str, got bytes"),
        ((1, 1.0, "a", 5), "column 'v' expects str, got int"),
        ((1, 1.0, "abcde", "b"), "column 'c': value of 5 bytes exceeds CHAR(4)"),
        ((1, 1.0, "a", "ééé"), "column 'v': value of 6 bytes exceeds VARCHAR(4)"),
        ((2**63, 1.0, "a", "b"), "column 'i': 9223372036854775808 is out of range for INT"),
        ((1, 10**400, "a", "b"), "number too large for a FLOAT column"),
        ((2**63, 10**400, "abcde", 5), "column 'c': value of 5 bytes exceeds CHAR(4)"),
    ],
)
def test_refusal_messages_are_pinned(row, message):
    with pytest.raises(SchemaError) as refused:
        RowCodec(PINNED_SCHEMA).encode(row)
    assert str(refused.value) == message
    assert ref_refusal(PINNED_SCHEMA, row) == message


def test_str_subclass_and_bool_are_accepted():
    codec = RowCodec(PINNED_SCHEMA)
    image = codec.encode((True, False, Text("ab"), Text("é")))
    assert image == ref_encode_row(PINNED_SCHEMA, (1, 0.0, "ab", "é"))
    assert codec.decode(image) == (1, 0.0, "ab", "é")
