"""Unit tests for schemas and the row codec."""

import struct

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    RowCodec,
    Schema,
    SchemaError,
    char_col,
    float_col,
    int_col,
    varchar_col,
)
from repro.db.btree import KeyCodec
from repro.db.records import _compile, _compile_patcher
from repro.tpcc.schema import TABLE_SCHEMAS, create_schema

from tests.db.conftest import MemoryBackend


def sample_schema():
    return Schema(
        [
            int_col("id"),
            char_col("code", 4),
            varchar_col("name", 16),
            float_col("amount"),
        ]
    )


class TestSchema:
    def test_column_positions(self):
        s = sample_schema()
        assert s.position("id") == 0
        assert s.position("amount") == 3

    def test_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            sample_schema().position("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([int_col("a"), int_col("a")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_text_columns_need_length(self):
        with pytest.raises(SchemaError):
            Column("c", ColumnType.CHAR)

    def test_fixed_row_size(self):
        fixed = Schema([int_col("a"), char_col("b", 10)])
        assert fixed.fixed_row_size == 18
        assert sample_schema().fixed_row_size is None

    def test_max_row_size(self):
        assert sample_schema().max_row_size == 8 + 4 + (2 + 16) + 8

    def test_project(self):
        sub = sample_schema().project(["name", "id"])
        assert [c.name for c in sub] == ["name", "id"]


class TestRowCodec:
    def test_roundtrip(self):
        codec = RowCodec(sample_schema())
        row = (42, "ab", "hello world", 3.25)
        assert codec.decode(codec.encode(row)) == row

    def test_char_padding_stripped(self):
        codec = RowCodec(Schema([char_col("c", 8)]))
        assert codec.decode(codec.encode(("hi",))) == ("hi",)

    def test_empty_strings(self):
        codec = RowCodec(Schema([char_col("c", 4), varchar_col("v", 4)]))
        assert codec.decode(codec.encode(("", ""))) == ("", "")

    def test_negative_and_large_ints(self):
        codec = RowCodec(Schema([int_col("i")]))
        for value in (-(2**62), -1, 0, 2**62):
            assert codec.decode(codec.encode((value,))) == (value,)

    def test_arity_mismatch_rejected(self):
        codec = RowCodec(sample_schema())
        with pytest.raises(SchemaError):
            codec.encode((1, "ab"))

    def test_type_mismatch_rejected(self):
        codec = RowCodec(Schema([int_col("i")]))
        with pytest.raises(SchemaError):
            codec.encode(("not an int",))

    def test_overlong_text_rejected(self):
        codec = RowCodec(Schema([char_col("c", 2)]))
        with pytest.raises(SchemaError):
            codec.encode(("toolong",))

    def test_int_accepted_for_float_column(self):
        codec = RowCodec(Schema([float_col("f")]))
        assert codec.decode(codec.encode((3,))) == (3.0,)

    def test_trailing_bytes_detected(self):
        codec = RowCodec(Schema([int_col("i")]))
        with pytest.raises(SchemaError):
            codec.decode(codec.encode((1,)) + b"junk")

    def test_unicode_varchar(self):
        codec = RowCodec(Schema([varchar_col("v", 12)]))
        assert codec.decode(codec.encode(("héllo",))) == ("héllo",)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize(
        "columns",
        [
            [int_col("i"), char_col("c", 4)],
            [varchar_col("v", 4), int_col("i"), char_col("c", 4)],  # INT after a VARCHAR
        ],
    )
    def test_out_of_range_int_is_a_schema_error(self, columns, value):
        codec = RowCodec(Schema(columns))
        row = tuple(value if c.type is ColumnType.INT else "ab" for c in columns)
        with pytest.raises(SchemaError, match="'i'.*out of range"):
            codec.encode(row)

    def test_int_limits_roundtrip(self):
        codec = RowCodec(Schema([int_col("lo"), int_col("hi")]))
        row = (-(2**63), 2**63 - 1)
        assert codec.decode(codec.encode(row)) == row

    def test_huge_int_in_float_column_is_a_schema_error(self):
        codec = RowCodec(Schema([float_col("f")]))
        with pytest.raises(SchemaError):
            codec.encode((10**400,))

    def test_truncated_record_detected(self):
        codec = RowCodec(sample_schema())
        image = codec.encode((42, "ab", "hello world", 3.25))
        for cut in (3, 11, 13, len(image) - 1):
            with pytest.raises(SchemaError):
                codec.decode(image[:cut])

    def test_image_layout(self):
        # the on-flash format: <q, space-padded CHAR, <H-prefixed VARCHAR, <d
        codec = RowCodec(sample_schema())
        assert codec.encode((1, "ab", "xyz", 0.5)) == (
            (1).to_bytes(8, "little") + b"ab  " + b"\x03\x00xyz" + struct.pack("<d", 0.5)
        )

    def test_varchar_between_fixed_columns(self):
        schema = Schema(
            [varchar_col("a", 5), int_col("i"), varchar_col("b", 5), varchar_col("c", 5), char_col("d", 3)]
        )
        codec = RowCodec(schema)
        row = ("", 7, "héé", "", "z")
        assert codec.decode(codec.encode(row)) == row

    def test_non_str_text_rejected(self):
        codec = RowCodec(Schema([char_col("c", 4), varchar_col("v", 4)]))
        with pytest.raises(SchemaError):
            codec.encode((b"ab", "x"))
        with pytest.raises(SchemaError):
            codec.encode(("ab", 5))

    def test_bool_counts_as_int(self):
        codec = RowCodec(Schema([int_col("i"), float_col("f")]))
        assert codec.decode(codec.encode((True, False))) == (1, 0.0)


def valid_row(schema, text="hello world"):
    """A row of ``schema``: 1 for INT, 1.5 for FLOAT, ``text`` cut to fit."""
    values = {ColumnType.INT: 1, ColumnType.FLOAT: 1.5}
    return tuple(values.get(c.type, text[: c.length]) for c in schema)


#: schemas whose last column is a VARCHAR: a cut in it leaves no field
#: after the text whose unpack could run past the end
ENDS_IN_VARCHAR = {
    "int-varchar": Schema([int_col("i"), varchar_col("v", 16)]),
    "varchar-varchar": Schema([varchar_col("u", 16), varchar_col("v", 16)]),
    **{name: TABLE_SCHEMAS[name] for name in ("CUSTOMER", "ITEM", "STOCK")},
}


class TestTruncatedLastVarchar:
    @pytest.fixture(params=list(ENDS_IN_VARCHAR))
    def codec_and_image(self, request):
        codec = RowCodec(ENDS_IN_VARCHAR[request.param])
        return codec, codec.encode(valid_row(codec.schema))

    @pytest.mark.parametrize("cut", [1, 4, 11])
    def test_decode_refuses_a_cut_in_the_last_varchar(self, codec_and_image, cut):
        codec, image = codec_and_image
        data = image[:-cut]
        with pytest.raises(SchemaError, match=f"^record of {len(data)} bytes is truncated$"):
            codec.decode(data)

    @pytest.mark.parametrize("offset", [0, 3])
    @pytest.mark.parametrize("cut", [1, 4, 11])
    def test_decode_from_refuses_a_cut_in_the_last_varchar(self, codec_and_image, cut, offset):
        codec, image = codec_and_image
        data = b"\xff" * offset + image[:-cut]
        with pytest.raises(SchemaError, match=f"^record of {len(data)} bytes is truncated$"):
            codec.decode_from(data, offset)
        assert codec.decode_from(b"\xff" * offset + image, offset) == (
            codec.decode(image), offset + len(image)
        )

    @pytest.mark.parametrize("columns", [[int_col("a"), varchar_col("b", 12)],
                                         [int_col("a"), char_col("b", 12)]])
    @pytest.mark.parametrize("offset", [0, 3])
    def test_key_codec_refuses_a_cut_in_its_text_part(self, columns, offset):
        codec = KeyCodec(Schema(columns))
        data = b"\xff" * offset + codec.encode((1, "hello world"))[:-4]
        with pytest.raises(SchemaError, match=f"^record of {len(data)} bytes is truncated$"):
            codec.decode(data, offset)

    def test_the_cut_is_found_by_a_bound_check_not_by_a_failed_unpack(self, codec_and_image):
        # the compiled decoder compares the end with the data's length
        # itself; no struct.error is raised under the SchemaError
        codec, image = codec_and_image
        with pytest.raises(SchemaError) as refused:
            codec.decode_from(image[:-4], 0)
        assert refused.value.__context__ is None


def test_three_tpcc_databases_compile_each_distinct_schema_once():
    # 34 databases of ~20 codecs each in the chaos workload: compiling the
    # source per codec instead of per schema costs seconds of host time
    _compile.cache_clear()
    _compile_patcher.cache_clear()
    for __ in range(3):
        db = Database(MemoryBackend(page_size=4096, io_cost=0.0), buffer_pages=64)
        create_schema(db)
        db.table("STOCK").info.heap.codec.patcher([2, 13])  # s_quantity, s_ytd
    stored_keys = {  # a key stores its text parts as VARCHARs
        tuple(
            c if c.type is ColumnType.INT else varchar_col(c.name, c.length)
            for c in index.btree.codec.keys.schema
        )
        for index in db.catalog.indexes()
    }
    distinct = {tuple(info.schema.columns) for info in db.catalog.tables()} | stored_keys
    codecs = len(db.catalog.tables()) + len(db.catalog.indexes())
    assert _compile.cache_info().misses == len(distinct)
    assert _compile.cache_info().hits == 3 * codecs - len(distinct)
    assert _compile_patcher.cache_info()[:2] == (2, 1)  # hits, misses
