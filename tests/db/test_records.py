"""Unit tests for schemas and the row codec."""

import struct

import pytest

from repro.db import Column, ColumnType, RowCodec, Schema, SchemaError, char_col, float_col, int_col, varchar_col


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
