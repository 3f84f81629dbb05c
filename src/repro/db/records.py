"""Row schemas and the record codec.

Tables declare a :class:`Schema` of typed columns; :class:`RowCodec`
serialises rows to the byte strings stored in slotted pages and back.
Supported column types mirror what TPC-C needs:

* ``INT`` — signed 64-bit integer;
* ``FLOAT`` — IEEE double (TPC-C amounts; exactness is not exercised);
* ``CHAR(n)`` — fixed-length text, space-padded;
* ``VARCHAR(n)`` — variable-length text with a 2-byte length prefix.

Rows with only fixed-width columns serialise to a fixed size, which the
heap layer exploits for capacity estimates.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any, TypeAlias

#: A table row: column values in schema order.  Rows are heterogeneous by
#: construction (an INT/FLOAT/CHAR/VARCHAR mix), so the element type is
#: ``Any``; :class:`RowCodec` validates per-column types at the
#: serialisation boundary, which is where a wrong value can corrupt data.
Row: TypeAlias = tuple[Any, ...]

#: An index key: the indexed columns' values, compared lexicographically.
#: Structurally identical to :data:`Row` but kept as a separate name so
#: signatures say which of the two they mean.
Key: TypeAlias = tuple[Any, ...]


class SchemaError(Exception):
    """Invalid schema definition or row value."""


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    CHAR = "char"
    VARCHAR = "varchar"


@dataclass(frozen=True)
class Column:
    """One column: name, type and (for text types) length limit."""

    name: str
    type: ColumnType
    length: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.type in (ColumnType.CHAR, ColumnType.VARCHAR) and self.length <= 0:
            raise SchemaError(f"column {self.name!r}: text types need a positive length")

    @property
    def fixed_size(self) -> int | None:
        """Serialized size in bytes if fixed-width, else ``None``."""
        if self.type is ColumnType.INT:
            return 8
        if self.type is ColumnType.FLOAT:
            return 8
        if self.type is ColumnType.CHAR:
            return self.length
        return None

    @property
    def max_size(self) -> int:
        """Largest possible serialized size in bytes."""
        if self.type is ColumnType.VARCHAR:
            return 2 + self.length
        size = self.fixed_size
        assert size is not None
        return size


def int_col(name: str) -> Column:
    """Shorthand for an INT column."""
    return Column(name, ColumnType.INT)


def float_col(name: str) -> Column:
    """Shorthand for a FLOAT column."""
    return Column(name, ColumnType.FLOAT)


def char_col(name: str, length: int) -> Column:
    """Shorthand for a CHAR(length) column."""
    return Column(name, ColumnType.CHAR, length)


def varchar_col(name: str, length: int) -> Column:
    """Shorthand for a VARCHAR(length) column."""
    return Column(name, ColumnType.VARCHAR, length)


class Schema:
    """An ordered set of columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("schema needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def position(self, name: str) -> int:
        """Index of column ``name`` in the row tuple."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def column(self, name: str) -> Column:
        """Column definition by name."""
        return self.columns[self.position(name)]

    def project(self, names: list[str]) -> "Schema":
        """Sub-schema of the named columns (in the given order)."""
        return Schema([self.column(n) for n in names])

    @property
    def max_row_size(self) -> int:
        """Largest serialized row size in bytes."""
        return sum(c.max_size for c in self.columns)

    @property
    def fixed_row_size(self) -> int | None:
        """Serialized row size if all columns are fixed-width, else ``None``."""
        total = 0
        for c in self.columns:
            size = c.fixed_size
            if size is None:
                return None
            total += size
        return total


#: ``struct`` format of each fixed-width column type (CHAR takes its length).
_FIXED_FORMATS = {ColumnType.INT: "q", ColumnType.FLOAT: "d", ColumnType.CHAR: "{}s"}
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1
_VARCHAR_LENGTH = struct.Struct("<H")


def _encode_text(column: Column, value: object) -> bytes:
    """UTF-8 bytes of a text value, checked against the column's length."""
    if not isinstance(value, str):
        raise _type_error(column, "str", value)
    raw = value.encode()
    if len(raw) > column.length:
        raise SchemaError(
            f"column {column.name!r}: value of {len(raw)} bytes exceeds "
            f"{column.type.value.upper()}({column.length})"
        )
    return raw


def _type_error(column: Column, expected: str, value: object) -> SchemaError:
    return SchemaError(f"column {column.name!r} expects {expected}, got {type(value).__name__}")


def _pack_error(int_values: Iterable[tuple[Column, int]]) -> SchemaError:
    """Why ``struct`` refused numbers that passed the type checks: the first
    INT value (of ``int_values``, in schema order) outside 64 bits, else an
    integer too large for a double."""
    for column, value in int_values:
        if not _INT_MIN <= value <= _INT_MAX:
            return SchemaError(f"column {column.name!r}: {value} is out of range for INT")
    return SchemaError("number too large for a FLOAT column")


#: ``patch(record, values) -> (patched record, values as they decode)``
Patcher: TypeAlias = Callable[[bytes, Sequence[Any]], tuple[bytes, list[Any]]]


class RowCodec:
    """Serialises rows (tuples, schema order) to bytes and back.

    The codec is compiled once from the schema.  A row image is a sequence
    of fixed-width runs (INT/FLOAT/CHAR columns), each packed through one
    precompiled :class:`struct.Struct`, separated by length-prefixed
    VARCHAR values; validation walks precomputed column positions per
    type.  No value is dispatched on its column type at run time.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        columns = schema.columns
        positions = {
            kind: [i for i, c in enumerate(columns) if c.type is kind] for kind in ColumnType
        }
        self._int_positions = positions[ColumnType.INT]
        self._float_positions = positions[ColumnType.FLOAT]
        self._char_positions = positions[ColumnType.CHAR]
        self._varchar_positions = positions[ColumnType.VARCHAR]
        #: ``(struct of columns [start, stop), start, stop)``; the column at
        #: ``stop``, if there is one, is the VARCHAR that follows the run
        self._runs: list[tuple[struct.Struct, int, int]] = []
        start = 0
        for stop in self._varchar_positions + [len(columns)]:
            formats = (_FIXED_FORMATS[c.type].format(c.length) for c in columns[start:stop])
            self._runs.append((struct.Struct("<" + "".join(formats)), start, stop))
            start = stop + 1

    def encode(self, row: Row) -> bytes:
        """Serialise ``row``; validates arity, types and text lengths."""
        columns = self.schema.columns
        if len(row) != len(columns):
            raise SchemaError(f"row has {len(row)} values, schema has {len(columns)} columns")
        values = list(row)
        for i in self._int_positions:
            if not isinstance(values[i], int):
                raise _type_error(columns[i], "int", values[i])
        for i in self._float_positions:
            if not isinstance(values[i], (int, float)):
                raise _type_error(columns[i], "number", values[i])
        for i in self._char_positions:
            # struct's "s" pads with NULs; CHAR pads with spaces
            values[i] = _encode_text(columns[i], values[i]).ljust(columns[i].length)
        for i in self._varchar_positions:
            raw = _encode_text(columns[i], values[i])
            values[i] = _VARCHAR_LENGTH.pack(len(raw)) + raw
        parts: list[bytes] = []
        try:
            for run, start, stop in self._runs:
                parts.append(run.pack(*values[start:stop]))
                parts += values[stop : stop + 1]
        except (struct.error, OverflowError):
            raise _pack_error((columns[i], values[i]) for i in self._int_positions) from None
        return b"".join(parts)

    def patcher(self, positions: Sequence[int]) -> Patcher | None:
        """Compile an update of the columns at ``positions`` done in the
        row image, or ``None`` where the image cannot be patched.

        Patchable are INT and FLOAT columns in front of the first VARCHAR:
        their bytes sit at an offset the schema fixes, so writing them
        changes neither the record's length nor any other column.
        ``patch(record, values)`` takes one value per position and returns
        the image :meth:`encode` would produce for the row so updated,
        with the values as :meth:`decode` would return them (an ``int``
        for INT, a ``float`` for FLOAT).  It makes the checks ``encode``
        makes on those columns, in its order and with its messages, before
        anything is written; ``record`` itself is never modified.
        """
        columns = self.schema.columns
        fixed = self._varchar_positions[0] if self._varchar_positions else len(columns)
        if not positions or not all(0 <= p < fixed for p in positions):
            return None
        kinds = [columns[p].type for p in positions]
        if not all(kind in (ColumnType.INT, ColumnType.FLOAT) for kind in kinds):
            return None
        # (column position, index into values), in the order encode checks them
        ints = sorted((p, i) for i, p in enumerate(positions) if kinds[i] is ColumnType.INT)
        floats = sorted((p, i) for i, p in enumerate(positions) if kinds[i] is ColumnType.FLOAT)
        packers = [struct.Struct("<" + _FIXED_FORMATS[kind]).pack_into for kind in kinds]
        offsets = [sum(c.max_size for c in columns[:p]) for p in positions]
        decoded_as = [int if kind is ColumnType.INT else float for kind in kinds]

        def patch(record: bytes, values: Sequence[Any]) -> tuple[bytes, list[Any]]:
            for p, i in ints:
                if not isinstance(values[i], int):
                    raise _type_error(columns[p], "int", values[i])
            for p, i in floats:
                if not isinstance(values[i], (int, float)):
                    raise _type_error(columns[p], "number", values[i])
            image = bytearray(record)
            try:
                for pack_into, offset, value in zip(packers, offsets, values, strict=True):
                    pack_into(image, offset, value)
            except (struct.error, OverflowError):
                raise _pack_error((columns[p], values[i]) for p, i in ints) from None
            return bytes(image), [convert(v) for convert, v in zip(decoded_as, values)]

        return patch

    def decode(self, data: bytes) -> Row:
        """Inverse of :meth:`encode`."""
        row, end = self.decode_from(data, 0)
        if end != len(data):
            raise SchemaError(f"trailing {len(data) - end} bytes after decoding row")
        return row

    def decode_from(self, data: bytes, offset: int) -> tuple[Row, int]:
        """Decode one row image starting at ``offset``; returns (row, end)."""
        values: list[Any] = []
        arity = len(self.schema.columns)
        try:
            for run, __, stop in self._runs:
                values += run.unpack_from(data, offset)
                offset += run.size
                if stop < arity:
                    (length,) = _VARCHAR_LENGTH.unpack_from(data, offset)
                    offset += 2 + length
                    values.append(data[offset - length : offset].decode())
        except struct.error:
            raise SchemaError(f"record of {len(data)} bytes is truncated") from None
        for i in self._char_positions:
            values[i] = values[i].decode().rstrip(" ")
        return tuple(values), offset
