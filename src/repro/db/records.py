"""Row schemas and the record codec.

Tables declare a :class:`Schema` of typed columns; :class:`RowCodec`
serialises rows to the byte strings stored in slotted pages and back.
Supported column types mirror what TPC-C needs:

* ``INT`` — signed 64-bit integer;
* ``FLOAT`` — IEEE double (TPC-C amounts; exactness is not exercised);
* ``CHAR(n)`` — fixed-length text, space-padded;
* ``VARCHAR(n)`` — variable-length text with a 2-byte length prefix.

Rows with only fixed-width columns serialise to a fixed size, which the
heap layer exploits for capacity estimates.  Each schema's codec is
generated once, as Python source built from its column list.
"""

from __future__ import annotations

import enum
import functools
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


def _type_error(column: Column, expected: str, value: object) -> SchemaError:
    return SchemaError(f"column {column.name!r} expects {expected}, got {type(value).__name__}")


def _length_error(column: Column, raw: bytes) -> SchemaError:
    return SchemaError(
        f"column {column.name!r}: value of {len(raw)} bytes exceeds "
        f"{column.type.value.upper()}({column.length})"
    )


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
#: encode's type check of the INT / FLOAT value ``v{i}`` of column ``c[{p}]``
_NUMERIC_CHECKS = {
    ColumnType.INT: "if not isinstance(v{i}, int): raise _type_error(c[{p}], 'int', v{i})",
    ColumnType.FLOAT: "if not isinstance(v{i}, _NUMBER): raise _type_error(c[{p}], 'number', v{i})",
}
_NUMBER = (int, float)
_TRUNCATED = "raise SchemaError(f'record of {len(data)} bytes is truncated')"


def _generate(env: dict[str, Any], *functions: tuple[str, list[str]]) -> list[Any]:
    """Each ``(signature, body)`` compiled as ``def signature: body``, the
    way :mod:`dataclasses` builds ``__init__``, with this module's globals and
    ``env`` (the columns ``c``, structs) as its globals.  The functions are
    popped from that namespace, so they and it form no reference cycle."""
    namespace = {**globals(), **env}
    for signature, body in functions:
        source = f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, f"<RowCodec.{signature}>", "exec"), namespace)
    return [namespace.pop(signature.partition("(")[0]) for signature, __ in functions]


@functools.lru_cache(maxsize=256)
def _compile(columns: tuple[Column, ...]) -> list[Any]:
    """``[encode, decode, decode_from]`` for rows of ``columns``: column ``i``
    is the local ``v{i}``, a fixed-width run between VARCHARs one ``pack`` /
    ``unpack_from``.  Cached: once per schema where many databases are
    built, and bounded where tests draw thousands of schemas."""
    n = len(columns)
    by_type = {kind: [i for i, c in enumerate(columns) if c.type is kind] for kind in ColumnType}
    env: dict[str, Any] = {"c": columns}
    runs: list[tuple[int, int, int, int]] = []  # (k, size, start, stop): VARCHAR at stop
    start = 0
    for k, stop in enumerate(by_type[ColumnType.VARCHAR] + [n]):
        formats = (_FIXED_FORMATS[c.type].format(c.length) for c in columns[start:stop])
        run = struct.Struct("<" + "".join(formats))
        env[f"pack{k}"], env[f"unpack{k}"] = run.pack, run.unpack_from
        runs.append((k, run.size, start, stop))
        start = stop + 1

    arity = f"raise SchemaError(f'row has {{len(row)}} values, schema has {n} columns')"
    encode = [f"if len(row) != {n}: {arity}", "".join(f"v{i}, " for i in range(n)) + "= row"]
    # INTs, FLOATs, CHARs, VARCHARs, each in schema order
    for i in by_type[ColumnType.INT] + by_type[ColumnType.FLOAT]:
        encode.append(_NUMERIC_CHECKS[columns[i].type].format(i=i, p=i))
    for i in by_type[ColumnType.CHAR] + by_type[ColumnType.VARCHAR]:
        encode += [
            f"if not isinstance(v{i}, str): raise _type_error(c[{i}], 'str', v{i})",
            f"v{i} = v{i}.encode()",
            f"if len(v{i}) > {columns[i].length}: raise _length_error(c[{i}], v{i})",
        ]
        if columns[i].type is ColumnType.VARCHAR:
            encode.append(f"h{i} = _VARCHAR_LENGTH.pack(len(v{i}))")
    parts: list[str] = []
    for k, size, start, stop in runs:
        if size:  # struct's "s" pads with NULs, CHAR with spaces
            args = (
                f"v{i}.ljust({c.length})" if c.type is ColumnType.CHAR else f"v{i}"
                for i, c in enumerate(columns[start:stop], start)
            )
            parts.append(f"pack{k}({', '.join(args)})")
        if stop < n:
            parts += [f"h{stop}", f"v{stop}"]
    ints = "".join(f"(c[{i}], v{i}), " for i in by_type[ColumnType.INT])
    encode += [
        f"try: return {' + '.join(parts)}",
        f"except (struct.error, OverflowError): raise _pack_error(({ints})) from None",
    ]

    def unpack(base: str) -> tuple[list[str], str]:
        """Lines unpacking the image at ``base`` into the locals, and its end."""
        lines, at = ["try:"], 0
        for k, size, start, stop in runs:
            if size:
                names = "".join(f"v{i}, " for i in range(start, stop))
                lines.append(f"    {names}= unpack{k}(data, {base} + {at})")
                at += size
            if stop < n:
                lines += [
                    f"    length, = _VARCHAR_LENGTH.unpack_from(data, {base} + {at})",
                    f"    offset = {base} + {at + 2} + length",
                    f"    v{stop} = data[offset - length:offset].decode()",
                ]
                base, at = "offset", 0
        if columns[-1].type is ColumnType.VARCHAR:  # no unpack after it to see a cut
            lines.append(f"    if offset > len(data): {_TRUNCATED}")
        return lines + [f"except struct.error: {_TRUNCATED} from None"], f"{base} + {at}"

    row = "".join(
        f"v{i}.decode().rstrip(' '), " if c.type is ColumnType.CHAR else f"v{i}, "
        for i, c in enumerate(columns)
    )
    decode, end = unpack("0")
    trailing = "raise SchemaError(f'trailing {len(data) - end} bytes after decoding row')"
    decode += [f"row, end = ({row}), {end}", f"if end != len(data): {trailing}", "return row"]
    decode_from, end = unpack("offset")
    decode_from.append(f"return ({row}), {end}")
    signatures = ("encode(row)", "decode(data)", "decode_from(data, offset)")
    return _generate(env, *zip(signatures, (encode, decode, decode_from)))


@functools.lru_cache(maxsize=256)
def _compile_patcher(columns: tuple[Column, ...], positions: tuple[int, ...]) -> Patcher | None:
    """:meth:`RowCodec.patcher` for rows of ``columns``."""
    kinds = [c.type for c in columns]
    fixed = kinds.index(ColumnType.VARCHAR) if ColumnType.VARCHAR in kinds else len(kinds)
    if not positions or not all(0 <= p < fixed for p in positions):
        return None
    kinds = [kinds[p] for p in positions]
    if not all(kind in _NUMERIC_CHECKS for kind in kinds):
        return None
    # (column position, index into values), in the order encode checks them
    ints = sorted((p, i) for i, p in enumerate(positions) if kinds[i] is ColumnType.INT)
    floats = sorted((p, i) for i, p in enumerate(positions) if kinds[i] is ColumnType.FLOAT)
    body = ["".join(f"v{i}, " for i in range(len(positions))) + "= values"]
    body += [_NUMERIC_CHECKS[kinds[i]].format(i=i, p=p) for p, i in ints + floats]
    body += ["image = bytearray(record)", "try:"]
    env: dict[str, Any] = {"c": columns}
    for i, (p, kind) in enumerate(zip(positions, kinds)):
        env[f"pack{i}"] = struct.Struct("<" + _FIXED_FORMATS[kind]).pack_into
        body.append(f"    pack{i}(image, {sum(c.max_size for c in columns[:p])}, v{i})")
    pairs = "".join(f"(c[{p}], v{i}), " for p, i in ints)
    decoded = ", ".join(
        f"int(v{i})" if kind is ColumnType.INT else f"float(v{i})" for i, kind in enumerate(kinds)
    )
    body += [
        f"except (struct.error, OverflowError): raise _pack_error(({pairs})) from None",
        f"return bytes(image), [{decoded}]",
    ]
    patch: Patcher
    (patch,) = _generate(env, ("patch(record, values)", body))
    return patch


class RowCodec:
    """Serialises rows (tuples, schema order) to bytes and back.

    :attr:`encode`, :attr:`decode`, :attr:`decode_from` and each
    :meth:`patcher` are straight-line functions generated per schema and
    cached by ``tuple(schema.columns)``: a fixed-width run of columns is
    one ``pack`` / ``unpack_from``, a check one ``if``, and per row no
    loop runs, no list is built and no value is dispatched on its type.
    """

    #: ``encode(row) -> record``; validates arity, types and text lengths
    encode: Callable[[Row], bytes]
    #: ``decode(record) -> row``, the inverse of :attr:`encode`
    decode: Callable[[bytes], Row]
    #: ``decode_from(data, offset) -> (row, end)``: one row image at ``offset``
    decode_from: Callable[[bytes, int], tuple[Row, int]]

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.encode, self.decode, self.decode_from = _compile(tuple(schema.columns))

    def patcher(self, positions: Sequence[int]) -> Patcher | None:
        """The update of the columns at ``positions`` done in the row
        image, or ``None`` where the image cannot be patched.

        Patchable are INT and FLOAT columns in front of the first VARCHAR:
        their bytes sit at an offset the schema fixes, so writing them
        changes neither the record's length nor any other column.
        ``patch(record, values)`` takes one value per position and returns
        the image :attr:`encode` would produce for the row so updated,
        with the values as :attr:`decode` would return them (an ``int``
        for INT, a ``float`` for FLOAT).  It makes the checks ``encode``
        makes on those columns, in its order and with its messages, before
        anything is written; ``record`` itself is never modified.
        """
        return _compile_patcher(tuple(self.schema.columns), tuple(positions))
