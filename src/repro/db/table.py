"""Table access layer: heap operations with automatic index maintenance.

:class:`Table` is what workloads use.  Every mutation keeps the table's
secondary indexes consistent — inserts add entries, deletes remove them,
and updates fix exactly the indexes whose key columns changed (or all of
them when the record had to move to a new RID).

A mutation touches the row's heap page once (see :mod:`repro.db.heap`):
an update or delete learns the old row, which its index maintenance
needs, from its own write, not from a read before it.  A transaction
that reads a row and then updates it — TPC-C's STOCK, WAREHOUSE,
DISTRICT, CUSTOMER, ORDER and ORDERLINE — pays two touches, as
Shore-Kits' ``probe_forupdate`` + ``update_tuple`` does.  The redo record
carries the new image, so it is appended after the touch, as an engine
logs under the page latch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import itemgetter
from typing import Any, TypeAlias

from repro.db.catalog import IndexInfo, TableInfo
from repro.db.heap import RID, Change, replace_row
from repro.db.records import Key, Patcher, Row, Schema
from repro.db.wal import LogRecordType, WriteAheadLog


class TableError(Exception):
    """Invalid table operation."""


#: An index with its ``row -> key`` function.
_KeyedIndex: TypeAlias = tuple[IndexInfo, Callable[[Row], Key]]

#: How :meth:`Table.update_columns` applies one set of column names: the
#: :data:`~repro.db.heap.Change` that takes the call's values, built once
#: (:func:`_column_change`), and the indexes it may move an entry of.
_ColumnPlan: TypeAlias = tuple[Change, list[_KeyedIndex]]


def _column_change(
    positions: list[int], patch: Patcher | None, encode: Callable[[Row], bytes]
) -> Change:
    """The change that sets the columns at ``positions`` to a call's
    values: by ``patch`` when the codec has one, else by re-encoding."""

    def change(old: Row, stored: bytes, values: list[Any]) -> tuple[bytes, Row, bool]:
        if patch is not None:  # the record keeps its length: the row is kept
            stored, values = patch(stored, values)
        row = list(old)
        for position, value in zip(positions, values):
            row[position] = value
        new_row = tuple(row)
        if patch is None:
            return encode(new_row), new_row, False
        return stored, new_row, True

    return change


def _key_getter(positions: list[int]) -> Callable[[Row], Key]:
    """``row -> key`` for an index over the columns at ``positions``."""
    if len(positions) == 1:  # itemgetter of one item returns it bare
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


class Table:
    """Operational wrapper around a catalog table entry.

    When ``wal`` is given, every mutation appends a redo record before
    returning (see :mod:`repro.db.wal`).
    """

    def __init__(self, info: TableInfo, wal: WriteAheadLog | None = None) -> None:
        self.info = info
        self.wal = wal
        # everything below is derived from ``info.indexes``, which grows
        # when an index is created after the wrapper: see _compile
        self._by_name: dict[str, IndexInfo] = {}
        self._keyed: list[_KeyedIndex] = []
        self._column_plans: dict[tuple[str, ...], _ColumnPlan] = {}
        self._compile()

    def _compile(self) -> None:
        """(Re)build what is compiled per index, and forget the column
        plans, which name the indexes a change set touches."""
        position = self.info.schema.position
        self._by_name = {index.name: index for index in self.info.indexes}
        self._keyed = [
            (index, _key_getter([position(c) for c in index.columns]))
            for index in self.info.indexes
        ]
        self._column_plans = {}

    def _indexes(self) -> list[_KeyedIndex]:
        """Every index of the table, as it is now."""
        if len(self._keyed) != len(self.info.indexes):  # index created after the wrapper
            self._compile()
        return self._keyed

    def _column_plan(self, names: tuple[str, ...]) -> _ColumnPlan:
        """Compile, and keep, how a change set of these columns is applied."""
        positions = [self.info.schema.position(name) for name in names]
        codec = self.info.heap.codec
        patch = codec.patcher(positions)
        indexes = self._indexes()
        if patch is not None:  # a patch keeps the RID: only a key column moves an entry
            indexes = [keyed for keyed in indexes if not set(names).isdisjoint(keyed[0].columns)]
        plan = self._column_plans[names] = (_column_change(positions, patch, codec.encode), indexes)
        return plan

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table name."""
        return self.info.name

    @property
    def schema(self) -> Schema:
        """Row schema."""
        return self.info.schema

    @property
    def row_count(self) -> int:
        """Live rows."""
        return self.info.heap.row_count

    # ------------------------------------------------------------------
    # Mutations (index-maintaining)
    # ------------------------------------------------------------------
    def insert(self, row: Row, at: float) -> tuple[RID, float]:
        """Insert a row, updating every index (and the WAL, if attached)."""
        return self._insert(self.info.heap.codec.encode(row), row, at)

    def insert_record(self, record: bytes, at: float) -> tuple[RID, float]:
        """:meth:`insert` for a row already encoded with the heap's codec.

        The page keeps ``record`` itself (an exact ``bytes`` is stored as
        is); it is decoded only for the index keys.
        """
        return self._insert(record, self.info.heap.codec.decode(record), at)

    def _insert(self, record: bytes, row: Row, at: float) -> tuple[RID, float]:
        """The body of both inserts: ``row`` is what ``record`` decodes to."""
        rid, at = self.info.heap.insert_record(record, at)
        for index, key_of in self._indexes():
            at = index.btree.insert(key_of(row), rid, at)
        if self.wal is not None:
            __, at = self.wal.append(LogRecordType.INSERT, self.name, rid, record, at)
        return rid, at

    def read(self, rid: RID, at: float) -> tuple[Row, float]:
        """Read the row at ``rid``."""
        return self.info.heap.read(rid, at)

    def update(self, rid: RID, row: Row, at: float) -> tuple[RID, float]:
        """Replace the row at ``rid``; returns the (possibly new) RID.

        Index entries are rewritten only when their key changed or the
        record moved.
        """
        values = (self.info.heap.codec.encode(row), row)
        return self._rewrite(rid, replace_row, values, self._indexes(), at)

    def update_record(self, rid: RID, record: bytes, at: float) -> tuple[RID, float]:
        """:meth:`update` for a row already encoded with the heap's codec,
        kept by the page as :meth:`insert_record` keeps it."""
        values = (record, self.info.heap.codec.decode(record))
        return self._rewrite(rid, replace_row, values, self._indexes(), at)

    def _rewrite(
        self, rid: RID, change: Change, values: Any, indexes: list[_KeyedIndex], at: float
    ) -> tuple[RID, float]:
        """Every update: one touch of the row's page, where ``change``
        builds the new image from ``values``; then its log record (the new
        image, so it follows the touch, as an engine logs under the page
        latch); then those of ``indexes`` whose key changed or whose row
        moved."""
        old_row, record, row, new_rid, at = self.info.heap.rewrite(rid, change, values, at)
        if self.wal is not None:
            __, at = self.wal.append(LogRecordType.UPDATE, self.name, rid, record, at)
        for index, key_of in indexes:
            old_key = key_of(old_row)
            new_key = key_of(row)
            if old_key == new_key and new_rid == rid:
                continue
            __, at = index.btree.delete(old_key, rid, at)
            at = index.btree.insert(new_key, new_rid, at)
        return new_rid, at

    def update_columns(self, rid: RID, changes: dict[str, object], at: float) -> tuple[RID, float]:
        """Read-modify-write of named columns, with one touch of the row's
        page (:meth:`repro.db.heap.HeapFile.rewrite`).

        A change set of INT/FLOAT columns at fixed offsets is patched into
        the stored image (:meth:`repro.db.records.RowCodec.patcher`): same
        page touch and log record as the whole-row update that rebuilds
        the row, but only the changed bytes, the changed values of the
        retained row and the indexes over a changed column are processed.
        The RID of a patched row never changes.
        """
        if len(self._keyed) != len(self.info.indexes):  # _indexes(), in this frame
            self._compile()
        names = tuple(changes)
        change, affected = self._column_plans.get(names) or self._column_plan(names)
        return self._rewrite(rid, change, list(changes.values()), affected, at)

    def delete(self, rid: RID, at: float) -> float:
        """Delete the row at ``rid`` (one touch of its page), then log it
        and remove its index entries."""
        row, at = self.info.heap.delete(rid, at)
        if self.wal is not None:
            __, at = self.wal.append(LogRecordType.DELETE, self.name, rid, b"", at)
        for index, key_of in self._indexes():
            __, at = index.btree.delete(key_of(row), rid, at)
        return at

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def index(self, name: str) -> IndexInfo:
        """One of this table's indexes, by name."""
        index = self._by_name.get(name)
        if index is None:
            self._indexes()  # it may have been created after the wrapper
            index = self._by_name.get(name)
            if index is None:
                raise TableError(f"table {self.name!r} has no index {name!r}")
        return index

    def lookup(self, index_name: str, key: Key, at: float) -> tuple[Row | None, float]:
        """Fetch the first row matching ``key`` via an index, or ``None``."""
        index = self.index(index_name)
        rid, at = index.btree.search(tuple(key), at)
        if rid is None:
            return None, at
        return self.read(rid, at)

    def lookup_rid(self, index_name: str, key: Key, at: float) -> tuple[RID | None, float]:
        """Find the first RID matching ``key`` via an index."""
        return self.index(index_name).btree.search(tuple(key), at)

    def lookup_all(self, index_name: str, key: Key, at: float) -> tuple[list[tuple[RID, Row]], float]:
        """Fetch every (rid, row) matching ``key`` via a non-unique index."""
        index = self.index(index_name)
        rids, at = index.btree.search_all(tuple(key), at)
        results = []
        for rid in rids:
            row, at = self.read(rid, at)
            results.append((rid, row))
        return results, at

    def scan(self, at: float) -> Iterator[tuple[RID, Row, float]]:
        """Full-table scan; yields ``(rid, row, completion_us)``."""
        return self.info.heap.scan(at)
