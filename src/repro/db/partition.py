"""Partitioned tables: placing *parts* of an object in different regions.

Section 2 of the paper: "One or more database objects with similar access
properties can be physically placed in a region; this holds for complete
objects **or partitions of them**."  A table whose rows age from hot to
cold (ORDERLINE, HISTORY) can split by key range so its hot tail and cold
body live in different regions — placement below the table abstraction.

Design:

* a :class:`PartitionScheme` routes each row to a partition by one column
  — :class:`RangePartition` (ordered upper bounds) or
  :class:`HashPartition` (modulo buckets);
* each partition is a full table of its own (heap + *local* indexes in its
  own tablespace), so everything GC sees is partition-local;
* :class:`PartitionedTable` re-exposes the Table API.  Row ids are
  ``(partition, rid)`` pairs; lookups route by key when the indexed prefix
  pins the partition column, and fan out otherwise.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any
from collections.abc import Iterator

from repro.db.heap import RID, split_rid
from repro.db.records import Key, Row, Schema
from repro.db.table import Table


class PartitionError(Exception):
    """Invalid partitioning scheme or routing failure."""


@dataclass(frozen=True, order=True)
class PartitionedRID:
    """Row id within a partitioned table: partition index + local RID."""

    partition: int
    rid: RID

    def __str__(self) -> str:
        page_no, slot = split_rid(self.rid)
        return f"p{self.partition}/{page_no}:{slot}"


class PartitionScheme(abc.ABC):
    """Routes rows (and key prefixes) to partition indices."""

    def __init__(self, column: str, partitions: int) -> None:
        if partitions < 2:
            raise PartitionError("a partitioned table needs at least 2 partitions")
        self.column = column
        self.partitions = partitions

    @abc.abstractmethod
    def route_value(self, value: object) -> int:
        """Partition index for one value of the partition column."""

    def route_row(self, schema: Schema, row: Row) -> int:
        """Partition index for a full row."""
        return self.route_value(row[schema.position(self.column)])


class RangePartition(PartitionScheme):
    """Range partitioning: ``bounds[i]`` is the exclusive upper bound of
    partition ``i``; the last partition is unbounded.

    ``RangePartition("o_id", [100, 200])`` creates three partitions:
    ``(-inf, 100)``, ``[100, 200)``, ``[200, +inf)``.
    """

    def __init__(self, column: str, bounds: list[Any]) -> None:
        if not bounds:
            raise PartitionError("range partitioning needs at least one bound")
        if sorted(bounds) != list(bounds) or len(set(bounds)) != len(bounds):
            raise PartitionError(f"bounds must be strictly increasing, got {bounds}")
        super().__init__(column, len(bounds) + 1)
        self.bounds = list(bounds)

    def route_value(self, value: object) -> int:
        import bisect

        return bisect.bisect_right(self.bounds, value)


class HashPartition(PartitionScheme):
    """Hash partitioning: stable modulo buckets over the column value."""

    def __init__(self, column: str, partitions: int) -> None:
        super().__init__(column, partitions)

    def route_value(self, value: object) -> int:
        if isinstance(value, int):
            return value % self.partitions
        # deterministic string hash (Python's hash() is salted per process)
        acc = 0
        for ch in str(value):
            acc = (acc * 131 + ord(ch)) & 0x7FFFFFFF
        return acc % self.partitions


class PartitionedTable:
    """Table façade over per-partition tables with local indexes.

    Construct via :meth:`repro.db.database.Database.create_partitioned_table`.
    """

    def __init__(self, name: str, schema: Schema, scheme: PartitionScheme, parts: list[Table]) -> None:
        if len(parts) != scheme.partitions:
            raise PartitionError(
                f"scheme expects {scheme.partitions} partitions, got {len(parts)}"
            )
        self.name = name
        self.schema = schema
        self.scheme = scheme
        self.parts = parts
        self._column_pos = schema.position(scheme.column)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Live rows over all partitions."""
        return sum(p.row_count for p in self.parts)

    def partition_of(self, row: Row) -> int:
        """Partition index a row routes to."""
        return self.scheme.route_row(self.schema, row)

    def partition_row_counts(self) -> list[int]:
        """Per-partition live row counts."""
        return [p.row_count for p in self.parts]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, row: Row, at: float) -> tuple[PartitionedRID, float]:
        """Insert a row into its partition."""
        index = self.partition_of(row)
        rid, at = self.parts[index].insert(row, at)
        return PartitionedRID(index, rid), at

    def read(self, prid: PartitionedRID, at: float) -> tuple[Row, float]:
        """Read the row at ``prid``."""
        return self.parts[prid.partition].read(prid.rid, at)

    def update(self, prid: PartitionedRID, row: Row, at: float) -> tuple[PartitionedRID, float]:
        """Update a row; moving it across partitions when its key moved."""
        target = self.partition_of(row)
        if target == prid.partition:
            rid, at = self.parts[target].update(prid.rid, row, at)
            return PartitionedRID(target, rid), at
        at = self.parts[prid.partition].delete(prid.rid, at)
        rid, at = self.parts[target].insert(row, at)
        return PartitionedRID(target, rid), at

    def update_columns(
        self, prid: PartitionedRID, changes: dict[str, object], at: float
    ) -> tuple[PartitionedRID, float]:
        """Read-modify-write of named columns: one touch of the row's page
        (:meth:`Table.update_columns`), unless a new partition-column value
        routes the row elsewhere — then it is read, deleted and inserted."""
        column = self.scheme.column
        if column not in changes or self.scheme.route_value(changes[column]) == prid.partition:
            rid, at = self.parts[prid.partition].update_columns(prid.rid, changes, at)
            return PartitionedRID(prid.partition, rid), at
        row, at = self.read(prid, at)
        values = list(row)
        for name, value in changes.items():
            values[self.schema.position(name)] = value
        return self.update(prid, tuple(values), at)

    def delete(self, prid: PartitionedRID, at: float) -> float:
        """Delete the row at ``prid``."""
        return self.parts[prid.partition].delete(prid.rid, at)

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def _local_index(self, part: Table, index_name: str) -> str:
        """Local index name on ``part`` for logical index ``index_name``."""
        return f"{part.name}_{index_name}"

    def _route_by_key(self, index_name: str, key: Key) -> int | None:
        """Partition pinned by ``key``, or ``None`` when it does not bind
        the partition column."""
        part = self.parts[0]
        columns = part.index(self._local_index(part, index_name)).columns
        for position, column in enumerate(columns):
            if column == self.scheme.column and position < len(key):
                return self.scheme.route_value(key[position])
        return None

    def lookup(self, index_name: str, key: Key, at: float) -> tuple[Row | None, float]:
        """First row matching ``key``; routed or fanned out."""
        pinned = self._route_by_key(index_name, tuple(key))
        targets = [pinned] if pinned is not None else range(len(self.parts))
        for index in targets:
            part = self.parts[index]
            row, at = part.lookup(self._local_index(part, index_name), key, at)
            if row is not None:
                return row, at
        return None, at

    def lookup_rid(self, index_name: str, key: Key, at: float) -> tuple[PartitionedRID | None, float]:
        """First matching row id; routed or fanned out."""
        pinned = self._route_by_key(index_name, tuple(key))
        targets = [pinned] if pinned is not None else range(len(self.parts))
        for index in targets:
            part = self.parts[index]
            rid, at = part.lookup_rid(self._local_index(part, index_name), key, at)
            if rid is not None:
                return PartitionedRID(index, rid), at
        return None, at

    def lookup_all(
        self, index_name: str, key: Key, at: float
    ) -> tuple[list[tuple[PartitionedRID, Row]], float]:
        """Every matching (prid, row) across partitions."""
        results: list[tuple[PartitionedRID, Row]] = []
        pinned = self._route_by_key(index_name, tuple(key))
        targets = [pinned] if pinned is not None else range(len(self.parts))
        for index in targets:
            part = self.parts[index]
            rows, at = part.lookup_all(self._local_index(part, index_name), key, at)
            results.extend((PartitionedRID(index, rid), row) for rid, row in rows)
        return results, at

    def scan(self, at: float) -> Iterator[tuple[PartitionedRID, Row, float]]:
        """Scan all partitions; yields ``(prid, row, completion_us)``."""
        for index, part in enumerate(self.parts):
            for rid, row, at in part.scan(at):
                yield PartitionedRID(index, rid), row, at
