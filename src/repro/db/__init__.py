"""Minimal page-based DBMS: buffer pool, heaps, B+-trees, catalog, DDL.

Stands in for Shore-MT in the reproduction: generates the same kinds of
physical I/O (buffer misses, dirty write-back, index traffic) over either
storage architecture — NoFTL regions or an FTL block device.
"""

from repro.db.backend import (
    DEFAULT_EXTENT_PAGES,
    METADATA_SPACE_ID,
    BackendError,
    BlockDeviceBackend,
    NoFTLBackend,
    StorageBackend,
)
from repro.db.btree import BTree, IndexError_, KeyCodec
from repro.db.buffer import BufferError, BufferPool, BufferStats
from repro.db.catalog import Catalog, CatalogError, IndexInfo, TableInfo, TablespaceInfo
from repro.db.database import Database
from repro.db.ddl import (
    DDLError,
    parse_column,
    parse_create_index,
    parse_create_table,
    parse_create_tablespace,
    parse_drop_table,
    statement_kind,
)
from repro.db.heap import RID, HeapError, HeapFile, make_rid, split_rid
from repro.db.records import (
    Column,
    ColumnType,
    RowCodec,
    Schema,
    SchemaError,
    char_col,
    float_col,
    int_col,
    varchar_col,
)
from repro.db.partition import (
    HashPartition,
    PartitionedRID,
    PartitionedTable,
    PartitionError,
    PartitionScheme,
    RangePartition,
)
from repro.db.slotted_page import PageFullError, SlotError, SlottedPage
from repro.db.table import Table, TableError
from repro.db.wal import (
    LogRecord,
    LogRecordType,
    WALError,
    WriteAheadLog,
    replay_log,
)

__all__ = [
    "BackendError",
    "BlockDeviceBackend",
    "BTree",
    "BufferError",
    "BufferPool",
    "BufferStats",
    "Catalog",
    "CatalogError",
    "Column",
    "ColumnType",
    "Database",
    "DDLError",
    "DEFAULT_EXTENT_PAGES",
    "HeapError",
    "HeapFile",
    "IndexError_",
    "IndexInfo",
    "KeyCodec",
    "LogRecord",
    "LogRecordType",
    "METADATA_SPACE_ID",
    "HashPartition",
    "NoFTLBackend",
    "PageFullError",
    "PartitionError",
    "PartitionScheme",
    "PartitionedRID",
    "PartitionedTable",
    "RangePartition",
    "RID",
    "RowCodec",
    "Schema",
    "SchemaError",
    "SlotError",
    "SlottedPage",
    "StorageBackend",
    "Table",
    "TableError",
    "TableInfo",
    "TablespaceInfo",
    "WALError",
    "WriteAheadLog",
    "char_col",
    "float_col",
    "int_col",
    "make_rid",
    "parse_column",
    "parse_create_index",
    "parse_create_table",
    "parse_create_tablespace",
    "parse_drop_table",
    "statement_kind",
    "replay_log",
    "split_rid",
    "varchar_col",
]
