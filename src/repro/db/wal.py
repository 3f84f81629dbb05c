"""Redo write-ahead logging.

A physiological redo log in the style every page-based engine carries:
row-level after-images appended to a dedicated tablespace in strictly
sequential pages.  Under NoFTL the log tablespace couples to a region like
any other object — and it is the archetypal *cold append stream* the
paper's placement separates from update-hot data.

Scope (documented, deliberate): **redo-only, replay-from-backup**.
Transactions in this reproduction never abort mid-write (the one
spec-mandated NewOrder rollback validates before writing), so no undo is
needed; replaying the full log against a database restored from the same
initial state reproduces the crashed database exactly
(:func:`replay_log`).  Positions (RIDs) replay deterministically because
heap allocation is deterministic given the same operation sequence.

Log record wire format (little endian)::

    u64 lsn | u8 type | u16 table_len | table utf-8 |
    i32 page_no | u16 slot | u32 row_len | row bytes

Records never span pages; a page starts with ``u16 count``.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterator
from dataclasses import dataclass

from repro.db.backend import StorageBackend
from repro.db.heap import RID

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

_PAGE_HEADER = struct.Struct("<H")
_RECORD_HEADER = struct.Struct("<QBH")
_RECORD_BODY = struct.Struct("<iHI")

#: Default tablespace name for the log.
WAL_SPACE = "WAL"


class WALError(Exception):
    """Corrupt log page or invalid logging operation."""


class LogRecordType(enum.IntEnum):
    """Kinds of redo records."""

    INSERT = 1
    UPDATE = 2
    DELETE = 3
    CHECKPOINT = 4
    COMMIT = 5  #: transaction boundary (enables transactional replay)


@dataclass(frozen=True)
class LogRecord:
    """One redo record: the operation, its target, and the after-image."""

    lsn: int
    type: LogRecordType
    table: str
    rid: RID
    row_bytes: bytes = b""

    def encode(self) -> bytes:
        """Serialise to the wire format."""
        name = self.table.encode("utf-8")
        return (
            _RECORD_HEADER.pack(self.lsn, int(self.type), len(name))
            + name
            + _RECORD_BODY.pack(self.rid.page_no, self.rid.slot, len(self.row_bytes))
            + self.row_bytes
        )

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["LogRecord", int]:
        """Deserialise one record starting at ``offset``; returns (record, end)."""
        lsn, rtype, name_len = _RECORD_HEADER.unpack_from(data, offset)
        offset += _RECORD_HEADER.size
        table = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        page_no, slot, row_len = _RECORD_BODY.unpack_from(data, offset)
        offset += _RECORD_BODY.size
        row = bytes(data[offset : offset + row_len])
        offset += row_len
        return cls(lsn, LogRecordType(rtype), table, RID(page_no, slot), row), offset


class WriteAheadLog:
    """Appends redo records to sequential pages of a log tablespace.

    Records accumulate in an in-memory page buffer and reach flash when the
    page fills or :meth:`flush` forces it out — group commit, effectively.
    """

    def __init__(self, backend: StorageBackend, space_id: int) -> None:
        self.backend = backend
        self.space_id = space_id
        self.page_size = backend.page_size
        self._next_lsn = 1
        self._current: list[bytes] = []  # encoded records of the open page
        self._current_bytes = _PAGE_HEADER.size
        self._flushed_pages = 0
        self.records_written = 0

    @property
    def next_lsn(self) -> int:
        """LSN the next append will receive."""
        return self._next_lsn

    @property
    def flushed_pages(self) -> int:
        """Log pages persisted so far."""
        return self._flushed_pages

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self,
        rtype: LogRecordType,
        table: str,
        rid: RID,
        row_bytes: bytes = b"",
        at: float = 0.0,
    ) -> tuple[int, float]:
        """Append one record; returns ``(lsn, completion_us)``.

        Writing happens only when the page buffer fills, so most appends
        are free in device time.
        """
        lsn = self._next_lsn
        encoded = LogRecord(lsn, rtype, table, rid, row_bytes).encode()
        size = len(encoded)
        if _PAGE_HEADER.size + size > self.page_size:
            raise WALError(f"record of {size} bytes exceeds log page size {self.page_size}")
        if self._current_bytes + size > self.page_size:
            at = self.flush(at)
        self._current.append(encoded)
        self._current_bytes += size
        self._next_lsn += 1
        self.records_written += 1
        return lsn, at

    def flush(self, at: float = 0.0) -> float:
        """Force the buffered records to flash; returns completion time."""
        if not self._current:
            return at
        image = _PAGE_HEADER.pack(len(self._current)) + b"".join(self._current)
        page_no, at = self.backend.allocate_page(self.space_id, at)
        at = self.backend.write_page(
            self.space_id, page_no, image.ljust(self.page_size, b"\x00"), at
        )
        self._flushed_pages += 1
        self._current = []
        self._current_bytes = _PAGE_HEADER.size
        return at

    def checkpoint(self, at: float = 0.0) -> float:
        """Append a CHECKPOINT marker and force everything out."""
        __, at = self.append(LogRecordType.CHECKPOINT, "", RID(0, 0), b"", at)
        return self.flush(at)

    def commit(self, at: float = 0.0) -> tuple[int, float]:
        """Append a COMMIT boundary marker; returns ``(lsn, completion_us)``.

        Group commit: the marker reaches flash with whatever page flush
        carries it.  A transaction whose COMMIT never persisted is, by
        definition, not durable — transactional replay discards it.
        """
        return self.append(LogRecordType.COMMIT, "", RID(0, 0), b"", at)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def for_recovery(
        cls, backend: StorageBackend, space_id: int, at: float = 0.0
    ) -> "WriteAheadLog":
        """Re-open a log tablespace after a crash (the in-memory log is gone).

        Probes the tablespace's pages in order and keeps every page that
        reads back as a well-formed log page.  The scan stops at the first
        unreadable or empty page: a power cut between page allocation and
        the page write reaching flash leaves such a torn tail, and its
        records were never durable — dropping them *is* the redo contract.
        LSNs continue past the highest surviving record, so the log can
        keep appending after recovery.
        """
        wal = cls(backend, space_id)
        flushed = 0
        last_lsn = 0
        for page_no in range(backend.allocated_pages(space_id)):
            try:
                payload, at = backend.read_page(space_id, page_no, at)
            except Exception:  # noqa: BLE001 — unreadable == never durable
                break
            data = bytes(payload)  # a log page is written as bytes: no copy
            try:
                (count,) = _PAGE_HEADER.unpack_from(data, 0)
                offset = _PAGE_HEADER.size
                lsns = []
                for __ in range(count):
                    record, offset = LogRecord.decode(data, offset)
                    lsns.append(record.lsn)
            except (struct.error, ValueError, IndexError, UnicodeDecodeError):
                break
            if not lsns:
                break
            flushed += 1
            last_lsn = max(last_lsn, max(lsns))
        wal._flushed_pages = flushed
        wal._next_lsn = last_lsn + 1
        return wal

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(self, at: float = 0.0) -> Iterator[tuple[LogRecord, float]]:
        """Yield ``(record, completion_us)`` over all persisted records.

        Unflushed buffered records are NOT returned — after a crash they
        are gone, which is exactly the durability boundary a redo log
        defines.
        """
        for page_no in range(self._flushed_pages):
            payload, at = self.backend.read_page(self.space_id, page_no, at)
            data = bytes(payload)  # a log page is written as bytes: no copy
            (count,) = _PAGE_HEADER.unpack_from(data, 0)
            offset = _PAGE_HEADER.size
            for __ in range(count):
                record, offset = LogRecord.decode(data, offset)
                yield record, at


def _apply_record(db: Database, record: LogRecord, at: float) -> float:
    table = db.table(record.table)
    if record.type is LogRecordType.INSERT:
        row = table.info.heap.codec.decode(record.row_bytes)
        __, at = table.insert(row, at)
    elif record.type is LogRecordType.UPDATE:
        row = table.info.heap.codec.decode(record.row_bytes)
        __, at = table.update(record.rid, row, at)
    elif record.type is LogRecordType.DELETE:
        at = table.delete(record.rid, at)
    return at


def replay_log(
    db: Database, wal: WriteAheadLog, at: float = 0.0, transactional: bool = False
) -> tuple[int, float]:
    """Apply the persisted redo records to ``db`` (restored-backup replay).

    ``db`` must hold the same schema and the same state the logged database
    had when logging began.  Returns ``(records_applied, completion_us)``.

    With ``transactional=True``, records buffer until their transaction's
    COMMIT marker and an uncommitted tail is discarded — after a power
    cut, a half-logged transaction must not leak into the replayed
    database (the TPC-C consistency checks would catch it).
    """
    applied = 0
    pending: list[LogRecord] = []
    for record, at in wal.records(at):
        if record.type is LogRecordType.CHECKPOINT:
            continue
        if record.type is LogRecordType.COMMIT:
            for rec in pending:
                at = _apply_record(db, rec, at)
                applied += 1
            pending = []
            continue
        if transactional:
            pending.append(record)
        else:
            at = _apply_record(db, record, at)
            applied += 1
    # transactional mode: a pending tail with no COMMIT is discarded here
    return applied, at
