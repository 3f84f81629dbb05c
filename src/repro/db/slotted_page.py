"""Slotted heap pages.

The classic layout: a header, a slot directory growing from the front and
record payloads growing from the back.  In-memory the page is a structured
object (records as byte strings per slot); :meth:`SlottedPage.to_bytes` and
:meth:`SlottedPage.from_bytes` produce/consume the on-flash image.  The
buffer manager caches the object form and writes a page back as
:meth:`SlottedPage.image`, a :class:`~repro.flash.payload.DeferredImage`
holding a tuple of the page's records: the bytes are encoded when someone
reads them (a decoder, a test), not when the page is written, and the
flash device keeps every version of a page until GC erases it, so the
versions share their unchanged records instead of each holding a copy.

The same holds one level down.  :meth:`SlottedPage.read_row` keeps the
row it decoded from a slot's record beside that record, so a record is
decoded once per buffer residency and record version, not once per read:

* retained is only what the decoder returned for the bytes now in the
  slot, or provably would return — never a row a caller wrote, which
  need not read back equal (a CHAR value loses trailing spaces, an int
  in a FLOAT column returns as a float);
* every write to a slot (``insert`` into a reused slot, ``update``,
  ``delete``) drops that slot's row, except :meth:`SlottedPage.replace`,
  the same-length overwrite behind a column patch
  (:meth:`repro.db.records.RowCodec.patcher`): its caller hands over the
  new record together with the row it decodes to — the retained row with
  the patched values as the decoder yields them — and that row is kept;
* the rows live on the page object, not in the heap file: they are
  released with the buffer frame, so the buffer pool's capacity bounds
  them, and a page decoded again after an eviction starts with none —
  as does a page object the pool parked at eviction and reinstalls
  (:mod:`repro.db.buffer`), whose rows the pool drops when it parks it.

On-flash layout::

    +--------+-----------------+----------------+-------------+
    | header | slot directory  |   free space   |   records   |
    +--------+-----------------+----------------+-------------+
    header: magic u16, slot_count u16, free_end u16 (offset where the
            record heap begins, from page start)
    slot:   offset u16 (0 = empty), length u16
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence

from repro.db.records import Row
from repro.flash.payload import DeferredImage, Payload

_HEADER = struct.Struct("<HHH")
_SLOT = struct.Struct("<HH")
_MAGIC = 0x5350  # "SP"
_EMPTY_SLOT = _SLOT.pack(0, 0)


def _encode(page_size: int, records: Sequence[bytes | None]) -> bytes:
    """The one encoder of a slotted page: the ``page_size`` image of a slot
    directory holding ``records`` (``None`` = emptied slot)."""
    free_end = page_size
    directory: list[bytes] = []
    heap: list[bytes] = []  # records in slot order; stored back to front
    for record in records:
        if record is None:
            directory.append(_EMPTY_SLOT)
        else:
            free_end -= len(record)
            directory.append(_SLOT.pack(free_end, len(record)))
            heap.append(record)
    heap.reverse()
    front = _HEADER.pack(_MAGIC, len(records), free_end) + b"".join(directory)
    return front.ljust(free_end, b"\x00") + b"".join(heap)


class PageFullError(Exception):
    """The record does not fit into the page's free space."""


class SlotError(Exception):
    """Bad slot number or state (e.g. reading a deleted slot)."""


class SlottedPage:
    """A slotted page of a fixed on-flash size.

    Args:
        page_size: serialized size in bytes (the flash page size).
    """

    def __init__(self, page_size: int) -> None:
        min_size = _HEADER.size + _SLOT.size
        if page_size < min_size + 1:
            raise ValueError(f"page_size {page_size} too small (min {min_size + 1})")
        self.page_size = page_size
        self._records: list[bytes | None] = []
        #: slot -> row decoded from the record now in the slot.  Anyone may
        #: look a row up here; only :meth:`read_row` and :meth:`replace` add
        #: one, and every other write to the slot removes it.
        self.rows: dict[int, Row] = {}
        # maintained by every mutation, so space checks never rescan the page
        self._payload = 0  # bytes of all live records
        self._empty = 0  # emptied slots still in the directory

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def free_space(self) -> int:
        """Bytes available for a new record (slot overhead included)."""
        used = _HEADER.size + _SLOT.size * len(self._records) + self._payload
        return self.page_size - used - _SLOT.size

    def fits(self, record: bytes) -> bool:
        """Whether ``record`` can be inserted into this page."""
        # a reusable empty slot saves the directory entry
        if self._empty:
            return len(record) <= self.free_space() + _SLOT.size
        return len(record) <= self.free_space()

    @property
    def slot_count(self) -> int:
        """Size of the slot directory (including emptied slots)."""
        return len(self._records)

    def live_records(self) -> int:
        """Number of non-deleted records."""
        return len(self._records) - self._empty

    def is_empty(self) -> bool:
        """Whether the page holds no live records."""
        return self.live_records() == 0

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, record: bytes) -> int:
        """Insert ``record``; returns its slot number.

        Reuses an emptied slot when available so RIDs stay dense.
        """
        if not isinstance(record, (bytes, bytearray)):
            raise TypeError("record must be bytes")
        record = bytes(record)
        if not self.fits(record):
            raise PageFullError(
                f"record of {len(record)} bytes does not fit ({self.free_space()} free)"
            )
        self._payload += len(record)
        if self._empty:
            slot = self._records.index(None)
            self._records[slot] = record
            self.rows.pop(slot, None)
            self._empty -= 1
            return slot
        self._records.append(record)
        return len(self._records) - 1

    def read(self, slot: int) -> bytes:
        """Return the record in ``slot``."""
        record = self._slot(slot)
        if record is None:
            raise SlotError(f"slot {slot} is empty")
        return record

    def read_row(self, slot: int, decode: Callable[[bytes], Row]) -> Row:
        """The record in ``slot`` as a row: :meth:`read`, then ``decode``.

        The decoded row is kept until the slot is written again, so later
        reads return it without decoding.  A page's callers must always
        pass the same ``decode`` (a heap page has one schema).
        """
        row = self.rows.get(slot)
        if row is None:  # a kept row implies a live slot: read() checks the rest
            row = self.rows[slot] = decode(self.read(slot))
        return row

    def update(self, slot: int, record: bytes) -> None:
        """Replace the record in ``slot`` (must fit the page)."""
        old = self._slot(slot)
        if old is None:
            raise SlotError(f"slot {slot} is empty")
        growth = len(record) - len(old)
        if growth > self.free_space() + _SLOT.size:
            raise PageFullError(
                f"update grows record by {growth} bytes, only {self.free_space()} free"
            )
        self._records[slot] = bytes(record)
        self.rows.pop(slot, None)
        self._payload += growth

    def replace(self, slot: int, record: bytes, row: Row) -> None:
        """Overwrite the record in ``slot`` with one of the same length.

        ``row`` must be what the page's decoder returns for ``record``; it
        is kept as :meth:`read_row` would keep it.  Nothing moves and no
        space is needed, so this cannot raise :class:`PageFullError`.
        """
        old = self._slot(slot)
        if old is None or len(old) != len(record):
            raise SlotError(
                f"slot {slot} does not hold a record of {len(record)} bytes to replace"
            )
        self._records[slot] = record
        self.rows[slot] = row

    def delete(self, slot: int) -> None:
        """Delete the record in ``slot`` (slot becomes reusable)."""
        record = self._slot(slot)
        if record is None:
            raise SlotError(f"slot {slot} already empty")
        self._records[slot] = None
        self.rows.pop(slot, None)
        self._payload -= len(record)
        self._empty += 1
        # shrink the directory if a tail of slots is empty
        while self._records and self._records[-1] is None:
            self._records.pop()
            self._empty -= 1

    def slots(self) -> list[tuple[int, bytes]]:
        """All live ``(slot, record)`` pairs in slot order."""
        return [(i, r) for i, r in enumerate(self._records) if r is not None]

    def _slot(self, slot: int) -> bytes | None:
        if not 0 <= slot < len(self._records):
            raise SlotError(f"slot {slot} out of range [0, {len(self._records)})")
        return self._records[slot]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise to the fixed ``page_size`` on-flash image."""
        return _encode(self.page_size, self._records)

    def image(self) -> DeferredImage:
        """The page's image as it is now, encoded only if it is ever read
        as bytes: a snapshot of the records (a tuple of the very bytes
        objects the page holds; later writes replace slots, never mutate a
        record) and the length :meth:`to_bytes` would return."""
        records = self._records
        front = _HEADER.size + _SLOT.size * len(records)
        length = max(self.page_size, front + self._payload)
        return DeferredImage(_encode, (self.page_size, tuple(records)), length)

    @classmethod
    def from_bytes(cls, data: Payload) -> "SlottedPage":
        """Reconstruct a page from its on-flash image.

        Raises ``ValueError`` for an image :meth:`to_bytes` cannot have
        written: a directory that does not fit the page, a slot that points
        into the header or the directory, a record that runs past the page
        end.  The live-slot path pays no test for this beyond the one that
        tells a record from an emptied slot; overruns show up once per
        page, as a slice that came back shorter than its slot says.
        """
        data = bytes(data)  # the image itself when it is bytes already
        size = len(data)
        page = cls(size)
        magic, slot_count, __ = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise ValueError(f"not a slotted page (magic {magic:#x})")
        heap_floor = _HEADER.size + _SLOT.size * slot_count
        if heap_floor > size:
            raise ValueError(
                f"corrupt slotted page: a directory of {slot_count} slots "
                f"does not fit {size} bytes"
            )
        records = page._records
        empty = stored = declared = 0
        for offset, length in _SLOT.iter_unpack(data[_HEADER.size : heap_floor]):
            if offset >= heap_floor:
                record = data[offset : offset + length]
                records.append(record)
                stored += len(record)
                declared += length
            elif offset == 0:
                records.append(None)
                empty += 1
            else:
                raise ValueError(
                    f"corrupt slotted page: slot {len(records)} points at byte {offset}, "
                    f"inside the {heap_floor}-byte header and directory"
                )
        if stored != declared:
            raise ValueError(
                f"corrupt slotted page: slots claim {declared} record bytes, "
                f"only {stored} lie inside the page"
            )
        page._empty = empty
        page._payload = stored
        return page

    @classmethod
    def empty_image(cls, page_size: int) -> bytes:
        """On-flash image of a fresh empty page."""
        return cls(page_size).to_bytes()
