"""Heap files: slotted-page record storage with free-space tracking.

A heap file owns one tablespace and stores encoded rows in slotted pages
through the buffer pool.  Records are addressed by :class:`RID`
(page number + slot).  Updates are in place when the new image fits;
otherwise the record moves and the caller receives the new RID (secondary
indexes must then be fixed by the table layer).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.db.buffer import BufferPool
from repro.db.records import Row, RowCodec, Schema
from repro.db.slotted_page import PageFullError, SlottedPage


#: the heap's page codec, looked up once (``from_bytes`` is a classmethod:
#: every attribute access would build a bound method); a write-back hands
#: the backend a page's deferred image, not its bytes
_DECODE_PAGE = SlottedPage.from_bytes
_IMAGE_PAGE = SlottedPage.image


class HeapError(Exception):
    """Invalid heap operation (bad RID, oversized record, ...)."""


class RID(NamedTuple):
    """Record identifier: page number within the heap + slot on the page.

    A tuple, so that a B+-tree leaf can keep its entries as the plain
    ``(page_no, slot)`` pairs its page image unpacks to; an ``RID`` equals,
    hashes and orders like that pair.
    """

    page_no: int
    slot: int

    def __str__(self) -> str:
        return f"rid({self.page_no}:{self.slot})"


class HeapFile:
    """Row storage for one table.

    Args:
        buffer_pool: the shared buffer manager.
        space_id: tablespace holding the heap's pages.
        schema: row schema (encoded/decoded via :class:`RowCodec`).
        fill_hint: fraction of page space insert targets before starting a
            new page (leaves room for in-place growth of VARCHARs).
    """

    def __init__(
        self,
        buffer_pool: BufferPool,
        space_id: int,
        schema: Schema,
        fill_hint: float = 1.0,
    ) -> None:
        if not 0.1 <= fill_hint <= 1.0:
            raise ValueError("fill_hint must be in [0.1, 1.0]")
        self.buffer_pool = buffer_pool
        self.space_id = space_id
        self.schema = schema
        self.codec = RowCodec(schema)
        # bound once: a page touch is one positional call through the pool's
        # only door, with no method object built on the way
        self._get = buffer_pool.get
        self._decode_row = self.codec.decode
        self.fill_hint = fill_hint
        self.page_size = buffer_pool.backend.page_size
        if schema.max_row_size > self.page_size // 2:
            raise HeapError(
                f"max row size {schema.max_row_size} too large for page size {self.page_size}"
            )
        self._pages: list[int] = []  # all page_nos of this heap, append order
        self._page_set: set[int] = set()
        self._open_pages: list[int] = []  # pages believed to have free space
        self._open_set: set[int] = set()
        self._row_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Live rows in the heap."""
        return self._row_count

    @property
    def page_count(self) -> int:
        """Pages allocated to the heap."""
        return len(self._pages)

    # ------------------------------------------------------------------
    # Page plumbing
    # ------------------------------------------------------------------
    def _page_of(self, rid: RID, at: float) -> tuple[SlottedPage, float]:
        """Touch the page ``rid`` names, once it is known to be this heap's."""
        if rid.page_no not in self._page_set:
            raise HeapError(f"{rid} does not belong to this heap")
        return self._get(self.space_id, rid.page_no, at, _DECODE_PAGE, _IMAGE_PAGE)

    def _new_page(self, at: float) -> tuple[int, SlottedPage, float]:
        page_no, at = self.buffer_pool.backend.allocate_page(self.space_id, at)
        page = SlottedPage(self.page_size)
        at = self.buffer_pool.put_new(self.space_id, page_no, page, _IMAGE_PAGE, at)
        self._pages.append(page_no)
        self._page_set.add(page_no)
        self._push_open(page_no)
        return page_no, page, at

    def _push_open(self, page_no: int) -> None:
        if page_no not in self._open_set:
            self._open_pages.append(page_no)
            self._open_set.add(page_no)

    def _pop_open(self) -> None:
        self._open_set.discard(self._open_pages.pop())

    # ------------------------------------------------------------------
    # Record operations
    # ------------------------------------------------------------------
    def insert(self, row: Row, at: float) -> tuple[RID, float]:
        """Insert a row; returns ``(rid, completion_us)``."""
        return self.insert_record(self.codec.encode(row), at)

    def insert_record(self, record: bytes, at: float) -> tuple[RID, float]:
        """:meth:`insert` for a row the caller has encoded with :attr:`codec`
        (the table layer does, to hand the log the image stored here)."""
        target = self.page_size * (1.0 - self.fill_hint)
        while self._open_pages:
            page_no = self._open_pages[-1]
            page, at = self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)
            if page.fits(record) and page.free_space() - len(record) >= target:
                slot = page.insert(record)
                self.buffer_pool.mark_dirty(self.space_id, page_no)
                self._row_count += 1
                return RID(page_no, slot), at
            self._pop_open()
        page_no, page, at = self._new_page(at)
        slot = page.insert(record)
        self.buffer_pool.mark_dirty(self.space_id, page_no)
        self._row_count += 1
        return RID(page_no, slot), at

    def read(self, rid: RID, at: float) -> tuple[Row, float]:
        """Read the row at ``rid``; returns ``(row, completion_us)``.

        The page keeps the decoded row while it stays buffered and the
        record is not rewritten, so repeated reads decode once.
        """
        page_no, slot = rid
        if page_no not in self._page_set:  # _page_of, in this frame
            raise HeapError(f"{rid} does not belong to this heap")
        page, at = self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)
        row = page.rows.get(slot)
        if row is None:
            row = page.read_row(slot, self._decode_row)
        return row, at

    def read_record(self, rid: RID, at: float) -> tuple[bytes, float]:
        """Read the stored image of the row at ``rid``, undecoded."""
        page, at = self._page_of(rid, at)
        return page.read(rid.slot), at

    def replace(self, rid: RID, record: bytes, row: Row, at: float) -> float:
        """Overwrite the row at ``rid`` with an image of the same length.

        ``row`` must be what ``record`` decodes to (it is retained as if a
        read had decoded it); a same-length image always fits, so the RID
        stands.  The in-place half of a column patch, see
        :meth:`repro.db.records.RowCodec.patcher`.
        """
        page, at = self._page_of(rid, at)
        page.replace(rid.slot, record, row)
        self.buffer_pool.mark_dirty(self.space_id, rid.page_no)
        return at

    def update(self, rid: RID, row: Row, at: float) -> tuple[RID, float]:
        """Update the row at ``rid``.

        Returns ``(rid, completion_us)`` — a *new* RID if the record had to
        move because it outgrew its page.
        """
        return self.update_record(rid, self.codec.encode(row), at)

    def update_record(self, rid: RID, record: bytes, at: float) -> tuple[RID, float]:
        """:meth:`update` for a row the caller has encoded with :attr:`codec`."""
        page, at = self._page_of(rid, at)
        try:
            page.update(rid.slot, record)
            self.buffer_pool.mark_dirty(self.space_id, rid.page_no)
            return rid, at
        except PageFullError:
            page.delete(rid.slot)
            self.buffer_pool.mark_dirty(self.space_id, rid.page_no)
            self._push_open(rid.page_no)
            self._row_count -= 1
            return self.insert_record(record, at)

    def delete(self, rid: RID, at: float) -> float:
        """Delete the row at ``rid``."""
        page, at = self._page_of(rid, at)
        page.delete(rid.slot)
        self.buffer_pool.mark_dirty(self.space_id, rid.page_no)
        self._push_open(rid.page_no)
        self._row_count -= 1
        return at

    def scan(self, at: float) -> Iterator[tuple[RID, Row, float]]:
        """Iterate ``(rid, row, completion_us)`` over all live rows.

        The generator threads the clock: each yielded ``completion_us``
        reflects the I/O performed so far.
        """
        for page_no in list(self._pages):
            page, at = self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)
            for slot, record in page.slots():
                yield RID(page_no, slot), self.codec.decode(record), at
