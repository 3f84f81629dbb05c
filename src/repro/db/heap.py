"""Heap files: slotted-page record storage with free-space tracking.

A heap file owns one tablespace and stores encoded rows in slotted pages
through the buffer pool.  A record's address, its :data:`RID`, is one
``int``: ``page_no << 16 | slot``, the two fields a B+-tree leaf stores on
flash (a slotted page's directory has 16-bit slots).  :func:`make_rid`
builds one and :func:`split_rid` takes one apart; the heap's own paths
shift and mask in place.  Updates are in place when the new image fits;
otherwise the record moves and the caller receives the new RID (secondary
indexes must then be fixed by the table layer).

One fix per row operation, as Shore-MT fixes a heap page once per row
write: a read, an update (:meth:`HeapFile.rewrite`, whatever builds the
new image) and a delete each touch the row's page through
:meth:`BufferPool.get` exactly once, and a write hands back the old row
from that same touch, so the caller needs no read before it writes (a
moving record also touches the page it moves to).  Every touch charges
``cpu_us_per_op`` of simulated time and is one step of the countdown to
the next flush round, so the touch count of a row write sets both its
CPU cost and how often the flusher runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any, TypeAlias

from repro.db.buffer import BufferPool
from repro.db.records import Row, RowCodec, Schema
from repro.db.slotted_page import PageFullError, SlottedPage


#: the heap's page codec, looked up once (``from_bytes`` is a classmethod:
#: every attribute access would build a bound method); a write-back hands
#: the backend a page's deferred image, not its bytes
_DECODE_PAGE = SlottedPage.from_bytes
_IMAGE_PAGE = SlottedPage.image


#: How :meth:`HeapFile.rewrite` changes a row: ``(row, record, values) ->
#: (new record, new row, kept)``, ``values`` being what the caller passed
#: to the rewrite, see there.
Change: TypeAlias = Callable[[Row, bytes, Any], tuple[bytes, Row, bool]]


def replace_row(row: Row, record: bytes, values: tuple[bytes, Row]) -> tuple[bytes, Row, bool]:
    """The whole-row :data:`Change`: ``values`` is the new ``(record, row)``."""
    return values[0], values[1], False


class HeapError(Exception):
    """Invalid heap operation (bad RID, oversized record, ...)."""


#: A record address: ``page_no << 16 | slot``.  It equals, hashes and
#: orders as the ``(page_no, slot)`` pair does, for any page number.
RID: TypeAlias = int

#: the range of :data:`RID` a leaf entry (``<iH``) and a redo record store:
#: a signed 32-bit page number, a 16-bit slot
RID_MIN = -(1 << 47)
RID_MAX = (1 << 47) - 1


def make_rid(page_no: int, slot: int) -> RID:
    """The address of ``slot`` on page ``page_no``; refuses a pair the
    on-flash form (``<iH``) cannot hold."""
    if not (-(1 << 31) <= page_no < 1 << 31 and 0 <= slot <= 0xFFFF):
        raise HeapError(f"no row address for page {page_no}, slot {slot}")
    return page_no << 16 | slot


def split_rid(rid: RID) -> tuple[int, int]:
    """``(page_no, slot)`` of an address."""
    return rid >> 16, rid & 0xFFFF


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
    def _page_of(self, page_no: int, at: float) -> tuple[SlottedPage, float]:
        """Touch page ``page_no``, once it is known to be this heap's."""
        if page_no not in self._page_set:
            raise HeapError(f"page {page_no} does not belong to this heap")
        return self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)

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
            # target >= 0: room for the record past the target implies fits()
            if page.free_space() - len(record) >= target:
                slot = page.insert(record)
                self.buffer_pool.mark_dirty(self.space_id, page_no)
                self._row_count += 1
                return page_no << 16 | slot, at
            self._pop_open()
        page_no, page, at = self._new_page(at)
        slot = page.insert(record)
        self.buffer_pool.mark_dirty(self.space_id, page_no)
        self._row_count += 1
        return page_no << 16 | slot, at

    def read(self, rid: RID, at: float) -> tuple[Row, float]:
        """Read the row at ``rid``; returns ``(row, completion_us)``.

        The page keeps the decoded row while it stays buffered and the
        record is not rewritten, so repeated reads decode once.
        """
        page_no = rid >> 16
        if page_no not in self._page_set:  # _page_of, in this frame
            raise HeapError(f"page {page_no} does not belong to this heap")
        page, at = self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)
        slot = rid & 0xFFFF
        row = page.rows.get(slot)
        if row is None:
            row = page.read_row(slot, self._decode_row)
        return row, at

    def read_record(self, rid: RID, at: float) -> tuple[bytes, float]:
        """Read the stored image of the row at ``rid``, undecoded."""
        page, at = self._page_of(rid >> 16, at)
        return page.read(rid & 0xFFFF), at

    def rewrite(
        self, rid: RID, change: Change, values: Any, at: float
    ) -> tuple[Row, bytes, Row, RID, float]:
        """Write the row at ``rid`` with one touch of its page.

        ``change(row, record, values)`` gets the row as it is now (decoded
        once, as :meth:`read` does), its stored record and ``values`` as
        given (so a change built once serves every call), and returns
        ``(new record, new row, kept)``.  ``kept`` says the new record has
        the old one's length and ``new row`` is what the decoder returns
        for it — a column patch (:meth:`repro.db.records.RowCodec.patcher`):
        the slot is overwritten in place and keeps the row.  Otherwise the
        record is updated in place if it fits the page and moves if it
        does not.  Nothing is written if ``change`` raises.

        Returns ``(old row, new record, new row, rid, completion_us)`` —
        a *new* RID if the record moved (its insert touches the page it
        moves to).
        """
        page_no, slot = rid >> 16, rid & 0xFFFF
        page, at = self._page_of(page_no, at)
        old_row = page.read_row(slot, self._decode_row)
        record, row, kept = change(old_row, page.read(slot), values)
        if kept:
            page.replace(slot, record, row)
        else:
            try:
                page.update(slot, record)
            except PageFullError:
                page.delete(slot)
                self._push_open(page_no)
                self._row_count -= 1
                self.buffer_pool.mark_dirty(self.space_id, page_no)
                rid, at = self.insert_record(record, at)
                return old_row, record, row, rid, at
        self.buffer_pool.mark_dirty(self.space_id, page_no)
        return old_row, record, row, rid, at

    def update(self, rid: RID, row: Row, at: float) -> tuple[RID, float]:
        """Replace the row at ``rid`` (:meth:`rewrite` with a whole row).

        Returns ``(rid, completion_us)`` — a *new* RID if the record had to
        move because it outgrew its page.
        """
        *__, rid, at = self.rewrite(rid, replace_row, (self.codec.encode(row), row), at)
        return rid, at

    def delete(self, rid: RID, at: float) -> tuple[Row, float]:
        """Delete the row at ``rid``; returns ``(old row, completion_us)``,
        the row as :meth:`read` would have, from the same touch."""
        page_no, slot = rid >> 16, rid & 0xFFFF
        page, at = self._page_of(page_no, at)
        row = page.read_row(slot, self._decode_row)
        page.delete(slot)
        self.buffer_pool.mark_dirty(self.space_id, page_no)
        self._push_open(page_no)
        self._row_count -= 1
        return row, at

    def scan(self, at: float) -> Iterator[tuple[RID, Row, float]]:
        """Iterate ``(rid, row, completion_us)`` over all live rows.

        The generator threads the clock: each yielded ``completion_us``
        reflects the I/O performed so far.
        """
        for page_no in list(self._pages):
            page, at = self._get(self.space_id, page_no, at, _DECODE_PAGE, _IMAGE_PAGE)
            for slot, record in page.slots():
                yield page_no << 16 | slot, self.codec.decode(record), at
