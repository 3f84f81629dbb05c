"""Erase-block and page state machines (flat array-backed).

The chip enforces exactly the rules real NAND enforces and nothing more:

* a page can be programmed only once between erases;
* pages within a block must be programmed in strictly ascending order;
* an erase wipes all pages and increments the block's P/E cycle count;
* a block whose P/E count exceeds the rated endurance becomes *bad*.

Note what is deliberately **absent**: the chip does not know which pages are
logically valid or invalid.  Valid/invalid bookkeeping is address-management
state and therefore belongs to whoever performs the address translation —
the on-device FTL in the baseline (:mod:`repro.ftl`) or the DBMS itself
under NoFTL (:mod:`repro.core`).

**Storage layout.**  Page state is kept in flat parallel columns rather
than one Python object per page: payloads in a list (each the very
``bytes`` or :class:`~repro.flash.payload.DeferredImage` it was programmed
with), OOB metadata fields
(``lpn``, ``seq``, ``obj_id``) in integer arrays with ``-1`` as the "not
set" sentinel (``seq = -1``: the page carries no OOB record at all), and
free-form ``extra`` annotations in a sparse dict (only atomic-write
batches use them).  Because NAND programs pages strictly in
order and an erase wipes the whole block, "page ``p`` is programmed" is
exactly ``p < write_pointer`` — no per-page flag is stored.  A
:class:`PageMetadata` record is materialised only when a caller asks for
one (:meth:`Block.metadata`, the OOB read); :meth:`Block.read_data` (the
one implementation of a page read) returns the payload alone, and
:meth:`Block.program`, the one implementation of page programming, takes
the OOB fields as integers and never allocates one.
At paper scale (64 dies × thousands of blocks × 32+ pages) this replaces
millions of per-page objects with a handful of arrays per block.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from repro.flash.errors import (
    BadBlockError,
    ConfigError,
    EraseError,
    ProgramError,
    ReadError,
)
from repro.flash.payload import Payload


@dataclass
class PageMetadata:
    """Out-of-band (OOB) metadata stored with each page.

    The native flash interface of the paper (Figure 1) exposes *handle Page
    Metadata* as a first-class command: the host stores its own bookkeeping
    (logical page number, write sequence, owning object) in the spare area
    so address-translation state can be rebuilt after a crash.

    Attributes:
        lpn: logical page number the payload belongs to, or ``None``.
        seq: monotonically increasing write sequence number.
        obj_id: identifier of the owning database object, or ``None``.
        extra: free-form host annotations.
    """

    lpn: int | None = None
    seq: int = 0
    obj_id: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)


class Block:
    """One erase block of ``pages_per_block`` pages.

    Tracks the write pointer (next page that may legally be programmed),
    the erase count and the bad flag.  All latency accounting lives in the
    device layer; the block is pure state, held as flat per-page columns
    (see the module docstring for the layout).
    """

    __slots__ = (
        "_data",
        "_lpn",
        "_seq",
        "_obj",
        "_extra",
        "_write_pointer",
        "_erase_count",
        "_reads_since_erase",
        "_max_pe_cycles",
        "_bad",
    )

    def __init__(self, pages_per_block: int, max_pe_cycles: int) -> None:
        if pages_per_block <= 0:
            raise ConfigError("pages_per_block must be positive")
        #: page payloads; ``None`` for never/erased pages
        self._data: list[Payload | None] = [None] * pages_per_block
        #: OOB columns, ``-1`` = field not set (``None`` in PageMetadata);
        #: ``seq = -1`` = no OOB record (its OOB read is ``None``, not an
        #: empty record)
        self._lpn = array("q", bytes(8 * pages_per_block))
        self._seq = array("q", bytes(8 * pages_per_block))
        self._obj = array("q", bytes(8 * pages_per_block))
        #: sparse free-form annotations: page -> dict (atomic batches only)
        self._extra: dict[int, dict[str, Any]] = {}
        self._write_pointer = 0
        self._erase_count = 0
        self._reads_since_erase = 0
        self._max_pe_cycles = max_pe_cycles
        self._bad = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pages_per_block(self) -> int:
        """Number of pages in this block."""
        return len(self._data)

    @property
    def write_pointer(self) -> int:
        """Index of the next page that may be programmed (== pages programmed)."""
        return self._write_pointer

    @property
    def erase_count(self) -> int:
        """P/E cycles this block has endured."""
        return self._erase_count

    @property
    def reads_since_erase(self) -> int:
        """Page reads since the last erase (the read-disturb counter)."""
        return self._reads_since_erase

    @property
    def is_bad(self) -> bool:
        """Whether the block has been retired (worn out or marked bad)."""
        return self._bad

    @property
    def is_full(self) -> bool:
        """Whether every page has been programmed since the last erase."""
        return self._write_pointer >= len(self._data)

    @property
    def is_erased(self) -> bool:
        """Whether no page has been programmed since the last erase."""
        return self._write_pointer == 0

    # ------------------------------------------------------------------
    # Commands (state transitions only; timing handled by the device)
    # ------------------------------------------------------------------
    def program(
        self, page: int, data: Payload, lpn: int, seq: int, obj_id: int,
        extra: dict[str, Any] | None = None,
    ) -> None:
        """Program ``page`` with its OOB fields as raw ints.

        ``-1`` encodes "not set" for ``lpn``/``obj_id``; ``seq = -1``
        programs the page with no OOB record at all.  Enforces
        once-per-erase programming and in-order page programming.
        """
        if self._bad:
            raise BadBlockError("cannot program a bad block")
        if page != self._write_pointer:
            if page < self._write_pointer:
                raise ProgramError(f"page {page} already programmed since last erase")
            raise ProgramError(
                f"out-of-order program: page {page}, expected page {self._write_pointer} "
                "(NAND requires sequential programming within a block)"
            )
        self._data[page] = data
        self._lpn[page] = lpn
        self._seq[page] = seq
        self._obj[page] = obj_id
        if extra:
            self._extra[page] = extra
        else:
            self._extra.pop(page, None)
        self._write_pointer += 1

    def oob(self, page: int) -> tuple[int, int, int, dict[str, Any] | None]:
        """``(lpn, seq, obj_id, extra)`` of a programmed page, as
        :meth:`program` takes them; reads no payload and counts no read."""
        return self._lpn[page], self._seq[page], self._obj[page], self._extra.get(page)

    def metadata(self, page: int) -> PageMetadata | None:
        """Materialise the OOB record of a programmed page (or ``None``)."""
        seq = self._seq[page]
        if seq < 0:
            return None
        lpn = self._lpn[page]
        obj = self._obj[page]
        extra = self._extra.get(page)
        return PageMetadata(
            lpn=None if lpn < 0 else lpn,
            seq=seq,
            obj_id=None if obj < 0 else obj,
            extra={} if extra is None else extra,
        )

    def read_data(self, page: int) -> Payload:
        """Payload of a programmed page: the one implementation of a read.

        Refuses a bad block and an unprogrammed page, and counts the read
        towards read disturb.  The OOB columns are not touched, so no
        :class:`PageMetadata` is allocated for a caller that only wants the
        page image.
        """
        if self._bad:
            raise BadBlockError("cannot read a bad block")
        if page >= self._write_pointer or page < 0:
            raise ReadError(f"page {page} has not been programmed")
        self._reads_since_erase += 1
        data = self._data[page]
        assert data is not None
        return data

    def copy_page_to(self, page: int, dst: "Block", dst_page: int) -> None:
        """On-die copyback transfer: program ``dst_page`` of ``dst`` from ``page``.

        The OOB record travels unchanged (column copy, no
        :class:`PageMetadata` materialisation).  Counts as one read on this
        block, as :meth:`read_data` does — also when the destination
        program fails.
        """
        dst.program(dst_page, self.read_data(page), *self.oob(page))

    def erase(self) -> None:
        """Erase the whole block, incrementing the P/E cycle count.

        If the erase pushes the block past its rated endurance the block is
        retired and :class:`~repro.flash.errors.WearOutError` propagates to
        the caller via the device layer marking it bad; here we simply flag
        it — the erase itself still succeeds, matching how real blocks fail
        gradually after their rating.
        """
        if self._bad:
            raise EraseError("cannot erase a bad block")
        # drop payload references (frees the page images); the OOB integer
        # columns are sentinel-free garbage until re-programmed and are
        # unreachable through the write pointer
        data = self._data
        for i in range(self._write_pointer):
            data[i] = None
        self._extra.clear()
        self._write_pointer = 0
        self._erase_count += 1
        self._reads_since_erase = 0
        if self._erase_count >= self._max_pe_cycles:
            self._bad = True

    def mark_bad(self) -> None:
        """Retire this block (manufacture-time or grown bad block)."""
        self._bad = True
