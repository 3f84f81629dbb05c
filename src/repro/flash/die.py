"""One flash die: the state of its erase blocks as flat columns, and its
occupancy timeline.

A die is the unit of command-level parallelism (and the unit NoFTL regions
allocate).  It executes one array operation at a time, which its
:class:`~repro.flash.simclock.ResourceTimeline` models.

The die holds only what NAND itself knows:

* a page can be programmed only once between erases;
* pages within a block must be programmed in strictly ascending order;
* an erase wipes all pages and increments the block's P/E cycle count;
* a block whose P/E count reaches the rated endurance becomes *bad*.

Note what is deliberately **absent**: the die does not know which pages are
logically valid or invalid.  Valid/invalid bookkeeping is address-management
state and therefore belongs to whoever performs the address translation —
the on-device FTL in the baseline (:mod:`repro.ftl`) or the DBMS itself
under NoFTL (:mod:`repro.core`).

**Storage layout.**  There is no object per block or per page: the die
keeps flat columns, the per-page ones indexed by the die-local page
``block * pages_per_block + page``, the per-block ones by ``block``.  Per
page: the payload (the very ``bytes`` or
:class:`~repro.flash.payload.DeferredImage` it was programmed with), its
length (measured once, at PROGRAM), the OOB fields ``lpn``, ``seq`` and
``obj_id`` in integer arrays with ``-1`` as the "not set" sentinel
(``seq = -1``: the page carries no OOB record at all), and free-form
``extra`` annotations in one sparse dict (only atomic-write batches use
them).  Per block: the write pointer, the erase count, the read-disturb
count and the bad flag.  Because NAND programs pages strictly in order and
an erase wipes the whole block, "page ``p`` is programmed" is exactly
``p < write_pointer`` — no per-page flag is stored, and the length and OOB
entries of an erased page are garbage nobody can reach.  A
:class:`PageMetadata` record is materialised only when a caller asks for
one (:meth:`Die.metadata`, the OOB read).  At paper scale (64 dies ×
thousands of blocks × 32+ pages) this replaces millions of per-page
objects, and hundreds of thousands of per-block ones, with a handful of
arrays per die.

The commands themselves — the NAND checks and the column updates of READ
PAGE, PROGRAM PAGE, COPYBACK and ERASE BLOCK — run in the frame of the
:class:`~repro.flash.device.FlashDevice` command; the methods here are the
small read-side accessors the management layers use, plus
:meth:`Die.mark_bad`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from repro.flash.geometry import FlashGeometry
from repro.flash.payload import Payload
from repro.flash.simclock import ResourceTimeline


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


class Die:
    """One flash die: ``blocks_per_die`` erase blocks as flat columns and a
    busy timeline (see the module docstring for the layout)."""

    __slots__ = (
        "index",
        "timeline",
        "pages_per_block",
        "page_data",
        "page_length",
        "page_lpn",
        "page_seq",
        "page_obj",
        "page_extra",
        "block_wp",
        "block_erases",
        "block_reads",
        "block_bad",
    )

    def __init__(self, index: int, geometry: FlashGeometry) -> None:
        self.index = index
        self.timeline = ResourceTimeline(name=f"die{index}")
        self.pages_per_block = geometry.pages_per_block
        pages = geometry.pages_per_die
        blocks = geometry.blocks_per_die
        #: per page: payloads, ``None`` for never/erased pages
        self.page_data: list[Payload | None] = [None] * pages
        #: per page: ``len()`` of the payload, measured at PROGRAM
        self.page_length = array("i", [0]) * pages
        #: per page: OOB columns, ``-1`` = field not set (``None`` in
        #: PageMetadata); ``seq = -1`` = no OOB record
        self.page_lpn = array("q", [0]) * pages
        self.page_seq = array("q", [0]) * pages
        self.page_obj = array("q", [0]) * pages
        #: sparse free-form annotations: die-local page -> dict (atomic
        #: batches only)
        self.page_extra: dict[int, dict[str, Any]] = {}
        #: per block: next page that may be programmed (== pages programmed)
        self.block_wp: list[int] = [0] * blocks
        #: per block: P/E cycles endured
        self.block_erases: list[int] = [0] * blocks
        #: per block: page reads since the last erase (read disturb)
        self.block_reads: list[int] = [0] * blocks
        #: per block: 1 once retired (worn out or marked bad)
        self.block_bad = bytearray(blocks)

    # ------------------------------------------------------------------
    # Per-block accessors
    # ------------------------------------------------------------------
    def write_pointer(self, block: int) -> int:
        """Index of the next page of ``block`` that may be programmed."""
        return self.block_wp[block]

    def erase_count(self, block: int) -> int:
        """P/E cycles ``block`` has endured."""
        return self.block_erases[block]

    def reads_since_erase(self, block: int) -> int:
        """Page reads of ``block`` since its last erase (read disturb)."""
        return self.block_reads[block]

    def is_bad(self, block: int) -> bool:
        """Whether ``block`` has been retired (worn out or marked bad)."""
        return self.block_bad[block] != 0

    def bad_blocks(self) -> list[int]:
        """Indices of the retired blocks, ascending."""
        return [b for b, bad in enumerate(self.block_bad) if bad]

    def mark_bad(self, block: int) -> None:
        """Retire ``block`` (manufacture-time or grown bad block)."""
        self.block_bad[block] = 1

    # ------------------------------------------------------------------
    # OOB of a programmed page (no read counted, no payload touched)
    # ------------------------------------------------------------------
    def oob(self, block: int, page: int) -> tuple[int, int, int, dict[str, Any] | None]:
        """``(lpn, seq, obj_id, extra)`` of a programmed page, as PROGRAM
        PAGE takes them."""
        i = block * self.pages_per_block + page
        return self.page_lpn[i], self.page_seq[i], self.page_obj[i], self.page_extra.get(i)

    def metadata(self, block: int, page: int) -> PageMetadata | None:
        """Materialise the OOB record of a programmed page (or ``None``)."""
        lpn, seq, obj, extra = self.oob(block, page)
        if seq < 0:
            return None
        return PageMetadata(
            lpn=None if lpn < 0 else lpn,
            seq=seq,
            obj_id=None if obj < 0 else obj,
            extra={} if extra is None else extra,
        )

    # ------------------------------------------------------------------
    # Wear reductions
    # ------------------------------------------------------------------
    @property
    def total_erase_count(self) -> int:
        """Sum of P/E cycles over all blocks of this die."""
        return sum(self.block_erases)

    def erase_counts(self) -> list[int]:
        """Per-block erase counts (a copy, for wear histograms)."""
        return self.block_erases.copy()
