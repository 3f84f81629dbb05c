"""Buffer manager: CLOCK replacement, dirty write-back, background flusher.

The buffer pool caches *decoded page objects* (slotted pages, B+-tree
nodes) keyed by ``(space_id, page_no)``, so buffer hits are as cheap as
they are on a real engine.  A miss decodes the flash image; an eviction or
flush writes the page back *without encoding it*: the frame's ``encoder``
(:meth:`~repro.db.slotted_page.SlottedPage.image`,
:meth:`~repro.db.btree.NodeCodec.image`) returns a
:class:`~repro.flash.payload.DeferredImage`, a frozen snapshot of the page
whose bytes are built only if something reads them, and the backend
stores that object as the page's content.  Page images are encoded when
read, not when written — and since a miss on an image the pool wrote
itself reinstalls the page object (below), nothing on a benchmark path
reads them.  Whatever a page object carries beyond its image (a slotted
page keeps the rows decoded from it) lives and dies with its frame, so the
pool's capacity bounds that too.

What a miss costs: the read is always issued, the decode only when the
image changed.  A frame remembers the image its page object was last
coded from (the payload a miss decoded, or the deferred image a
write-back handed the backend), and eviction parks ``(image, page
object)`` under the page's key, a slotted page without its decoded rows.
A miss calls ``backend.read_page`` first, so simulated time, device
counters, read disturb and fault hooks see the same traffic as ever; when
the payload it returns *is* the parked image (``is``, not ``==``: the
flash device, GC copyback and the in-memory test backend hand back the
object that was written), the parked object is reinstalled instead of
decoded.  Any rewrite, copy or fault makes a new object, which is decoded
(from its bytes: a decoder starts with ``bytes(data)``).  This is exact
because every page codec round-trips (property-tested), an image's
snapshot is immutable, and a page object changes only through callers
that mark it dirty before the pool runs again.  :meth:`BufferPool.drop`
forgets the parked entry; there is at most one per page of the database.

:meth:`BufferPool.get` is the only door to a buffered page, and what one
touch of it costs is fixed: it counts towards the next flush round,
charges ``cpu_us_per_op`` of virtual time, counts as a hit or a miss, sets
the frame's reference bit and, on request, pins it.  A hit does nothing
else — one dict probe between those — so heap files and B-trees bind
``pool.get`` once, when they are built, and call it positionally with the
page codec they also bound once.  (At construction, not at import:
whatever wraps the method on the class before a storage stack is built —
the end-to-end benchmark's tracer does — is what gets bound.)

Replacement is CLOCK over a ring of keys in installation order.  The
sweep hands :meth:`BufferPool._make_room` the ring position of its victim
and the entry is deleted there; the hand, already one past it, is not
moved back when the ring closes up, so the next sweep starts one frame
further on.  Every simulated result depends on that eviction order.

Flushers (Figure 1 shows them as a first-class component) are modelled as
a budgeted background write-back: every ``flusher_interval`` page
operations (``get`` and ``put_new``, refused ones included), up to
``flusher_batch`` dirty unpinned pages are written out.  The round runs
inside the ``flusher_interval``-th operation since the last one, before
that operation is served; the pool counts down to it in one attribute.
Those writes reserve device time (they contend with foreground I/O on the
die/channel timelines) but do not advance the caller's clock — they are
asynchronous, exactly like a checkpointer racing user transactions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.db.backend import StorageBackend
from repro.db.slotted_page import SlottedPage
from repro.flash.payload import Payload


class BufferError(Exception):
    """Invalid buffer operation (bad unpin, pool of pinned pages, ...)."""


@dataclass(slots=True)
class _Frame:
    """One buffer frame."""

    key: tuple[int, int]
    page: object
    #: the page's image as a write-back hands it to the backend
    encoder: Callable[[object], Payload]
    #: what ``page`` was last decoded from or written back as (``None`` for
    #: a fresh page until its first write-back)
    image: Payload | None = None
    dirty: bool = False
    pin_count: int = 0
    referenced: bool = True


@dataclass
class BufferStats:
    """Hit/miss/write-back counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flusher_writes: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """Flat numeric view (``Snapshottable``); the registry mounts it
        under ``db.buffer``."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "dirty_evictions": float(self.dirty_evictions),
            "flusher_writes": float(self.flusher_writes),
            "hit_ratio": self.hit_ratio,
        }


class BufferPool:
    """A page cache between the DBMS and a storage backend.

    Args:
        backend: where misses read from and write-back goes to.
        capacity: number of page frames.
        flusher_interval: page operations between background flush rounds
            (0 disables the flusher).
        flusher_batch: max dirty pages written per flush round.
        cpu_us_per_op: CPU time charged per page access (hit or miss).
            Real engines spend microseconds of latching/search/codec work
            per page touch; charging it keeps virtual time moving even for
            cache-hot transactions, so I/O arrivals are realistically
            spaced instead of bursting at one instant.
    """

    def __init__(
        self,
        backend: StorageBackend,
        capacity: int = 256,
        flusher_interval: int = 64,
        flusher_batch: int = 8,
        cpu_us_per_op: float = 5.0,
    ) -> None:
        if capacity < 4:
            raise ValueError("buffer pool needs at least 4 frames")
        if cpu_us_per_op < 0:
            raise ValueError("cpu_us_per_op must be >= 0")
        self.backend = backend
        self.capacity = capacity
        self.flusher_interval = flusher_interval
        self.flusher_batch = flusher_batch
        self.cpu_us_per_op = cpu_us_per_op
        self.stats = BufferStats()
        self._frames: dict[tuple[int, int], _Frame] = {}
        #: evicted page -> (its frame's image, its page object)
        self._parked: dict[tuple[int, int], tuple[Payload | None, object]] = {}
        self._clock_keys: list[tuple[int, int]] = []
        self._clock_hand = 0
        # touches left until the next flush round; an interval <= 0 starts
        # at or below zero and only moves away from it, so no round fires
        self._until_flush = flusher_interval

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    def get(
        self,
        space_id: int,
        page_no: int,
        at: float,
        decoder: Callable[[Payload], object],
        encoder: Callable[[object], Payload],
        pin: bool = False,
    ) -> tuple[object, float]:
        """Fetch a page object, reading from the backend on a miss.

        Returns ``(page_object, completion_us)``.  With ``pin=True`` the
        frame cannot be evicted until :meth:`unpin`.  A miss decodes the
        image read unless it is the very image the page was parked with.
        """
        self._until_flush = until_flush = self._until_flush - 1
        if not until_flush:
            self._flush_round(at)
        key = (space_id, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            frame.referenced = True
            if pin:
                frame.pin_count += 1
            return frame.page, at + self.cpu_us_per_op
        self.stats.misses += 1
        at = self._make_room(at + self.cpu_us_per_op)
        data, at = self.backend.read_page(space_id, page_no, at)
        parked = self._parked.pop(key, None)
        if parked is not None and parked[0] is data:
            page = parked[1]
        else:
            page = decoder(data)
        frame = _Frame(key=key, page=page, encoder=encoder, image=data)
        self._install(frame)
        if pin:
            frame.pin_count += 1
        return frame.page, at

    def put_new(
        self,
        space_id: int,
        page_no: int,
        page: object,
        encoder: Callable[[object], Payload],
        at: float,
        pin: bool = False,
    ) -> float:
        """Install a freshly allocated page (dirty, no read needed)."""
        self._until_flush = until_flush = self._until_flush - 1
        if not until_flush:
            self._flush_round(at)
        at += self.cpu_us_per_op
        key = (space_id, page_no)
        if key in self._frames:
            raise BufferError(f"page {key} already buffered")
        at = self._make_room(at)
        frame = _Frame(key=key, page=page, encoder=encoder, dirty=True)
        self._install(frame)
        if pin:
            frame.pin_count += 1
        return at

    def mark_dirty(self, space_id: int, page_no: int) -> None:
        """Mark a buffered page as modified."""
        frame = self._frames.get((space_id, page_no))
        if frame is None:
            raise BufferError(f"page ({space_id}, {page_no}) is not buffered")
        frame.dirty = True

    def unpin(self, space_id: int, page_no: int) -> None:
        """Release one pin on a page."""
        frame = self._frames.get((space_id, page_no))
        if frame is None or frame.pin_count == 0:
            raise BufferError(f"page ({space_id}, {page_no}) is not pinned")
        frame.pin_count -= 1

    def drop(self, space_id: int, page_no: int) -> None:
        """Discard a page without write-back (page was freed), buffered or
        parked."""
        self._parked.pop((space_id, page_no), None)
        frame = self._frames.pop((space_id, page_no), None)
        if frame is not None:
            self._clock_keys.remove(frame.key)
            if self._clock_hand >= len(self._clock_keys):
                self._clock_hand = 0

    def flush_page(self, space_id: int, page_no: int, at: float) -> float:
        """Write one dirty page out (no-op if clean or absent)."""
        frame = self._frames.get((space_id, page_no))
        if frame is None or not frame.dirty:
            return at
        return self._write_back(frame, at)

    def flush_all(self, at: float) -> float:
        """Checkpoint: write out every dirty page (deterministic order)."""
        for key in sorted(self._frames):
            at = self.flush_page(key[0], key[1], at)
        return at

    def buffered_pages(self) -> int:
        """Number of pages currently in the pool."""
        return len(self._frames)

    def is_buffered(self, space_id: int, page_no: int) -> bool:
        """Whether a page is currently cached."""
        return (space_id, page_no) in self._frames

    # ------------------------------------------------------------------
    # Replacement & flusher
    # ------------------------------------------------------------------
    def _write_back(self, frame: _Frame, at: float) -> float:
        """Write a dirty frame's page as its ``encoder`` images it (a
        deferred image: nothing is encoded here); returns completion time.
        The frame is clean after, and its image is what was written."""
        image = frame.encoder(frame.page)
        at = self.backend.write_page(frame.key[0], frame.key[1], image, at)
        frame.image = image
        frame.dirty = False
        return at

    def _install(self, frame: _Frame) -> None:
        self._frames[frame.key] = frame
        self._clock_keys.append(frame.key)

    def _make_room(self, at: float) -> float:
        if len(self._frames) < self.capacity:
            return at
        index, victim = self._pick_victim()
        key, page = victim.key, victim.page
        if victim.dirty:
            at = self._write_back(victim, at)
            self.stats.dirty_evictions += 1
        self.stats.evictions += 1
        if isinstance(page, SlottedPage):
            page.rows.clear()  # a parked page keeps no rows (see slotted_page)
        self._parked[key] = (victim.image, page)
        del self._frames[key]
        # the hand, one past ``index``, is NOT moved back: the eviction order
        # every simulated counter depends on (see the module docstring)
        del self._clock_keys[index]
        if self._clock_hand >= len(self._clock_keys):
            self._clock_hand = 0
        return at

    def _pick_victim(self) -> tuple[int, _Frame]:
        """CLOCK sweep: skip pinned frames, clear reference bits.

        Returns the victim's position in the ring and its frame.
        """
        sweeps = 0
        limit = 2 * len(self._clock_keys) + 1
        while sweeps < limit:
            index = self._clock_hand
            self._clock_hand = (index + 1) % len(self._clock_keys)
            frame = self._frames[self._clock_keys[index]]
            sweeps += 1
            if frame.pin_count > 0:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return index, frame
        raise BufferError("every buffer frame is pinned; cannot evict")

    def _flush_round(self, at: float) -> None:
        """One background flush round: ``get``/``put_new`` call it every
        ``flusher_interval`` page operations."""
        self._until_flush = self.flusher_interval
        written = 0
        # sweep in clock order so the flusher cleans what eviction would
        # otherwise stall on; a write-back never touches the ring, so the
        # sweep walks it in place
        for key in self._clock_keys:
            if written >= self.flusher_batch:
                break
            frame = self._frames[key]
            if frame.dirty and frame.pin_count == 0:
                # asynchronous: reserves device time, caller's clock unmoved
                self._write_back(frame, at)
                self.stats.flusher_writes += 1
                written += 1
