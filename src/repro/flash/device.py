"""The native flash device: command set, timing and contention.

:class:`FlashDevice` exposes exactly the native interface of the paper's
Figure 1 — *Read/Program Page, Erase Block, Copyback, handle Page Metadata*
— plus the geometry and per-die/per-channel occupancy timelines that make
data placement matter.

Each command has one form, on integer coordinates: a global die index, a
die-local block and a block-local page, which every caller derives from
its own bookkeeping.  It takes the caller's virtual time ``at``, runs the
fault hook before any state changes or any time is reserved, and returns
the granted ``(start_us, end_us)`` slot (READ PAGE and the OOB read put
what they read in front).  The coordinates are trusted; the block still
refuses what NAND refuses (a bad block, an unprogrammed page, an
out-of-order or repeated program).  Commands contend for two resources:

* the **die** (one array operation at a time), and
* the **channel** (shared by all chips on it, used only for host transfers —
  copyback and erase never move data over the channel, which is precisely
  why GC prefers copyback).

Payloads follow one rule (:mod:`repro.flash.payload`): a program stores a
``bytes`` or a :class:`~repro.flash.payload.DeferredImage` as given, READ
PAGE and COPYBACK hand back that same object, and the statistics count its
``len()``; only a ``bytearray`` or ``memoryview`` is copied.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.flash.block import Block, PageMetadata
from repro.flash.die import Die
from repro.flash.errors import ConfigError, CopybackError, DataError
from repro.flash.geometry import FlashGeometry
from repro.flash.payload import DeferredImage, Payload
from repro.flash.simclock import ResourceTimeline, SimClock
from repro.flash.stats import FlashStats
from repro.flash.timing import DEFAULT_TIMING, TimingModel

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class FlashDevice:
    """A simulated native flash device (a loose set of flash dies).

    Args:
        geometry: physical shape of the device.
        timing: latency model; defaults to :data:`~repro.flash.timing.DEFAULT_TIMING`.
        clock: shared virtual clock; a fresh one is created if omitted.
        initial_bad_block_rate: fraction of blocks marked bad at
            "manufacture time" (deterministic given ``seed``).
        strict_plane_copyback: if ``True``, COPYBACK additionally requires
            source and destination to share a plane, as on strict hardware.
        seed: RNG seed for bad-block placement.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: TimingModel | None = None,
        clock: SimClock | None = None,
        initial_bad_block_rate: float = 0.0,
        strict_plane_copyback: bool = False,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= initial_bad_block_rate < 1.0:
            raise ConfigError("initial_bad_block_rate must be in [0, 1)")
        self.geometry = geometry
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self.clock = clock if clock is not None else SimClock()
        self.strict_plane_copyback = strict_plane_copyback
        #: optional fault injector (:mod:`repro.faults`); ``None`` (the
        #: default) costs one attribute test per command
        self.faults: FaultInjector | None = None
        self.dies: list[Die] = [Die(i, geometry) for i in range(geometry.dies)]
        self.channels: list[ResourceTimeline] = [
            ResourceTimeline(name=f"ch{i}") for i in range(geometry.channels)
        ]
        self.stats = FlashStats(dies=geometry.dies)
        # hot-path constants: the mutating commands run per simulated page
        # write, so the per-call property/bus-math cost is pinned here
        self._die_channels: list[ResourceTimeline] = [
            self.channels[geometry.channel_of_die(d)] for d in range(geometry.dies)
        ]
        self._die_timelines: list[ResourceTimeline] = [d.timeline for d in self.dies]
        self._die_blocks: list[list[Block]] = [d.blocks for d in self.dies]
        self._page_size = geometry.page_size
        self._page_bus_us = self.timing.bus_us(geometry.page_size, geometry.page_size)
        self._read_us = self.timing.read_us
        self._program_us = self.timing.program_us
        self._erase_us = self.timing.erase_us
        self._copyback_us = self.timing.copyback_us
        self._seq = 0
        if initial_bad_block_rate > 0.0:
            rng = random.Random(seed)
            for die in self.dies:
                for block in die.blocks:
                    if rng.random() < initial_bad_block_rate:
                        block.mark_bad()

    # ------------------------------------------------------------------
    # Write sequence numbers
    # ------------------------------------------------------------------
    def next_sequence(self) -> int:
        """Monotonic write sequence number for page metadata."""
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Native command set
    # ------------------------------------------------------------------
    def read_metadata(
        self, die: int, block: int, page: int, at: float
    ) -> tuple[PageMetadata | None, float, float]:
        """Handle Page Metadata: read only the OOB area of a page.

        Returns ``(metadata, start_us, end_us)``.  Cheaper than a full page
        read (partial bus transfer); used by the host to rebuild translation
        state at recovery time.  No fault hook: a recovery scan never trips
        a fresh fault.
        """
        flash_block = self._die_blocks[die][block]
        flash_block.read_data(page)  # refuses a bad block or unprogrammed page
        metadata = flash_block.metadata(page)
        start, array_done = self._die_timelines[die].reserve(at, self._read_us)
        bus = self.timing.bus_us(self.geometry.oob_size, self._page_size)
        __, end = self._die_channels[die].reserve(array_done, bus)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += self.geometry.oob_size
        stats.reads_per_die[die] += 1
        stats.read_latency_total_us += end - at
        self.clock.advance_to(end)
        return metadata, start, end

    def read_page_packed(
        self, die: int, block: int, page: int, at: float
    ) -> tuple[Payload, float, float]:
        """READ PAGE: array read on the die, then transfer over the channel.

        Returns ``(data, start_us, end_us)``.  The block refuses an
        unprogrammed page and a bad block.  The page's OOB record is not
        materialised.
        """
        if self.faults is not None:
            # before the block counts the read or a timeline is reserved:
            # a failed read leaves no trace but the injector's own
            self.faults.on_command(self, "read_page", die, block, page)
        data = self._die_blocks[die][block].read_data(page)
        start, array_done = self._die_timelines[die].reserve(at, self._read_us)
        __, end = self._die_channels[die].reserve(array_done, self._page_bus_us)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += len(data)
        stats.reads_per_die[die] += 1
        stats.read_latency_total_us += end - at
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return data, start, end

    def _payload(self, data: object) -> Payload:
        """The one payload rule of every program path: ``bytes`` and a
        :class:`~repro.flash.payload.DeferredImage` are stored as given (a
        read hands back that object), ``bytearray`` / ``memoryview`` are
        copied, anything else is refused, and so is a payload whose
        ``len()`` exceeds the page size."""
        if not isinstance(data, (bytes, DeferredImage)):
            if not isinstance(data, (bytearray, memoryview)):
                raise DataError(
                    f"page payload must be bytes-like, got {type(data).__name__}"
                )
            data = bytes(data)
        if len(data) > self._page_size:
            raise DataError(
                f"payload of {len(data)} bytes exceeds page size {self._page_size}"
            )
        return data

    def program_page_packed(
        self, die: int, block: int, page: int, data: Payload,
        lpn: int, seq: int, obj_id: int, at: float,
        extra: dict[str, Any] | None = None,
    ) -> tuple[float, float]:
        """PROGRAM PAGE: transfer over the channel, then program the array.

        The OOB record is ``PageMetadata(lpn, seq, obj_id, extra)`` with
        ``-1`` for an unset ``lpn``/``obj_id``; ``seq = -1`` programs the
        page with no OOB record.  The payload is checked.
        """
        if type(data) is not bytes or len(data) > self._page_size:
            # the one payload rule; plain bytes that fit are its identity
            # case, so the per-write hot path skips the call for them
            data = self._payload(data)
        if self.faults is not None:
            # before any state mutates: a program fault leaves the page
            # unprogrammed and the timelines unreserved
            self.faults.on_command(self, "program_page", die, block, page)
        start, xfer_done = self._die_channels[die].reserve(at, self._page_bus_us)
        __, end = self._die_timelines[die].reserve(xfer_done, self._program_us)
        self._die_blocks[die][block].program(page, data, lpn, seq, obj_id, extra)
        stats = self.stats
        stats.programs += 1
        stats.bytes_written += len(data)
        stats.programs_per_die[die] += 1
        stats.program_latency_total_us += end - at
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return start, end

    def copyback_packed(
        self, die: int, src_block: int, src_page: int,
        dst_block: int, dst_page: int, at: float,
    ) -> tuple[float, float]:
        """COPYBACK: move a page within one die without a host transfer.

        The payload travels cell array -> page register -> cell array
        entirely on-die, so only the die timeline is occupied.  The source
        OOB record travels unchanged, write sequence number included.
        """
        if self.strict_plane_copyback:
            src_plane = self.geometry.plane_of_block(src_block)
            dst_plane = self.geometry.plane_of_block(dst_block)
            if src_plane != dst_plane:
                raise CopybackError(
                    f"strict plane copyback: die {die} block {src_block} (plane {src_plane})"
                    f" -> block {dst_block} (plane {dst_plane})"
                )
        if self.faults is not None:
            self.faults.on_command(self, "copyback", die, src_block, src_page)
        blocks = self._die_blocks[die]
        blocks[src_block].copy_page_to(src_page, blocks[dst_block], dst_page)
        start, end = self._die_timelines[die].reserve(at, self._copyback_us)
        self.stats.copybacks += 1
        self.stats.copybacks_per_die[die] += 1
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return start, end

    def erase_block_packed(self, die: int, block: int, at: float) -> tuple[float, float]:
        """ERASE BLOCK: array-only operation, no channel occupancy."""
        if self.faults is not None:
            self.faults.on_command(self, "erase_block", die, block)
        self._die_blocks[die][block].erase()
        if self.faults is not None:
            self.faults.after_erase(self, die, block)
        start, end = self._die_timelines[die].reserve(at, self._erase_us)
        self.stats.erases += 1
        self.stats.erases_per_die[die] += 1
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return start, end

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def attach_fault_injector(self, injector: FaultInjector) -> FaultInjector:
        """Wire a :class:`~repro.faults.injector.FaultInjector` into every
        injectable command (OOB metadata reads are exempt, so recovery
        scans never trip fresh faults).  Off by default; with no injector
        attached each command pays one ``is not None`` test.  The device
        passes itself to every hook, so the injector holds no reference
        back to it."""
        self.faults = injector
        return injector

    # ------------------------------------------------------------------
    # Wear / health reporting
    # ------------------------------------------------------------------
    def erase_counts(self) -> list[list[int]]:
        """Per-die lists of per-block erase counts."""
        return [die.erase_counts() for die in self.dies]

    def max_erase_count(self) -> int:
        """Highest per-block erase count anywhere on the device."""
        return max((b.erase_count for die in self.dies for b in die.blocks), default=0)

    def total_erase_count(self) -> int:
        """Sum of erase counts over the whole device."""
        return sum(die.total_erase_count for die in self.dies)

    def die_utilizations(self, horizon: float | None = None) -> list[float]:
        """Busy fraction of each die over ``[0, horizon]`` (default: now)."""
        h = self.clock.now if horizon is None else horizon
        return [die.timeline.utilization(h) for die in self.dies]

    def channel_utilizations(self, horizon: float | None = None) -> list[float]:
        """Busy fraction of each channel over ``[0, horizon]`` (default: now)."""
        h = self.clock.now if horizon is None else horizon
        return [ch.utilization(h) for ch in self.channels]
