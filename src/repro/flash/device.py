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
what they read in front).  The coordinates are trusted; each command still
refuses what NAND refuses (a bad block, an unprogrammed page, an
out-of-order, repeated or past-the-end program), before it reserves time
or changes state, and then updates the die's columns
(:mod:`repro.flash.die`) in its own frame.  Commands contend for two
resources:

* the **die** (one array operation at a time), and
* the **channel** (shared by all chips on it, used only for host transfers —
  copyback and erase never move data over the channel, which is precisely
  why GC prefers copyback).

Payloads follow one rule (:mod:`repro.flash.payload`): a program stores a
``bytes`` or a :class:`~repro.flash.payload.DeferredImage` as given, READ
PAGE and COPYBACK hand back that same object, and the statistics count its
length, measured once at PROGRAM and kept in the die's length column;
only a ``bytearray`` or ``memoryview`` is copied.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.flash.die import Die, PageMetadata
from repro.flash.errors import (
    BadBlockError,
    ConfigError,
    CopybackError,
    DataError,
    EraseError,
    ProgramError,
    ReadError,
)
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
        self._page_size = geometry.page_size
        self._pages_per_block = geometry.pages_per_block
        self._max_pe_cycles = geometry.max_pe_cycles
        self._erased_block: list[None] = [None] * geometry.pages_per_block
        self._page_bus_us = self.timing.bus_us(geometry.page_size, geometry.page_size)
        self._read_us = self.timing.read_us
        self._program_us = self.timing.program_us
        self._erase_us = self.timing.erase_us
        self._copyback_us = self.timing.copyback_us
        self._seq = 0
        if initial_bad_block_rate > 0.0:
            rng = random.Random(seed)
            for die in self.dies:
                for block in range(geometry.blocks_per_die):
                    if rng.random() < initial_bad_block_rate:
                        die.mark_bad(block)

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
        state at recovery time.  Refuses what READ PAGE refuses and counts
        towards read disturb like it.  No fault hook: a recovery scan never
        trips a fresh fault.
        """
        flash_die = self.dies[die]
        if flash_die.block_bad[block]:
            raise BadBlockError("cannot read a bad block")
        if not 0 <= page < flash_die.block_wp[block]:
            raise ReadError(f"page {page} has not been programmed")
        flash_die.block_reads[block] += 1
        metadata = flash_die.metadata(block, page)
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

        Returns ``(data, start_us, end_us)``.  Refuses an unprogrammed page
        and a bad block; counts the read towards read disturb.  The page's
        OOB record is not materialised, and the byte counter reads the
        length stored at PROGRAM.
        """
        if self.faults is not None:
            # before the read is counted or a timeline is reserved: a
            # failed read leaves no trace but the injector's own
            self.faults.on_command(self, "read_page", die, block, page)
        flash_die = self.dies[die]
        if flash_die.block_bad[block]:
            raise BadBlockError("cannot read a bad block")
        if not 0 <= page < flash_die.block_wp[block]:
            raise ReadError(f"page {page} has not been programmed")
        flash_die.block_reads[block] += 1
        index = block * self._pages_per_block + page
        start, array_done = self._die_timelines[die].reserve(at, self._read_us)
        __, end = self._die_channels[die].reserve(array_done, self._page_bus_us)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += flash_die.page_length[index]
        stats.reads_per_die[die] += 1
        stats.read_latency_total_us += end - at
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return flash_die.page_data[index], start, end

    def program_page_packed(
        self, die: int, block: int, page: int, data: Payload,
        lpn: int, seq: int, obj_id: int, at: float,
        extra: dict[str, Any] | None = None,
    ) -> tuple[float, float]:
        """PROGRAM PAGE: transfer over the channel, then program the array.

        The OOB record is ``PageMetadata(lpn, seq, obj_id, extra)`` with
        ``-1`` for an unset ``lpn``/``obj_id``; ``seq = -1`` programs the
        page with no OOB record.  The payload rule is checked and the
        payload's length measured once, here: ``bytes`` and a
        :class:`~repro.flash.payload.DeferredImage` are stored as given,
        ``bytearray`` / ``memoryview`` are copied, anything else is
        refused, and so is a payload longer than the page.  Then the NAND
        rules: no bad block, pages in order, each once per erase.
        """
        kind = type(data)
        if kind is bytes:
            size = len(data)
        elif kind is DeferredImage:
            size = data._length  # the image knows it; no __len__ frame
        elif isinstance(data, (bytes, DeferredImage)):
            size = len(data)
        elif isinstance(data, (bytearray, memoryview)):
            data = bytes(data)
            size = len(data)
        else:
            raise DataError(f"page payload must be bytes-like, got {kind.__name__}")
        if size > self._page_size:
            raise DataError(f"payload of {size} bytes exceeds page size {self._page_size}")
        if self.faults is not None:
            # before any state mutates: a program fault leaves the page
            # unprogrammed and the timelines unreserved
            self.faults.on_command(self, "program_page", die, block, page)
        flash_die = self.dies[die]
        if flash_die.block_bad[block]:
            raise BadBlockError("cannot program a bad block")
        written = flash_die.block_wp
        ppb = self._pages_per_block
        if page != written[block] or page >= ppb:
            raise _program_refusal(page, written[block], ppb)
        start, xfer_done = self._die_channels[die].reserve(at, self._page_bus_us)
        __, end = self._die_timelines[die].reserve(xfer_done, self._program_us)
        index = block * ppb + page
        flash_die.page_data[index] = data
        flash_die.page_length[index] = size
        flash_die.page_lpn[index] = lpn
        flash_die.page_seq[index] = seq
        flash_die.page_obj[index] = obj_id
        if extra:
            flash_die.page_extra[index] = extra
        written[block] = page + 1
        stats = self.stats
        stats.programs += 1
        stats.bytes_written += size
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
        must be readable and the destination programmable, as for READ
        PAGE and PROGRAM PAGE; a refusal leaves no trace.  The column
        entries move unchanged — payload, length and the OOB record, write
        sequence number included — and the source counts one read.
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
        flash_die = self.dies[die]
        bad = flash_die.block_bad
        written = flash_die.block_wp
        ppb = self._pages_per_block
        if bad[src_block]:
            raise BadBlockError("cannot read a bad block")
        if not 0 <= src_page < written[src_block]:
            raise ReadError(f"page {src_page} has not been programmed")
        if bad[dst_block]:
            raise BadBlockError("cannot program a bad block")
        if dst_page != written[dst_block] or dst_page >= ppb:
            raise _program_refusal(dst_page, written[dst_block], ppb)
        flash_die.block_reads[src_block] += 1
        src = src_block * ppb + src_page
        dst = dst_block * ppb + dst_page
        column = flash_die.page_data
        column[dst] = column[src]
        column = flash_die.page_length
        column[dst] = column[src]
        column = flash_die.page_lpn
        column[dst] = column[src]
        column = flash_die.page_seq
        column[dst] = column[src]
        column = flash_die.page_obj
        column[dst] = column[src]
        extras = flash_die.page_extra
        if extras and src in extras:
            extras[dst] = extras[src]
        written[dst_block] = dst_page + 1
        start, end = self._die_timelines[die].reserve(at, self._copyback_us)
        self.stats.copybacks += 1
        self.stats.copybacks_per_die[die] += 1
        clock = self.clock
        if end > clock._now:
            clock._now = end
        return start, end

    def erase_block_packed(self, die: int, block: int, at: float) -> tuple[float, float]:
        """ERASE BLOCK: array-only operation, no channel occupancy.

        Drops the block's payloads (one slice assignment), resets its write
        pointer and read-disturb count and adds a P/E cycle.  An erase that
        reaches the rated endurance still succeeds — real blocks fail
        gradually after their rating — but retires the block: it is bad
        from then on.
        """
        if self.faults is not None:
            self.faults.on_command(self, "erase_block", die, block)
        flash_die = self.dies[die]
        if flash_die.block_bad[block]:
            raise EraseError("cannot erase a bad block")
        ppb = self._pages_per_block
        base = block * ppb
        # drop payload references (frees the page images); the length and
        # OOB columns stay as garbage, unreachable through the write pointer
        flash_die.page_data[base:base + ppb] = self._erased_block
        extras = flash_die.page_extra
        if extras:
            for index in range(base, base + flash_die.block_wp[block]):
                extras.pop(index, None)
        flash_die.block_wp[block] = 0
        flash_die.block_reads[block] = 0
        cycles = flash_die.block_erases[block] + 1
        flash_die.block_erases[block] = cycles
        if cycles >= self._max_pe_cycles:
            flash_die.block_bad[block] = 1
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
        return max(max(die.block_erases) for die in self.dies)

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


def _program_refusal(page: int, write_pointer: int, pages_per_block: int) -> ProgramError:
    """What NAND says to a program of ``page`` into a block whose next
    programmable page is ``write_pointer``."""
    if page < write_pointer:
        return ProgramError(f"page {page} already programmed since last erase")
    if page >= pages_per_block:
        return ProgramError(f"page {page} is past the block's {pages_per_block} pages")
    return ProgramError(
        f"out-of-order program: page {page}, expected page {write_pointer} "
        "(NAND requires sequential programming within a block)"
    )
