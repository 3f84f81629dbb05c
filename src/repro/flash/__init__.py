"""Native flash simulator: geometry, native command set, timing, wear.

This package is the hardware substrate of the reproduction.  It simulates a
*native* flash device — the loose set of flash chips the paper's NoFTL
architecture runs on — exposing the command set of Figure 1 (READ PAGE,
PROGRAM PAGE, ERASE BLOCK, COPYBACK, page-metadata handling) with per-die
and per-channel contention on a virtual clock, NAND programming constraints
and P/E-cycle wear accounting.
"""

from repro.flash.address import PhysicalBlockAddress, PhysicalPageAddress
from repro.flash.block import Block, PageMetadata
from repro.flash.device import CommandResult, FlashDevice
from repro.flash.errors import (
    AddressError,
    BadBlockError,
    CopybackError,
    DataError,
    EraseError,
    FlashError,
    ProgramError,
    ReadError,
    WearOutError,
)
from repro.flash.geometry import KIB, MIB, FlashGeometry, paper_geometry, small_geometry
from repro.flash.payload import DeferredImage, Payload
from repro.flash.simclock import ResourceTimeline, SimClock
from repro.flash.stats import FlashStats, LatencyAccumulator
from repro.flash.trace import FlashTracer, TraceEvent
from repro.flash.timing import DEFAULT_TIMING, TimingModel, instant_timing

__all__ = [
    "AddressError",
    "BadBlockError",
    "Block",
    "CommandResult",
    "CopybackError",
    "DataError",
    "DEFAULT_TIMING",
    "DeferredImage",
    "EraseError",
    "FlashDevice",
    "FlashError",
    "FlashGeometry",
    "FlashStats",
    "FlashTracer",
    "KIB",
    "LatencyAccumulator",
    "MIB",
    "PageMetadata",
    "Payload",
    "PhysicalBlockAddress",
    "PhysicalPageAddress",
    "ProgramError",
    "ReadError",
    "ResourceTimeline",
    "SimClock",
    "TimingModel",
    "TraceEvent",
    "WearOutError",
    "instant_timing",
    "paper_geometry",
    "small_geometry",
]
