"""Shared flash-management primitives (valid-page bookkeeping, the space engine).

Used by both the baseline on-device FTL (:mod:`repro.ftl`) and the paper's
host-side NoFTL (:mod:`repro.core`) so the comparison between them isolates
*where* management runs and *what it knows* — not incidental implementation
differences.
"""

from repro.mapping.blockinfo import BlockState, BookkeepingError, DieBookkeeping
from repro.mapping.engine import FlashSpaceEngine, SpaceFullError, die_reserve_blocks
from repro.mapping.stats import ManagementStats

__all__ = [
    "BlockState",
    "BookkeepingError",
    "DieBookkeeping",
    "FlashSpaceEngine",
    "ManagementStats",
    "SpaceFullError",
    "die_reserve_blocks",
]
