"""Die container: blocks plus the die's occupancy timeline.

A die is the unit of command-level parallelism (and the unit NoFTL regions
allocate).  Each die owns its erase blocks and a
:class:`~repro.flash.simclock.ResourceTimeline` modelling the fact that a
die executes one array operation at a time.
"""

from __future__ import annotations

from repro.flash.block import Block
from repro.flash.geometry import FlashGeometry
from repro.flash.simclock import ResourceTimeline


class Die:
    """One flash die: ``blocks_per_die`` erase blocks and a busy timeline."""

    def __init__(self, index: int, geometry: FlashGeometry) -> None:
        self.index = index
        self.blocks: list[Block] = [
            Block(geometry.pages_per_block, geometry.max_pe_cycles)
            for _ in range(geometry.blocks_per_die)
        ]
        self.timeline = ResourceTimeline(name=f"die{index}")

    @property
    def total_erase_count(self) -> int:
        """Sum of P/E cycles over all blocks of this die."""
        return sum(b.erase_count for b in self.blocks)

    def erase_counts(self) -> list[int]:
        """Per-block erase counts (for wear histograms)."""
        return [b.erase_count for b in self.blocks]
