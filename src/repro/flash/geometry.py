"""Physical geometry of a native flash device.

A native flash device is a *loose set of flash chips* (paper, Section 1)
organised as::

    device -> channels -> chips -> dies -> planes -> blocks -> pages

The DBMS-visible unit of I/O is the flash page; the unit of erase is the
block.  :class:`FlashGeometry` captures the shape of the device and provides
the index arithmetic used throughout the simulator: dies are numbered
globally (channel-major) so higher layers can treat the device as a flat
pool of dies, exactly how NoFTL regions allocate them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.errors import AddressError
from repro.flash.errors import ConfigError

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of a flash device's physical shape.

    Attributes:
        channels: number of independent data channels.
        chips_per_channel: flash packages attached to each channel.
        dies_per_chip: independently-operating dies inside each package.
        planes_per_die: planes per die (affects copyback strictness only).
        blocks_per_plane: erase blocks per plane.
        pages_per_block: flash pages per erase block.
        page_size: main page area in bytes (the DBMS page size).
        oob_size: out-of-band (spare) area per page in bytes, used for page
            metadata under the native interface.
        max_pe_cycles: rated program/erase endurance per block.
    """

    channels: int = 4
    chips_per_channel: int = 4
    dies_per_chip: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 64
    pages_per_block: int = 64
    page_size: int = 4 * KIB
    oob_size: int = 128
    max_pe_cycles: int = 100_000

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"geometry field {name!r} must be a positive int, got {value!r}")
        if self.oob_size < 0:
            raise ConfigError("oob_size must be >= 0")
        if self.max_pe_cycles <= 0:
            raise ConfigError("max_pe_cycles must be positive")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def chips(self) -> int:
        """Total number of chips in the device."""
        return self.channels * self.chips_per_channel

    @property
    def dies(self) -> int:
        """Total number of dies in the device (the NoFTL allocation unit)."""
        return self.chips * self.dies_per_chip

    @property
    def dies_per_channel(self) -> int:
        """Dies reachable through one channel."""
        return self.chips_per_channel * self.dies_per_chip

    @property
    def blocks_per_die(self) -> int:
        """Erase blocks per die (across all planes)."""
        return self.planes_per_die * self.blocks_per_plane

    @property
    def pages_per_die(self) -> int:
        """Flash pages per die."""
        return self.blocks_per_die * self.pages_per_block

    @property
    def total_pages(self) -> int:
        """Flash pages in the whole device."""
        return self.dies * self.pages_per_die

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity of the main page area in bytes."""
        return self.total_pages * self.page_size

    @property
    def block_bytes(self) -> int:
        """Bytes of main area per erase block."""
        return self.pages_per_block * self.page_size

    @property
    def die_bytes(self) -> int:
        """Bytes of main area per die."""
        return self.pages_per_die * self.page_size

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def channel_of_die(self, die: int) -> int:
        """Return the channel index that serves global die ``die``."""
        self.check_die(die)
        return die // self.dies_per_channel

    def chip_of_die(self, die: int) -> int:
        """Return the global chip index containing global die ``die``."""
        self.check_die(die)
        return die // self.dies_per_chip

    def plane_of_block(self, block: int) -> int:
        """Return the plane a die-local block index belongs to.

        Blocks are interleaved across planes (block ``b`` lives in plane
        ``b % planes_per_die``), mirroring typical NAND layouts.
        """
        self.check_block(block)
        return block % self.planes_per_die

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def check_die(self, die: int) -> None:
        """Raise :class:`AddressError` unless ``die`` is a valid die index."""
        if not 0 <= die < self.dies:
            raise AddressError(f"die {die} out of range [0, {self.dies})")

    def check_block(self, block: int) -> None:
        """Raise :class:`AddressError` unless ``block`` is a valid die-local block."""
        if not 0 <= block < self.blocks_per_die:
            raise AddressError(f"block {block} out of range [0, {self.blocks_per_die})")


def small_geometry() -> FlashGeometry:
    """A tiny geometry convenient for unit tests (256 pages total)."""
    return FlashGeometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=16,
        page_size=512,
        oob_size=16,
        max_pe_cycles=1000,
    )


def paper_geometry(blocks_per_plane: int = 64, pages_per_block: int = 64) -> FlashGeometry:
    """The 64-die device used for the paper's TPC-C evaluation.

    The paper distributes *64 dies of Flash SSD* over 6 regions (Figure 2).
    We model 4 channels x 4 chips x 4 dies = 64 dies with 4 KiB pages.  Block
    count per plane is configurable so experiments can scale device capacity
    to the (scaled-down) database size while keeping 64 dies.
    """
    return FlashGeometry(
        channels=4,
        chips_per_channel=4,
        dies_per_chip=4,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_size=4 * KIB,
        oob_size=128,
        max_pe_cycles=100_000,
    )
