"""The legacy block-device interface.

This is the abstraction the paper argues *against*: reading and writing
fixed-size sectors at immutable logical addresses, hiding the flash
geometry, the out-of-place updates, and the background GC/WL behind a
black box.  The baseline FTL implements it; the DBMS's traditional storage
backend talks to it exactly as it would talk to an SSD.
"""

from __future__ import annotations

import abc

from repro.flash.payload import Payload


class DeviceFullError(Exception):
    """The device has no reclaimable space left for a write."""


class BlockDevice(abc.ABC):
    """Abstract block device: 4 KB sectors at immutable logical addresses."""

    @property
    @abc.abstractmethod
    def num_lbas(self) -> int:
        """Number of addressable logical sectors."""

    @property
    @abc.abstractmethod
    def sector_size(self) -> int:
        """Sector size in bytes (the flash page size here)."""

    @abc.abstractmethod
    def read(self, lba: int, at: float | None = None) -> tuple[Payload, float]:
        """Read sector ``lba``; return ``(data, completion_time_us)``."""

    @abc.abstractmethod
    def write(self, lba: int, data: Payload, at: float | None = None) -> float:
        """Write sector ``lba``; return completion time in microseconds."""

    @abc.abstractmethod
    def trim(self, lba: int) -> None:
        """Declare sector ``lba`` dead (its physical page may be reclaimed)."""

    def check_lba(self, lba: int) -> None:
        """Raise ``ValueError`` unless ``lba`` is addressable."""
        if not 0 <= lba < self.num_lbas:
            raise ValueError(f"LBA {lba} out of range [0, {self.num_lbas})")
