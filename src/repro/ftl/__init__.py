"""Baseline FTL-based SSD (the architecture the paper argues against).

Provides the legacy block-device abstraction over native flash: page-level
address mapping, device-side garbage collection and wear levelling with no
knowledge of the stored data, and (optionally, via :class:`DFTL`) the
resource limits of an embedded controller.
"""

from repro.ftl.blockdevice import BlockDevice, DeviceFullError
from repro.ftl.dftl import DFTL
from repro.ftl.hotcold import HotColdFTL, UpdateFrequencySketch
from repro.ftl.page_mapping import PageMappingFTL
from repro.mapping.stats import ManagementStats

__all__ = [
    "BlockDevice",
    "DFTL",
    "DeviceFullError",
    "HotColdFTL",
    "ManagementStats",
    "PageMappingFTL",
    "UpdateFrequencySketch",
]
