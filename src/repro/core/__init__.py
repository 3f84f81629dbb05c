"""The paper's contribution: NoFTL with regions.

The DBMS controls the physical flash address space directly.  Regions —
sets of dies coupled to tablespaces — carry the placement decision; each
region runs host-side address translation, out-of-place updates, garbage
collection and wear levelling over its own dies with full knowledge of
the objects it stores.
"""

from repro.core.advisor import ObjectStats, allocate_dies_for_groups, suggest_placement
from repro.core.ddl import (
    CreateRegionStatement,
    DropRegionStatement,
    is_region_statement,
    parse_create_region,
    parse_drop_region,
    parse_size,
)
from repro.core.placement import (
    ALL_TPCC_OBJECTS,
    DBMS_METADATA,
    FIGURE2_GROUPS,
    PlacementConfig,
    RegionSpec,
    TPCC_INDEXES,
    TPCC_TABLES,
    figure2_placement,
    traditional_placement,
)
from repro.core.region import Region, RegionConfig, RegionError, RegionFullError
from repro.core.store import NoFTLStore

__all__ = [
    "ALL_TPCC_OBJECTS",
    "allocate_dies_for_groups",
    "CreateRegionStatement",
    "DBMS_METADATA",
    "DropRegionStatement",
    "FIGURE2_GROUPS",
    "NoFTLStore",
    "ObjectStats",
    "PlacementConfig",
    "Region",
    "RegionConfig",
    "RegionError",
    "RegionFullError",
    "RegionSpec",
    "TPCC_INDEXES",
    "TPCC_TABLES",
    "figure2_placement",
    "is_region_statement",
    "parse_create_region",
    "parse_drop_region",
    "parse_size",
    "suggest_placement",
    "traditional_placement",
]
