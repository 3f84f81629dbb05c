"""Data placement configurations, including the paper's Figure 2.

A :class:`PlacementConfig` says which regions exist, how many of the
device's dies each gets, and which database objects live in each — the
complete experimental variable of the paper's evaluation:

* :func:`traditional_placement` — one region over all dies; every object's
  pages share every block (what an FTL-based SSD effectively does).
* :func:`figure2_placement` — the paper's 6-region TPC-C configuration
  ("we have divided database objects of TPC-C based on their I/O
  properties into 6 regions ... distributed 64 dies ... based on sizes of
  objects and their I/O rate").

Figure 2's die counts are 2 / 11 / 10 / 29 / 6 / 6 = 64.  The poster's
two-column table interleaves object lists; we reconstruct the grouping as
annotated per region below and record the reconstruction in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.region import RegionConfig, RegionError

#: Canonical TPC-C object names used throughout the reproduction.
TPCC_TABLES = (
    "WAREHOUSE",
    "DISTRICT",
    "CUSTOMER",
    "HISTORY",
    "NEW_ORDER",
    "ORDER",
    "ORDERLINE",
    "ITEM",
    "STOCK",
)
TPCC_INDEXES = (
    "W_IDX",
    "D_IDX",
    "C_IDX",
    "C_NAME_IDX",
    "NO_IDX",
    "O_IDX",
    "O_CUST_IDX",
    "OL_IDX",
    "I_IDX",
    "S_IDX",
)
#: Catalog, free-space maps, etc. — everything the DBMS stores for itself.
DBMS_METADATA = "DBMS_METADATA"

ALL_TPCC_OBJECTS = (DBMS_METADATA,) + TPCC_TABLES + TPCC_INDEXES


@dataclass(frozen=True)
class RegionSpec:
    """One region in a placement: its config, die share, and objects."""

    config: RegionConfig
    num_dies: int
    objects: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.num_dies <= 0:
            raise RegionError(f"region {self.config.name}: num_dies must be positive")
        if not self.objects:
            raise RegionError(f"region {self.config.name}: placement lists no objects")


@dataclass(frozen=True)
class PlacementConfig:
    """A complete data placement: regions plus object-to-region routing."""

    name: str
    specs: tuple[RegionSpec, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for spec in self.specs:
            for obj in spec.objects:
                if obj in seen:
                    raise RegionError(f"object {obj!r} placed in two regions")
                seen.add(obj)

    @property
    def total_dies(self) -> int:
        """Sum of die shares over all regions."""
        return sum(spec.num_dies for spec in self.specs)

    def region_of(self, object_name: str) -> str:
        """Region name for ``object_name``; raises if unplaced."""
        for spec in self.specs:
            if object_name in spec.objects:
                return spec.config.name
        raise RegionError(f"object {object_name!r} is not placed by {self.name!r}")

    def objects(self) -> list[str]:
        """All placed objects."""
        return [obj for spec in self.specs for obj in spec.objects]


def _scale_dies(counts: list[int], total_dies: int) -> list[int]:
    """Scale die counts to a new total (largest-remainder, min 1 each)."""
    base_total = sum(counts)
    if total_dies == base_total:
        return list(counts)
    if total_dies < len(counts):
        raise RegionError(f"need at least {len(counts)} dies, got {total_dies}")
    shares = [c * total_dies / base_total for c in counts]
    floors = [max(1, int(s)) for s in shares]
    while sum(floors) > total_dies:  # overshoot from the min-1 clamp
        i = max(range(len(floors)), key=lambda j: (floors[j] - shares[j], floors[j]))
        if floors[i] == 1:
            raise RegionError(f"cannot fit {len(counts)} regions in {total_dies} dies")
        floors[i] -= 1
    remainders = sorted(
        range(len(shares)), key=lambda j: (shares[j] - floors[j]), reverse=True
    )
    i = 0
    while sum(floors) < total_dies:
        floors[remainders[i % len(remainders)]] += 1
        i += 1
    return floors


def traditional_placement(
    total_dies: int = 64, gc_policy: str = "greedy", name: str = "traditional"
) -> PlacementConfig:
    """Single-pool placement: all objects share one region over all dies.

    ``object_frontiers`` is off: pages of all objects interleave in erase
    blocks in arrival order, exactly what a knowledge-free FTL (or a
    storage manager without the paper's placement intelligence) produces.
    """
    spec = RegionSpec(
        config=RegionConfig(name="rgAll", gc_policy=gc_policy, object_frontiers=False),
        num_dies=total_dies,
        objects=ALL_TPCC_OBJECTS,
    )
    return PlacementConfig(name=name, specs=(spec,))


#: (region name, paper die count, object group) — Figure 2 reconstruction.
#:
#: The poster's two-column table interleaves the object lists, leaving the
#: pairing of {C_IDX, I_IDX, S_IDX, W_IDX} / {C_NAME_IDX, ITEM, D_IDX} with
#: the CUSTOMER (10-die) and OL_IDX+STOCK (29-die) rows ambiguous.  We place
#: the four unique lookup indexes — the highest-read-rate objects — with
#: OL_IDX/STOCK on the 29-die region, which matches the paper's stated
#: allocation rule ("based on sizes of objects and their I/O rate"); the
#: alternative pairing is recorded in EXPERIMENTS.md.
FIGURE2_GROUPS: tuple[tuple[str, int, tuple[str, ...]], ...] = (
    ("rgMeta", 2, (DBMS_METADATA, "HISTORY")),
    ("rgOrderLine", 11, ("ORDERLINE", "NEW_ORDER", "ORDER")),
    ("rgCustomer", 10, ("CUSTOMER", "C_NAME_IDX", "ITEM", "D_IDX")),
    ("rgStock", 29, ("OL_IDX", "STOCK", "C_IDX", "I_IDX", "S_IDX", "W_IDX")),
    ("rgWarehouse", 6, ("WAREHOUSE", "DISTRICT")),
    ("rgOrderIdx", 6, ("NO_IDX", "O_IDX", "O_CUST_IDX")),
)


def figure2_placement(
    total_dies: int = 64, gc_policy: str = "greedy", name: str = "figure2"
) -> PlacementConfig:
    """The paper's 6-region TPC-C placement, scaled to ``total_dies``.

    At the paper's 64 dies the shares are exactly Figure 2's
    2 / 11 / 10 / 29 / 6 / 6; other totals are scaled proportionally with
    a minimum of one die per region.
    """
    counts = _scale_dies([g[1] for g in FIGURE2_GROUPS], total_dies)
    specs = tuple(
        RegionSpec(
            config=RegionConfig(name=group_name, gc_policy=gc_policy),
            num_dies=count,
            objects=objects,
        )
        for (group_name, __, objects), count in zip(FIGURE2_GROUPS, counts)
    )
    return PlacementConfig(name=name, specs=specs)
