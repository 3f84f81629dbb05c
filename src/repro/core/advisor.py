"""Placement advisor: from object statistics to a region configuration.

The paper argues the DBMS should *use its run-time information and
knowledge about the stored data* for placement.  This module implements
that step as an explicit heuristic: given per-object size and I/O-rate
statistics (which the catalog and buffer manager maintain anyway), it

1. clusters objects by *update density* (writes per page — the hot/cold
   axis GC cares about [3, 4]), and
2. assigns each cluster dies in proportion to its I/O rate ("based on
   sizes of objects and their I/O rate"), with a floor of one die.

The result is a :class:`~repro.core.placement.PlacementConfig` ready to be
applied.  Feeding the advisor TPC-C's measured statistics yields a grouping
close to the paper's hand-built Figure 2 — see
``benchmarks/bench_advisor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.placement import PlacementConfig, RegionSpec
from repro.core.region import RegionConfig, RegionError


@dataclass(frozen=True)
class ObjectStats:
    """Observed statistics for one database object.

    Attributes:
        name: object (table/index) name.
        size_pages: current size in flash pages.
        reads: page reads over the observation window.
        writes: page writes over the observation window.
    """

    name: str
    size_pages: int
    reads: int
    writes: int

    def __post_init__(self) -> None:
        if self.size_pages < 0 or self.reads < 0 or self.writes < 0:
            raise ValueError(f"negative statistics for object {self.name!r}")

    @property
    def io_rate(self) -> int:
        """Total page I/Os in the window."""
        return self.reads + self.writes

    @property
    def update_density(self) -> float:
        """Writes per page — the hot/cold signal GC separation needs."""
        return self.writes / max(1, self.size_pages)


def allocate_dies_for_groups(
    groups: list[tuple[str, tuple[str, ...]]],
    stats: list[ObjectStats],
    total_dies: int,
    safe_pages_per_die: int | None = None,
    headroom: float = 1.35,
    gc_policy: str = "greedy",
    name: str = "figure2-method",
) -> PlacementConfig:
    """Apply the paper's die-allocation rule to a *fixed* object grouping.

    Figure 2's six object groups are the paper's qualitative judgement;
    the die counts were then derived from *their* database's sizes and I/O
    rates.  This function redoes that derivation for the database at hand:
    same groups, die shares proportional to measured I/O rate, repaired so
    every group can hold ``headroom`` times its current size.

    Objects that appear in ``groups`` but not in ``stats`` are kept (they
    route pages to the region) with zero weight.
    """
    if total_dies < len(groups):
        raise RegionError(f"need at least {len(groups)} dies for {len(groups)} groups")
    by_name = {s.name: s for s in stats}
    clusters = [
        [by_name[o] for o in objects if o in by_name] for __, objects in groups
    ]
    weights = [max(1, sum(s.io_rate for s in cluster)) for cluster in clusters]
    total_weight = sum(weights)
    shares = [w * total_dies / total_weight for w in weights]
    dies = [max(1, int(share)) for share in shares]
    while sum(dies) > total_dies:
        i = max(range(len(dies)), key=lambda j: (dies[j] - shares[j], dies[j]))
        if dies[i] == 1:
            raise RegionError(f"cannot fit {len(groups)} regions in {total_dies} dies")
        dies[i] -= 1
    order = sorted(range(len(dies)), key=lambda j: shares[j] - dies[j], reverse=True)
    i = 0
    while sum(dies) < total_dies:
        dies[order[i % len(order)]] += 1
        i += 1
    if safe_pages_per_die is not None:
        dies = _repair_capacity(clusters, dies, safe_pages_per_die, headroom)
    specs = tuple(
        RegionSpec(
            config=RegionConfig(name=group_name, gc_policy=gc_policy),
            num_dies=count,
            objects=objects,
        )
        for (group_name, objects), count in zip(groups, dies)
    )
    return PlacementConfig(name=name, specs=specs)


def _repair_capacity(
    clusters: list[list[ObjectStats]],
    dies: list[int],
    safe_pages_per_die: int,
    headroom: float,
) -> list[int]:
    """Move dies from slack regions to those that cannot hold their data."""

    def needed(i: int) -> int:
        size = sum(s.size_pages for s in clusters[i])
        return max(1, -(-int(size * headroom) // safe_pages_per_die))  # ceil

    for __ in range(sum(dies)):
        short = [i for i in range(len(dies)) if dies[i] < needed(i)]
        if not short:
            break
        taker = max(short, key=lambda i: needed(i) - dies[i])
        donors = [i for i in range(len(dies)) if dies[i] > max(1, needed(i))]
        if not donors:
            raise RegionError(
                "die budget too small for the objects' sizes at the requested headroom"
            )
        donor = max(donors, key=lambda i: dies[i] - needed(i))
        dies[donor] -= 1
        dies[taker] += 1
    return dies


def _cluster_by_update_density(
    stats: list[ObjectStats], max_regions: int
) -> list[list[ObjectStats]]:
    """Split objects at the largest update-density gaps (log scale).

    Update densities span orders of magnitude (a read-only ITEM table vs a
    WAREHOUSE row rewritten every transaction), so gaps are measured as
    log-ratios: the borders land between magnitude classes, not next to
    the single hottest object.
    """
    import math

    ordered = sorted(stats, key=lambda s: (s.update_density, s.name))
    if len(ordered) <= 1 or max_regions <= 1:
        return [ordered]
    epsilon = 1e-3
    # gap between consecutive objects, largest gaps become cluster borders
    gaps = []
    for i in range(len(ordered) - 1):
        low = math.log(ordered[i].update_density + epsilon)
        high = math.log(ordered[i + 1].update_density + epsilon)
        gaps.append((high - low, i))
    borders = sorted(i for __, i in sorted(gaps, reverse=True)[: max_regions - 1])
    clusters: list[list[ObjectStats]] = []
    start = 0
    for border in borders:
        clusters.append(ordered[start : border + 1])
        start = border + 1
    clusters.append(ordered[start:])
    return [c for c in clusters if c]


def suggest_placement(
    stats: list[ObjectStats],
    total_dies: int,
    max_regions: int = 6,
    name: str = "advised",
    gc_policy: str = "greedy",
    safe_pages_per_die: int | None = None,
    headroom: float = 1.35,
) -> PlacementConfig:
    """Build a placement from object statistics.

    Args:
        stats: one entry per database object (must be non-empty).
        total_dies: die budget to distribute.
        max_regions: upper bound on regions (the paper used 6 for TPC-C).
        name: name of the resulting placement config.
        gc_policy: GC policy for all advised regions.
        safe_pages_per_die: when given, die shares are repaired so every
            region can hold ``headroom`` times its objects' current size —
            the "sizes of objects" half of the paper's allocation rule.
        headroom: growth factor applied to current sizes during repair.

    Raises:
        RegionError: if the die budget cannot cover the clusters.
    """
    if not stats:
        raise RegionError("advisor needs at least one object's statistics")
    if total_dies < 1:
        raise RegionError("total_dies must be >= 1")
    max_regions = min(max_regions, total_dies, len(stats))
    clusters = _cluster_by_update_density(list(stats), max_regions)

    # die shares proportional to cluster I/O rate, floor 1 (paper: "based
    # on sizes of objects and their I/O rate" — size enters through the
    # page-count weighting of io_rate and through the capacity repair)
    weights = [max(1, sum(s.io_rate for s in cluster)) for cluster in clusters]
    total_weight = sum(weights)
    shares = [w * total_dies / total_weight for w in weights]
    dies = [max(1, int(share)) for share in shares]
    while sum(dies) > total_dies:
        i = max(range(len(dies)), key=lambda j: (dies[j] - shares[j], dies[j]))
        if dies[i] == 1:
            raise RegionError(f"cannot fit {len(clusters)} regions in {total_dies} dies")
        dies[i] -= 1
    order = sorted(range(len(dies)), key=lambda j: shares[j] - dies[j], reverse=True)
    i = 0
    while sum(dies) < total_dies:
        dies[order[i % len(order)]] += 1
        i += 1

    if safe_pages_per_die is not None:
        dies = _repair_capacity(clusters, dies, safe_pages_per_die, headroom)

    specs = []
    for index, (cluster, count) in enumerate(zip(clusters, dies)):
        specs.append(
            RegionSpec(
                config=RegionConfig(name=f"rgAdvised{index}", gc_policy=gc_policy),
                num_dies=count,
                objects=tuple(s.name for s in cluster),
            )
        )
    return PlacementConfig(name=name, specs=tuple(specs))
