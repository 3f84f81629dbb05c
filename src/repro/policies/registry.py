"""Policy name → class table for GC policies.

Every place a GC policy is configured (``RegionConfig``, ``SyntheticConfig``,
``TPCCExperimentConfig``, the FTL constructors, region DDL, CLI flags)
takes its name; the engine resolves it here at construction time, so an
unknown name fails before anything runs.
"""

from __future__ import annotations

from repro.policies.base import GCPolicy
from repro.policies.classical import CostBenefitGC, GreedyGC

_GC_POLICIES: dict[str, type[GCPolicy]] = {
    cls.name: cls for cls in (CostBenefitGC, GreedyGC)
}


def available_gc_policies() -> list[str]:
    """GC policy names, sorted."""
    return sorted(_GC_POLICIES)


def resolve_gc_policy(name: str) -> GCPolicy:
    """A fresh instance of the GC policy called ``name``.

    Unknown names raise ``ValueError`` (at configuration time, not mid-run).
    """
    cls = _GC_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown GC policy {name!r}; expected one of {available_gc_policies()}"
        )
    return cls()
