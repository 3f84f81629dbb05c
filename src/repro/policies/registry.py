"""Policy name → class tables for GC and WL policies.

Every place a policy is configured (``RegionConfig``, ``SyntheticConfig``,
``TPCCExperimentConfig``, the FTL constructors, region DDL, CLI flags)
takes its name; the engine resolves it here at construction time, so an
unknown name fails before anything runs.
"""

from __future__ import annotations

from repro.policies.base import GCPolicy, WLPolicy
from repro.policies.classical import ColdestFirstWL, CostBenefitGC, GreedyGC, OldestDataWL

_GC_POLICIES: dict[str, type[GCPolicy]] = {
    cls.name: cls for cls in (CostBenefitGC, GreedyGC)
}
_WL_POLICIES: dict[str, type[WLPolicy]] = {
    cls.name: cls for cls in (ColdestFirstWL, OldestDataWL)
}


def available_gc_policies() -> list[str]:
    """GC policy names, sorted."""
    return sorted(_GC_POLICIES)


def available_wl_policies() -> list[str]:
    """WL policy names, sorted."""
    return sorted(_WL_POLICIES)


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


def resolve_wl_policy(name: str) -> WLPolicy:
    """A fresh instance of the WL policy called ``name`` (see :func:`resolve_gc_policy`)."""
    cls = _WL_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown WL policy {name!r}; expected one of {available_wl_policies()}"
        )
    return cls()
