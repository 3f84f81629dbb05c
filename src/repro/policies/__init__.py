"""GC victim selection and static wear-levelling block ranking.

The paper's core claim — region-local GC sees homogeneous data and picks
better victims — is argued here with the classical pair of victim
selectors, greedy and cost-benefit.  Every management layer selects
through the same small interface:

* :class:`~repro.policies.base.GCPolicy` — victim selection for garbage
  collection: a deterministic ``choose_victim`` over a candidate set;
* :class:`~repro.policies.base.WLPolicy` — the matching seam for static
  wear levelling (pick the worn free target and the cold victim block);
* :mod:`~repro.policies.registry` — a policy is configured by its name
  (``"greedy"``, ``"cost_benefit"``; ``"coldest_first"``,
  ``"oldest_data"``), and ``resolve_gc_policy`` / ``resolve_wl_policy``
  build the engine's instance from it.

Both management layers use this interface: the NoFTL region engines
(:mod:`repro.core` via :class:`~repro.mapping.engine.FlashSpaceEngine`)
and the FTL baselines (:mod:`repro.ftl`).  What differs between the
paper's configurations is only the *candidate set* the policy is applied
to — whole device for the FTL, a single region's dies for NoFTL.

This package has **no runtime dependency on the mapping layer** — block
records are duck-typed (see :class:`~repro.policies.base.GCPolicy`), so
``repro.policies`` can be imported and tested standalone.
"""

from repro.policies.base import GCPolicy, WLPolicy
from repro.policies.classical import (
    ColdestFirstWL,
    CostBenefitGC,
    GreedyGC,
    OldestDataWL,
    select_victim_cost_benefit,
    select_victim_greedy,
)
from repro.policies.registry import (
    available_gc_policies,
    available_wl_policies,
    resolve_gc_policy,
    resolve_wl_policy,
)

__all__ = [
    "ColdestFirstWL",
    "CostBenefitGC",
    "GCPolicy",
    "GreedyGC",
    "OldestDataWL",
    "WLPolicy",
    "available_gc_policies",
    "available_wl_policies",
    "resolve_gc_policy",
    "resolve_wl_policy",
    "select_victim_cost_benefit",
    "select_victim_greedy",
]
