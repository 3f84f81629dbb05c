"""GC victim selection and static wear-levelling block ranking.

The paper's core claim — region-local GC sees homogeneous data and picks
better victims — is argued here with the classical pair of victim
selectors, greedy and cost-benefit.  Every management layer selects
through the same small interface:

* :class:`~repro.policies.base.GCPolicy` — victim selection for garbage
  collection: ``choose_victim(books, now_us)`` returns a block index of
  the die;
* :class:`~repro.policies.base.WLPolicy` — static wear levelling's one
  ranking, coldest first (the most worn free block takes the least worn
  full block's data);
* :mod:`~repro.policies.registry` — a GC policy is configured by its name
  (``"greedy"``, ``"cost_benefit"``), and ``resolve_gc_policy`` builds the
  engine's instance from it.

Both management layers use this interface: the NoFTL region engines
(:mod:`repro.core` via :class:`~repro.mapping.engine.FlashSpaceEngine`)
and the FTL baselines (:mod:`repro.ftl`).  What differs between the
paper's configurations is only the *candidate set* the policy is applied
to — whole device for the FTL, a single region's dies for NoFTL.

This package has **no runtime dependency on the mapping layer**: a policy
reads the columns of the :class:`~repro.mapping.blockinfo.DieBookkeeping`
it is handed, which it imports for annotations only.
"""

from repro.policies.base import GCPolicy, WLPolicy
from repro.policies.classical import (
    CostBenefitGC,
    GreedyGC,
    select_victim_cost_benefit,
    select_victim_greedy,
)
from repro.policies.registry import available_gc_policies, resolve_gc_policy

__all__ = [
    "CostBenefitGC",
    "GCPolicy",
    "GreedyGC",
    "WLPolicy",
    "available_gc_policies",
    "resolve_gc_policy",
    "select_victim_cost_benefit",
    "select_victim_greedy",
]
