"""The repo-specific rule catalogue.

``build_rules()`` returns fresh instances of every shipped rule —
fresh because the counter-hygiene rules accumulate project-wide state
in ``collect``/``check`` and must not leak between engine runs.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.counters import CounterDocCoverageRule, CounterIntDriftRule
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.rules.guards import OptionalHookGuardRule
from repro.analysis.rules.hygiene import UnusedImportRule
from repro.analysis.rules.raises import TypedRaiseRule


def build_rules() -> list[Rule]:
    """Fresh instances of the full shipped catalogue."""
    return [
        WallClockRule(),
        UnseededRandomRule(),
        SetIterationRule(),
        OptionalHookGuardRule(),
        CounterIntDriftRule(),
        CounterDocCoverageRule(),
        UnusedImportRule(),
        TypedRaiseRule(),
    ]


__all__ = [
    "CounterDocCoverageRule",
    "CounterIntDriftRule",
    "OptionalHookGuardRule",
    "SetIterationRule",
    "TypedRaiseRule",
    "UnseededRandomRule",
    "UnusedImportRule",
    "WallClockRule",
    "build_rules",
]
