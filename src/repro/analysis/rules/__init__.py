"""The repo-specific rule list.

``build_rules()`` returns fresh instances of every shipped rule —
fresh because the counter-hygiene rules accumulate project-wide state
in ``collect``/``check`` and must not leak between lint runs.  A new rule
is one more entry here, with a good/bad fixture pair under
``tests/analysis/fixtures``.
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
    """Fresh instances of every shipped rule."""
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
