"""Static analysis for the simulation stack: the ``repro lint`` engine.

The reproduction's headline numbers rest on two contracts that the test
suite enforces only *dynamically*: bit-identical seeded simulation
(golden snapshots, the TPC-C determinism test) and closed counter
accounting (``faults.injected.total == recovered.total + retired.total``,
the pinned ``repro.obs/v1`` namespace).  This package checks the code
*shapes* behind those contracts statically, so a stray ``time.time()``
or an unguarded ``self.faults.on_command(...)`` is caught at lint time rather
than as a silently-perturbed benchmark.

Pieces:

* :mod:`repro.analysis.core` — the engine: parsed-module model, rule
  registry, two-phase (collect → check) execution, pragma suppression.
* :mod:`repro.analysis.pragmas` — ``# lint: ok(<rule-id>) -- why`` parsing.
* :mod:`repro.analysis.rules` — the repo-specific rule catalogue
  (determinism, guard-pattern, counter-hygiene, typed errors, hygiene).
* :mod:`repro.analysis.reporting` — human and JSON (``repro.lint/v1``)
  reporters.

Every rule is a per-module AST check over one tree that must be clean.
What needs the whole program to see — state shared between shard cells,
hash-order dependence arriving through a helper — is guarded at run time
instead (the sharded == sequential document test and the hash-seed
independence test; see the invariant table in ``docs/ARCHITECTURE.md``).

Run it as ``repro lint [paths ...]`` (see :mod:`repro.cli`) or
programmatically::

    from repro.analysis import lint_paths
    result = lint_paths(["src/repro"])
    for v in result.violations:
        print(v.format())
"""

from __future__ import annotations

from repro.analysis.core import (
    LintEngine,
    LintResult,
    Rule,
    RuleRegistry,
    SourceModule,
    Violation,
    default_registry,
    lint_paths,
)
from repro.analysis.pragmas import Pragma, parse_pragmas
from repro.analysis.reporting import render_human, render_json

__all__ = [
    "LintEngine",
    "LintResult",
    "Pragma",
    "Rule",
    "RuleRegistry",
    "SourceModule",
    "Violation",
    "default_registry",
    "lint_paths",
    "parse_pragmas",
    "render_human",
    "render_json",
]
