"""Static analysis for the simulation stack: the ``repro lint`` rules.

The reproduction's headline numbers rest on two contracts that the test
suite enforces only *dynamically*: bit-identical seeded simulation
(golden snapshots, the TPC-C determinism test) and closed counter
accounting (``faults.injected.total == recovered.total + retired.total``,
the pinned ``repro.obs/v1`` namespace).  This package checks the code
*shapes* behind those contracts statically, so a stray ``time.time()``
or an unguarded ``self.faults.on_command(...)`` is caught at lint time rather
than as a silently-perturbed benchmark.

Pieces:

* :mod:`repro.analysis.core` — :func:`lint`: parse each file once, run
  every rule's ``collect`` over every module, then every ``check``, and
  sort the violations; :func:`render_human` prints them.
* :mod:`repro.analysis.rules` — the rule list, :func:`build_rules`
  (determinism, guard-pattern, counter-hygiene, typed errors, hygiene).

Every rule is a per-module AST check over one tree that must be clean.
What needs the whole program to see — state shared between shard cells,
hash-order dependence arriving through a helper — is guarded at run time
instead (the sharded == sequential document test and the hash-seed
independence test; see the invariant table in ``docs/ARCHITECTURE.md``).

Run it as ``repro lint [paths ...]`` (see :mod:`repro.cli`) or
programmatically::

    from repro.analysis import lint
    result = lint(["src/repro"])
    for v in result.violations:
        print(v.format())
"""

from __future__ import annotations

from repro.analysis.core import (
    LintResult,
    Rule,
    SourceModule,
    Violation,
    lint,
    render_human,
)
from repro.analysis.rules import build_rules

__all__ = [
    "LintResult",
    "Rule",
    "SourceModule",
    "Violation",
    "build_rules",
    "lint",
    "render_human",
]
