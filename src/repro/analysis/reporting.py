"""Reporters for lint results: human text and ``repro.lint/v1`` JSON.

The JSON document is versioned like the metrics schema so CI consumers
can pin it; it is emitted with sorted keys and a trailing-newline-free
body (callers print it), mirroring :mod:`repro.obs.export`.
"""

from __future__ import annotations

import json

from repro.analysis.core import LintResult

#: schema tag for the machine-readable report
LINT_SCHEMA_VERSION = "repro.lint/v1"


def render_human(result: LintResult, *, verbose: bool = False) -> str:
    """Editor-clickable ``path:line:col: rule message`` lines + a summary."""
    lines = [violation.format() for violation in result.violations]
    for error in result.parse_errors:
        lines.append(f"error: {error}")
    if verbose and result.unused_pragmas:
        for path, pragma in result.unused_pragmas:
            lines.append(
                f"{path}:{pragma.line}: note: unused pragma "
                f"`# lint: ok({', '.join(pragma.rule_ids)})`"
            )
    total = len(result.violations)
    if total == 0 and not result.parse_errors:
        lines.append(f"OK: {result.files_checked} file(s) clean "
                     f"({len(result.rules_run)} rules)")
    else:
        by_rule = ", ".join(
            f"{rule}={count}" for rule, count in result.counts_by_rule().items()
        )
        lines.append(
            f"FAIL: {total} violation(s) in {result.files_checked} file(s)"
            + (f" [{by_rule}]" if by_rule else "")
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The ``repro.lint/v1`` document as a deterministic JSON string."""
    document = {
        "schema": LINT_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "counts": result.counts_by_rule(),
        "violations": [violation.to_dict() for violation in result.violations],
        "parse_errors": result.parse_errors,
        "unused_pragmas": [
            {"path": path, "line": pragma.line, "rules": list(pragma.rule_ids)}
            for path, pragma in result.unused_pragmas
        ],
        "exit_code": result.exit_code,
    }
    return json.dumps(document, indent=2, sort_keys=True)
