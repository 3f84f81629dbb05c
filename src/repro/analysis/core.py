"""The lint run: parsed-module model, rule base class, two-phase run.

Rules are small objects with a dotted id (``determinism.wallclock``), a
scope predicate, and two hooks:

* ``collect(module)`` — phase 1, runs over *every* module first.  Rules
  that need whole-project knowledge (which stats fields are ``int``,
  which counters get mutated where) gather it here.
* ``check(module)`` — phase 2, yields :class:`Violation` objects.

:func:`lint` parses each file once, shares the AST and a parent map
across rules, and returns a :class:`LintResult`.  Rules never mutate
modules, so rule order is irrelevant and the output is deterministic
(violations are sorted).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import build_parent_map


@dataclass(frozen=True)
class Violation:
    """One rule hit at a source location."""

    rule_id: str
    path: str          # as given on the command line (posix separators)
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``path:line:col: rule-id message`` — editor-clickable."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class SourceModule:
    """One parsed source file plus the artifacts rules share."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.parents = build_parent_map(self.tree)
        #: dotted path relative to the package root being linted, e.g.
        #: ``flash/device.py`` for ``src/repro/flash/device.py``; rules use
        #: it for scope decisions.
        self.rel_path = _relative_to_package(path)

    def __repr__(self) -> str:
        return f"SourceModule({self.display_path!r})"


def _relative_to_package(path: Path) -> str:
    """Path relative to the innermost ``repro`` package root, if any."""
    parts = path.as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return parts[-1]


class Rule:
    """Base class for lint rules; subclasses set ``id`` and ``summary``."""

    #: dotted rule id used in reports
    id: str = ""
    #: one-line description for the docs
    summary: str = ""

    def applies(self, module: SourceModule) -> bool:
        """Scope predicate; default: every module."""
        return True

    def collect(self, module: SourceModule) -> None:
        """Phase 1: gather project-wide facts (optional)."""

    def check(self, module: SourceModule) -> Iterator[Violation]:
        """Phase 2: yield violations for ``module``."""
        raise NotImplementedError

    def violation(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Violation:
        """Helper: build a :class:`Violation` at ``node``'s location."""
        return Violation(
            rule_id=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintResult:
    """Everything :func:`render_human` needs from one run."""

    violations: list[Violation]
    files_checked: int
    rules_run: list[str]
    parse_errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 clean, 1 violations, 2 unparseable input."""
        if self.parse_errors:
            return 2
        return 1 if self.violations else 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def lint(
    paths: Iterable[str | Path], rules: Iterable[Rule] | None = None
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` (files or directories) with
    ``rules`` — fresh instances, since the counter rules keep project-wide
    state; ``None`` runs :func:`~repro.analysis.rules.build_rules`."""
    from repro.analysis.rules import build_rules

    rules = build_rules() if rules is None else list(rules)
    modules: list[SourceModule] = []
    parse_errors: list[str] = []
    for file_path, display in _expand_paths(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
            modules.append(SourceModule(file_path, display, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            parse_errors.append(f"{display}: {exc}")

    for rule in rules:
        for module in modules:
            if rule.applies(module):
                rule.collect(module)
    violations = [
        violation
        for rule in rules
        for module in modules
        if rule.applies(module)
        for violation in rule.check(module)
    ]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return LintResult(
        violations=violations,
        files_checked=len(modules),
        rules_run=[rule.id for rule in rules],
        parse_errors=sorted(parse_errors),
    )


def _expand_paths(paths: Iterable[str | Path]) -> Iterator[tuple[Path, str]]:
    """Yield ``(file, display_path)`` for every Python file under ``paths``."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for file_path in sorted(path.rglob("*.py")):
                yield file_path, file_path.as_posix()
        else:
            yield path, path.as_posix()


def render_human(result: LintResult) -> str:
    """Editor-clickable ``path:line:col: rule message`` lines + a summary."""
    lines = [violation.format() for violation in result.violations]
    for error in result.parse_errors:
        lines.append(f"error: {error}")
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
