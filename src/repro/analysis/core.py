"""The lint engine: parsed-module model, rule registry, two-phase run.

Rules are small objects with a dotted id (``determinism.wallclock``), a
scope predicate, and two hooks:

* ``collect(module)`` — phase 1, runs over *every* module first.  Rules
  that need whole-project knowledge (which stats fields are ``int``,
  which counters get mutated where) gather it here.
* ``check(module)`` — phase 2, yields :class:`Violation` objects.

The engine parses each file once, shares the AST and a parent map across
rules, applies ``# lint: ok(...)`` pragma suppression, and returns a
:class:`LintResult`.  Rules never mutate modules, so rule order is
irrelevant and the output is deterministic (violations are sorted).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.astutil import build_parent_map
from repro.analysis.pragmas import Pragma, PragmaLedger, parse_pragmas


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

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping (stable key order via the reporter)."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceModule:
    """One parsed source file plus the artifacts rules share."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.parents = build_parent_map(self.tree)
        self.pragmas: list[Pragma] = parse_pragmas(source)
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

    #: dotted rule id used in reports and ``# lint: ok(...)`` pragmas
    id: str = ""
    #: one-line description for ``repro lint --list-rules`` and the docs
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


class RuleRegistry:
    """Named rule collection; duplicate ids are a programming error."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, rule: Rule) -> Rule:
        if not rule.id:
            raise ValueError(f"rule {rule!r} has no id")
        if rule.id in self._rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        self._rules[rule.id] = rule
        return rule

    def get(self, rule_id: str) -> Rule:
        return self._rules[rule_id]

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def select(self, rule_ids: Iterable[str] | None = None) -> list[Rule]:
        """Rules to run; unknown ids raise ``KeyError`` with the catalogue."""
        if rule_ids is None:
            return [self._rules[rule_id] for rule_id in self.ids()]
        chosen: list[Rule] = []
        for rule_id in rule_ids:
            if rule_id not in self._rules:
                raise KeyError(
                    f"unknown rule {rule_id!r}; known rules: {', '.join(self.ids())}"
                )
            chosen.append(self._rules[rule_id])
        return chosen


@dataclass
class LintResult:
    """Everything a reporter needs from one engine run."""

    violations: list[Violation]
    files_checked: int
    rules_run: list[str]
    parse_errors: list[str] = field(default_factory=list)
    unused_pragmas: list[tuple[str, Pragma]] = field(default_factory=list)

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


class LintEngine:
    """Parse once, run every selected rule, apply pragmas, sort output."""

    def __init__(self, registry: RuleRegistry | None = None) -> None:
        self.registry = registry if registry is not None else default_registry()

    def run(
        self,
        paths: Iterable[str | Path],
        rule_ids: Iterable[str] | None = None,
    ) -> LintResult:
        """Lint every ``.py`` file under ``paths`` (files or directories)."""
        rules = self.registry.select(rule_ids)
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

        violations: list[Violation] = []
        unused: list[tuple[str, Pragma]] = []
        ledgers = {id(m): PragmaLedger(m.pragmas) for m in modules}
        for rule in rules:
            for module in modules:
                if not rule.applies(module):
                    continue
                ledger = ledgers[id(module)]
                for violation in rule.check(module):
                    if not ledger.suppresses(violation.rule_id, violation.line):
                        violations.append(violation)
        for module in modules:
            for pragma in ledgers[id(module)].unused():
                unused.append((module.display_path, pragma))

        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
        return LintResult(
            violations=violations,
            files_checked=len(modules),
            rules_run=[rule.id for rule in rules],
            parse_errors=sorted(parse_errors),
            unused_pragmas=unused,
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


def default_registry() -> RuleRegistry:
    """The repo's rule catalogue (fresh instances — rules carry state)."""
    from repro.analysis.rules import build_rules

    registry = RuleRegistry()
    for rule in build_rules():
        registry.register(rule)
    return registry


def lint_paths(
    paths: Iterable[str | Path], rule_ids: Iterable[str] | None = None
) -> LintResult:
    """One-call entry point: fresh default registry, run, return result."""
    return LintEngine(default_registry()).run(paths, rule_ids)
