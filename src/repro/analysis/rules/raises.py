"""Typed-error discipline: ``flash/``, ``bench/``, ``faults/`` raise typed errors.

The repo's error idiom is module-local typed classes that *subclass* the
builtin they semantically refine — ``MergeError(ValueError)``,
``BenchConfigError(ValueError)``, the ``FlashError`` hierarchy — so
callers can catch precisely while generic handlers keep working.  A bare
``raise ValueError(...)`` breaks that contract: it cannot be told apart
from a genuine bug and carries no subsystem.  A typed error also crosses
a shard worker's process boundary intact (each rebuilds from its
constructor arguments when unpickled), so a sharded run fails with the
very exception the sequential run raises.

``errors.typed-discipline`` flags ``raise`` of the undifferentiated
builtins (``ValueError``, ``RuntimeError``, ``Exception``) inside the
three packages that promise typed failures.  Narrow builtins that *are*
the precise type (``KeyError``, ``TypeError``, ``NotImplementedError``,
``StopIteration``) stay legal, as do bare re-raises and raising any
name that is defined or imported — a project error class by
construction, since the builtins are never imported.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Rule, SourceModule, Violation

#: packages that promise typed errors (see ARCHITECTURE "error taxonomy")
TYPED_ERROR_PACKAGES = ("flash/", "bench/", "faults/")

#: builtins too generic to raise directly in scoped packages
_BANNED_BUILTINS = frozenset({"ValueError", "RuntimeError", "Exception"})


class TypedRaiseRule(Rule):
    id = "errors.typed-discipline"
    summary = (
        "flash/, bench/ and faults/ raise the repo's typed errors only; "
        "no bare ValueError/RuntimeError/Exception"
    )

    def applies(self, module: SourceModule) -> bool:
        return module.rel_path.startswith(TYPED_ERROR_PACKAGES)

    def check(self, module: SourceModule) -> Iterator[Violation]:
        local_bindings = _module_bindings(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name in _BANNED_BUILTINS and name not in local_bindings:
                yield self.violation(
                    module, node,
                    f"bare `raise {name}` in a typed-error package; raise a "
                    f"module-local error subclassing {name} instead (e.g. "
                    "MergeError(ValueError) in bench/sharding.py)",
                )


def _module_bindings(module: SourceModule) -> set[str]:
    """Names a module defines or imports — raising those is typed by
    construction (nothing imports the banned builtins)."""
    bound: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound
