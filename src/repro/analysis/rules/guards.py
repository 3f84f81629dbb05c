"""Guard-pattern rule: the optional fault hook must be None-guarded.

``FlashDevice.faults`` (the :class:`~repro.faults.injector.FaultInjector`)
is *optional by contract*: ``None`` unless explicitly attached, so the hot
path pays one pointer test when it is off.  Any call that assumes it
exists crashes every default-configured run.

The rule recognizes both shapes used across the codebase::

    if self.faults is not None:
        self.faults.on_command(...)      # direct chain, guarded

    faults = self.device.faults          # alias idiom
    if faults is not None:
        faults.on_command(...)

and flags any method call on a ``*.faults`` / ``*.injector`` attribute
chain, or on a local aliased from one, that no such guard covers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import (
    dotted_name,
    enclosing_function,
    is_none_guarded,
    local_aliases_of,
)
from repro.analysis.core import Rule, SourceModule, Violation

#: attribute names whose values follow the optional-hook convention
_HOOK_ATTRS = ("faults", "injector")


class OptionalHookGuardRule(Rule):
    id = "guards.optional-hook"
    summary = (
        "method calls on optional hooks (*.faults / *.injector, and "
        "their local aliases) must sit under an `is not None` guard"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        alias_cache: dict[ast.AST, dict[str, str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            target = self._monitored_target(module, node, node.func.value, alias_cache)
            if target is None:
                continue
            if not is_none_guarded(node, target, module.parents):
                yield self.violation(
                    module, node,
                    f"unguarded `{target}.{node.func.attr}(...)`: `{target}` is an "
                    "optional hook (None unless attached); guard with "
                    f"`if {target} is not None:`",
                )

    def _monitored_target(
        self,
        module: SourceModule,
        call: ast.Call,
        receiver: ast.expr,
        alias_cache: dict[ast.AST, dict[str, str]],
    ) -> str | None:
        """Dotted receiver text if this call must be guarded, else None."""
        dotted = dotted_name(receiver)
        if dotted is None:
            return None
        if "." in dotted:
            # Direct attribute chain: device.faults.on_command.
            return dotted if dotted.rsplit(".", 1)[-1] in _HOOK_ATTRS else None
        # Bare local name: only follow the alias idiom.
        func = enclosing_function(call, module.parents)
        if func is None:
            return None
        if func not in alias_cache:
            alias_cache[func] = local_aliases_of(func, _HOOK_ATTRS)
        return dotted if dotted in alias_cache[func] else None
