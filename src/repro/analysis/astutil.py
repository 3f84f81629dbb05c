"""Shared AST helpers for the lint rules.

Everything here is pure syntax — no type inference.  The helpers encode
the handful of shapes the rules care about: dotted attribute chains
(``self.device.faults``), the repo's None-guard idioms, and function-local
alias tracking (``faults = self.device.faults``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator


def build_parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Map every node to its parent (the root is absent from the map)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def dotted_name(node: ast.AST) -> str | None:
    """``Name``/``Attribute`` chain as ``a.b.c``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def ancestors(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """Yield ``node``'s ancestors, innermost first."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)


def enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Nearest enclosing function definition, if any."""
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _none_check_targets(test: ast.expr, *, when_true: bool) -> set[str]:
    """Dotted names proven non-None when ``test`` evaluates ``when_true``.

    Recognizes the idioms used across the stack::

        if X is not None: ...          # proven in body
        if X is None: ... else: ...    # proven in orelse
        if X: ...                      # truthiness guard
        if X is not None and ...: ...  # conjunction, left-to-right
    """
    proven: set[str] = set()
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left = dotted_name(test.left)
        comparator = test.comparators[0]
        is_none = isinstance(comparator, ast.Constant) and comparator.value is None
        if left is not None and is_none:
            op = test.ops[0]
            if isinstance(op, ast.IsNot) and when_true:
                proven.add(left)
            elif isinstance(op, ast.Is) and not when_true:
                proven.add(left)
    elif isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and when_true:
        for operand in test.values:
            proven |= _none_check_targets(operand, when_true=True)
    elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        proven |= _none_check_targets(test.operand, when_true=not when_true)
    else:
        truthy = dotted_name(test)
        if truthy is not None and when_true:
            proven.add(truthy)
    return proven


def is_none_guarded(
    node: ast.AST, target: str, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Whether ``target`` (a dotted name) is None-guarded at ``node``.

    Checks, innermost-out:

    * an enclosing ``if``/``while`` whose test proves ``target`` on the
      branch containing ``node``;
    * a short-circuit conjunction ``target is not None and <node>``;
    * a conditional expression ``<node> if target is not None else ...``;
    * a preceding ``assert target is not None`` in the same statement list.
    """
    child = node
    for ancestor in ancestors(node, parents):
        if isinstance(ancestor, (ast.If, ast.While)):
            in_body = any(child is stmt or _contains(stmt, child) for stmt in ancestor.body)
            proven = _none_check_targets(ancestor.test, when_true=in_body)
            if target in proven:
                return True
        elif isinstance(ancestor, ast.BoolOp) and isinstance(ancestor.op, ast.And):
            # `target is not None and target.call(...)`: every operand left of
            # the one containing `node` is known true.
            for operand in ancestor.values:
                if operand is child or _contains(operand, child):
                    break
                if target in _none_check_targets(operand, when_true=True):
                    return True
        elif isinstance(ancestor, ast.IfExp):
            if (ancestor.body is child or _contains(ancestor.body, child)) and target in (
                _none_check_targets(ancestor.test, when_true=True)
            ):
                return True
            if (ancestor.orelse is child or _contains(ancestor.orelse, child)) and target in (
                _none_check_targets(ancestor.test, when_true=False)
            ):
                return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            # Scan statements before `child` for `assert target is not None`.
            if _asserted_before(ancestor.body, child, target):
                return True
            break
        child = ancestor
    return False


def _asserted_before(body: list[ast.stmt], stop: ast.AST, target: str) -> bool:
    for stmt in body:
        if stmt is stop or _contains(stmt, stop):
            return False
        if isinstance(stmt, ast.Assert) and target in _none_check_targets(
            stmt.test, when_true=True
        ):
            return True
    return False


def _contains(root: ast.AST, needle: ast.AST) -> bool:
    return any(node is needle for node in ast.walk(root))


def local_aliases_of(
    func: ast.FunctionDef | ast.AsyncFunctionDef, suffixes: tuple[str, ...]
) -> dict[str, str]:
    """Function-local names bound to attribute chains ending in ``suffixes``.

    Captures the stack's alias idiom (``faults = self.device.faults``) so
    the guard rule can follow ``faults.on_command(...)`` just like a direct
    chain.  Only simple single-target assignments are tracked; a name
    rebound to anything else drops out of the map.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        source = dotted_name(node.value)
        if source is not None and source.rsplit(".", 1)[-1] in suffixes:
            aliases[target.id] = source
        elif _is_guarded_alias(node.value, suffixes):
            # `faults = None if ... else self.device.faults` — still an alias.
            aliases[target.id] = "?"
        else:
            aliases.pop(target.id, None)
    return aliases


def _is_guarded_alias(value: ast.expr, suffixes: tuple[str, ...]) -> bool:
    if isinstance(value, ast.IfExp):
        for branch in (value.body, value.orelse):
            name = dotted_name(branch)
            if name is not None and name.rsplit(".", 1)[-1] in suffixes:
                return True
    return False
