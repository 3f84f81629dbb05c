"""Determinism rules: the simulation must be a pure function of its seeds.

Scope: the simulation packages (``flash``, ``mapping``, ``ftl``, ``core``,
``db``, ``faults``, ``policies``), the workload generator ``tpcc`` whose
RNG feeds every simulated counter, and three ``bench/`` modules: the cell
functions ``experiment.py`` / ``synthetic.py`` (they construct the
workload RNGs from ``config.seed``) and the shard runner ``sharding.py``,
which promises bit-identical parallel runs.
Wall-clock reads and ambient entropy are allowed in the rest of
``bench/`` (host-side throughput measurement) and the CLI — those never
feed simulated counters.

Three rules:

* ``determinism.wallclock`` — no ``time.time()``, ``datetime.now()``,
  ``os.urandom()``, ``uuid4()`` etc. reachable from sim paths.  Virtual
  time is the only clock (see the architecture docs' time model).
* ``determinism.unseeded-random`` — no global ``random.*`` calls (through
  any ``import random as X`` / ``from random import ...`` binding), no
  ``random.Random`` / ``<rng>.seed`` call without a seed, with ``None``, or
  with a seed built from the builtin ``hash()`` (``PYTHONHASHSEED``-
  dependent), and no RNG instance bound at module top level; every RNG
  must be a per-run ``random.Random(seed)`` so runs replay bit-identically.
* ``determinism.set-iteration`` — no direct iteration over set
  displays/comprehensions/``set(...)`` calls: set order is hash-order,
  which varies across processes once ``PYTHONHASHSEED`` varies.  Wrap in
  ``sorted(...)`` to fix an order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import dotted_name
from repro.analysis.core import Rule, SourceModule, Violation

#: modules whose code feeds simulated counters — the determinism scope
#: (the rest of bench/ is host-side and exempt; the shard runner is in
#: because a sharded run must equal the sequential one, so no ambient
#: entropy or wall-clock reads may leak into it; the chaos harness lives
#: under faults/ and is scoped with its package)
SIM_PACKAGES = (
    "flash/", "mapping/", "ftl/", "core/", "db/", "faults/", "policies/",
    "tpcc/", "bench/experiment.py", "bench/synthetic.py", "bench/sharding.py",
)

#: dotted call patterns that read the wall clock or ambient entropy
_WALLCLOCK_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.localtime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
)

#: bare names that, when imported from those modules, are just as impure
_WALLCLOCK_FROM_IMPORTS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns", "process_time", "localtime"},
    "datetime": {"datetime", "date"},  # datetime.now() via from-import
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
    "secrets": {"token_bytes", "token_hex", "randbelow"},
}


class _SimScopedRule(Rule):
    """Base: applies only inside the simulation packages."""

    def applies(self, module: SourceModule) -> bool:
        return module.rel_path.startswith(SIM_PACKAGES)


class WallClockRule(_SimScopedRule):
    id = "determinism.wallclock"
    summary = (
        "no wall-clock or ambient-entropy reads in sim packages; "
        "virtual time only (wall clock belongs in bench/ and the CLI)"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        flagged_names = self._from_import_bindings(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is not None and self._matches(dotted):
                yield self.violation(
                    module, node,
                    f"wall-clock/entropy call `{dotted}()` in a simulation "
                    "package; derive time from the virtual clock instead",
                )
            elif isinstance(node.func, ast.Name) and node.func.id in flagged_names:
                yield self.violation(
                    module, node,
                    f"wall-clock/entropy call `{node.func.id}()` "
                    f"(imported from `{flagged_names[node.func.id]}`) in a "
                    "simulation package",
                )

    @staticmethod
    def _matches(dotted: str) -> bool:
        return any(
            dotted == suffix or dotted.endswith("." + suffix)
            for suffix in _WALLCLOCK_SUFFIXES
        )

    @staticmethod
    def _from_import_bindings(module: SourceModule) -> dict[str, str]:
        bindings: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in _WALLCLOCK_FROM_IMPORTS:
                impure = _WALLCLOCK_FROM_IMPORTS[node.module]
                for alias in node.names:
                    if alias.name in impure:
                        bindings[alias.asname or alias.name] = node.module
        return bindings


class UnseededRandomRule(_SimScopedRule):
    id = "determinism.unseeded-random"
    summary = (
        "no global random.* calls, no module-level RNG instances, no RNG "
        "seeded from nothing/None/hash(); every RNG is a per-run "
        "random.Random(seed)"
    )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        modules, names = self._random_bindings(module)

        def callee(func: ast.expr) -> str | None:
            """The ``random``-module attribute ``func`` names, if it names one."""
            if isinstance(func, ast.Name):
                return names.get(func.id)
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ):
                return func.attr
            return None

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = callee(node.func)
            if target == "Random":
                yield from self._check_seed(module, node, "random.Random(...)")
            elif target == "SystemRandom":
                yield self.violation(
                    module, node,
                    "random.SystemRandom is OS entropy by construction; use a "
                    "seeded random.Random",
                )
            elif target is not None:
                yield self.violation(
                    module, node,
                    f"`{dotted_name(node.func)}()` (random.{target}) uses the "
                    "shared global RNG; call methods on a seeded "
                    "random.Random instance",
                )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "seed":
                yield from self._check_seed(module, node, "<rng>.seed(...)")
        for stmt in module.tree.body:
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(stmt.value, ast.Call)
                and callee(stmt.value.func) in ("Random", "SystemRandom")
            ):
                yield self.violation(
                    module, stmt,
                    "module-level RNG instance is shared by every importer "
                    "and pickled into every shard cell; construct per-run "
                    "instances inside the function that uses them",
                )

    def _check_seed(
        self, module: SourceModule, call: ast.Call, what: str
    ) -> Iterator[Violation]:
        seeds = [*call.args, *(kw.value for kw in call.keywords)]
        if not seeds or any(
            isinstance(seed, ast.Constant) and seed.value is None for seed in seeds
        ):
            yield self.violation(
                module, call,
                f"`{what}` with no seed (or None) falls back to OS entropy; "
                "pass an explicit seed",
            )
        elif any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            for seed in seeds
            for node in ast.walk(seed)
        ):
            yield self.violation(
                module, call,
                f"`{what}` seed built with hash(): hash() of str/bytes varies "
                "with PYTHONHASHSEED across processes; seed from the value "
                "itself (str seeds use SHA-512 internally)",
            )

    @staticmethod
    def _random_bindings(module: SourceModule) -> tuple[set[str], dict[str, str]]:
        """Names bound to the ``random`` module, and to names imported from it."""
        modules: set[str] = set()
        names: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                modules.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "random"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    names[alias.asname or alias.name] = alias.name
        return modules, names


class SetIterationRule(_SimScopedRule):
    id = "determinism.set-iteration"
    summary = (
        "no direct iteration over set expressions (hash order); "
        "wrap in sorted(...) to pin an order"
    )

    _CONSUMERS = ("list", "tuple", "enumerate", "iter", "next")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    yield self._hit(module, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if self._is_set_expr(comp.iter):
                        yield self._hit(module, comp.iter, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._CONSUMERS
                    and node.args
                    and self._is_set_expr(node.args[0])
                ):
                    yield self._hit(module, node.args[0], f"{func.id}(...)")

    def _hit(self, module: SourceModule, node: ast.AST, where: str) -> Violation:
        return self.violation(
            module, node,
            f"set iterated in {where}: set order is hash order and varies "
            "between runs; wrap the set in sorted(...)",
        )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
            # `live & moved`, `a | b` on sets can't be proven statically —
            # only flag when one side is a syntactic set expression.
            return SetIterationRule._is_set_expr(node.left) or SetIterationRule._is_set_expr(
                node.right
            )
        return False
