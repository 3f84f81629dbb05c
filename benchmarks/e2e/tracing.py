"""Boundary-span tracer for the end-to-end benchmark.

Spans are recorded *from the benchmark's side* of each layer boundary:
the public entry points listed in :func:`_entry_points` are replaced, at
class or module level, by timing wrappers for the duration of one run
and put back afterwards.  Nothing under ``src/repro`` is edited.
(The file is not called ``trace.py`` because a script's directory comes
first on ``sys.path`` and that name would shadow the standard library's
``trace`` module.)

Two levels share one mechanism:

* **phase hooks** (always on, also in untraced runs): ``load_database``,
  ``Driver.run`` and ``run_tpcc_crash_harness`` — a few dozen calls per
  workload at most.  They split set-up from the measured windows.  A
  recorder on the constructors of ``Database``, ``NoFTLStore`` and
  ``PageMappingFTL`` lets the benchmark run the stacks' own consistency
  checks and read their registries (the experiment functions do not
  return the stacks they build);
* **fine spans** (traced runs only): every other entry point.  There are
  millions of them, so they are accumulated per ``(name, parent layer)``
  instead of being kept; phase, cell and transaction spans are kept
  whole (name, start, end, parent id) and written out at the end.

A span's self time is its duration minus the time covered by its child
spans, so the self times of all spans plus the root partition the traced
interval exactly.  Python-level callees that are not entry points
(codecs, B-tree nodes, stdlib ``random``/``struct``) are charged to the
span that called them, i.e. to the calling layer.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable

#: layer = directory under ``src/repro``; ``other`` is the harness
#: (``repro.bench``, ``repro.cli``) plus the benchmark's own code
LAYERS = ("tpcc", "db", "core", "ftl", "mapping", "flash", "policies", "faults", "obs", "other")
OTHER = LAYERS.index("other")

TXN = "tpcc.txn"


def _entry_points() -> list[tuple[str, Any, tuple[str, ...]]]:
    """``(layer, owner class, method names)`` for every fine-span entry point."""
    from repro.core.region import Region
    from repro.db.backend import StorageBackend
    from repro.db.buffer import BufferPool
    from repro.db.database import Database
    from repro.db.table import Table
    from repro.faults.injector import FaultInjector
    from repro.flash.device import FlashDevice
    from repro.ftl.dftl import DFTL
    from repro.ftl.hotcold import HotColdFTL
    from repro.ftl.page_mapping import PageMappingFTL
    from repro.mapping.engine import FlashSpaceEngine
    from repro.obs.registry import MetricRegistry
    from repro.policies.base import GCPolicy, WLPolicy
    from repro.tpcc.random_gen import TPCCRandom

    def subclasses(base: type) -> list[type]:
        found = [base]
        for cls in base.__subclasses__():
            found.extend(subclasses(cls))
        return found

    points: list[tuple[str, Any, tuple[str, ...]]] = [
        ("tpcc", TPCCRandom, ("astring",)),
        ("db", Table, ("insert", "read", "update", "update_columns", "delete",
                       "lookup", "lookup_rid", "lookup_all", "scan")),
        ("db", Database, ("checkpoint",)),
        ("db", BufferPool, ("get", "put_new", "flush_page", "flush_all")),
        ("db", StorageBackend, ("read_page", "write_page", "allocate_page")),
        ("core", Region, ("read", "write", "write_atomic", "allocate", "free", "recover")),
        ("mapping", FlashSpaceEngine, ("read", "write", "write_atomic", "invalidate",
                                       "rebuild_from_flash", "fail_die")),
        ("flash", FlashDevice, ("read_page", "read_metadata", "program_page", "erase_block",
                                "copyback", "program_page_packed", "copyback_packed",
                                "erase_block_packed", "program_multi_plane",
                                "read_multi_plane")),
        ("faults", FaultInjector, ("on_command", "after_erase", "settle_pending_wearout")),
        ("obs", MetricRegistry, ("snapshot",)),
    ]
    for cls in (PageMappingFTL, DFTL, HotColdFTL):
        points.append(("ftl", cls, ("read", "write", "trim")))
    for cls in subclasses(GCPolicy):
        points.append(("policies", cls, ("choose_victim", "choose_victim_from_books")))
    for cls in subclasses(WLPolicy):
        points.append(("policies", cls, ("choose_move",)))
    return points


class Tracer:
    """Patches entry points, keeps the span stack, restores on :meth:`stop`.

    Single-threaded by design (the simulator is).  ``fine=False`` installs
    only the phase hooks.
    """

    def __init__(self, workload: str, fine: bool) -> None:
        self.workload = workload
        self.fine = fine
        #: kept spans: [id, parent id, name, start_s, end_s]
        self.spans: list[list[Any]] = []
        #: (span name, parent layer index) -> [calls, inclusive_s, self_s]
        self.accumulated: dict[tuple[str, int], list[float]] = {}
        #: values returned by the ``Driver.run`` calls, in order
        self.driver_runs: list[Any] = []
        #: rows in the database after each ``load_database`` call
        self.load_rows: list[int] = []
        #: databases, stores and FTLs constructed since the owner last cleared it
        self.built: list[Any] = []
        #: called with ``(result, args)`` after each crash-harness run
        self.after_harness: Callable[[Any, Any], None] | None = None
        self._span_layer: dict[str, int] = {}
        self._stack: list[list[float]] = [[OTHER, 0.0]]
        self._kept_stack: list[int] = [-1]
        self._depth = [0] * len(LAYERS)
        self._layer_incl = [0.0] * len(LAYERS)
        self._saved: list[tuple[Any, str, Any]] = []
        self._started = 0.0
        self._stopped = 0.0

    # ------------------------------------------------------------------
    # Install / restore
    # ------------------------------------------------------------------
    def start(self) -> None:
        from repro.core.store import NoFTLStore
        from repro.db.database import Database
        from repro.faults.harness import run_tpcc_crash_harness
        from repro.ftl.page_mapping import PageMappingFTL
        from repro.tpcc.driver import Driver
        from repro.tpcc.loader import load_database

        for cls in (Database, NoFTLStore, PageMappingFTL):
            self._replace(cls, "__init__", self._recording(vars(cls)["__init__"]))
        self._patch_function(load_database, "tpcc.load", "tpcc", after=self._count_rows)
        self._patch_method(Driver, "run", "tpcc.run", "tpcc",
                           after=lambda metrics, _args: self.driver_runs.append(metrics))
        self._patch_function(run_tpcc_crash_harness, "faults.harness", "faults",
                             after=self._harness_done)
        if self.fine:
            self._install_fine()
        self._started = perf_counter()

    def _install_fine(self) -> None:
        from repro.faults.chaos import run_chaos_plan
        from repro.obs.export import metrics_doc
        from repro.tpcc.transactions import TransactionExecutor

        for kind in ("new_order", "payment", "order_status", "delivery", "stock_level"):
            self._patch_method(TransactionExecutor, f"{kind}_txn", TXN, "tpcc")
        self._patch_function(run_chaos_plan, "faults.plan", "faults")
        self._patch_function(metrics_doc, "obs.metrics_doc", "obs", keep=False)
        for layer, cls, names in _entry_points():
            for name in names:
                # a subclass is patched only where it overrides the method
                if name in vars(cls):
                    self._patch_method(cls, name, f"{layer}.{cls.__name__}.{name}", layer,
                                       keep=False, drain=name == "scan")

    def stop(self) -> None:
        """End the traced interval and put every original attribute back."""
        self._stopped = perf_counter()
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def patched(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of everything currently replaced."""
        return list(self._saved)

    def _replace(self, owner: Any, name: str, new: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _patch_method(self, cls: type, name: str, span: str, layer: str, *,
                      keep: bool = True, after: Callable[..., None] | None = None,
                      drain: bool = False) -> None:
        self._replace(cls, name, self._wrap(vars(cls)[name], span, layer, keep, after, drain))

    def _patch_function(self, func: Callable[..., Any], span: str, layer: str, *,
                        keep: bool = True, after: Callable[..., None] | None = None) -> None:
        """Replace every ``repro.*`` module binding of a module-level function
        (``from x import f`` copies the reference into the importer)."""
        wrapper = self._wrap(func, span, layer, keep, after, False)
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._replace(module, attr, wrapper)

    def _recording(self, init: Callable[..., None]) -> Callable[..., None]:
        built = self.built

        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            built.append(obj)

        return __init__

    # -- what the phase hooks do once the wrapped call has returned ---------
    def _harness_done(self, result: Any, args: tuple[Any, ...]) -> None:
        if self.after_harness is not None:
            self.after_harness(result, args)

    def _count_rows(self, _result: Any, args: tuple[Any, ...]) -> None:
        db = args[0]  # load_database(db, ...) just returned
        self.load_rows.append(
            sum(db.table(info.name).row_count for info in db.catalog.tables())
        )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, original: Callable[..., Any], span: str, layer: str, keep: bool,
              after: Callable[..., None] | None, drain: bool) -> Callable[..., Any]:
        li = self._span_layer[span] = LAYERS.index(layer)
        stack, depth, layer_incl = self._stack, self._depth, self._layer_incl
        table = self.accumulated
        accs: list[list[float] | None] = [None] * len(LAYERS)
        spans, kept_stack = self.spans, self._kept_stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [li, 0.0]
            stack.append(frame)
            nested = depth[li]
            depth[li] = nested + 1
            if keep:
                record = [len(spans), kept_stack[-1], span, 0.0, 0.0]
                spans.append(record)
                kept_stack.append(record[0])
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if drain:  # a generator does its work when consumed: consume it here
                    result = iter(list(result))
                return result
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                depth[li] = nested
                parent[1] += duration
                acc = accs[int(parent[0])]
                if acc is None:
                    acc = accs[int(parent[0])] = table.setdefault(
                        (span, int(parent[0])), [0, 0.0, 0.0]
                    )
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if nested == 0:
                    layer_incl[li] += duration
                if keep:
                    record[3], record[4] = start, end
                    kept_stack.pop()

        if after is None:
            return wrapper

        def with_after(*args: Any, **kwargs: Any) -> Any:
            result = wrapper(*args, **kwargs)
            after(result, args)
            return result

        return with_after

    def call(self, name: str, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``func`` inside a kept span opened by the benchmark itself
        (a cell, a phase); its own time is charged to ``other``."""
        return self._wrap(func, name, "other", True, None, False)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def total(self, name: str, *, not_under: str | None = None) -> float:
        """Summed duration of the kept spans called ``name``."""
        by_id = {record[0]: record for record in self.spans}

        def under(record: list[Any]) -> bool:
            while record[1] != -1:
                record = by_id[record[1]]
                if record[2] == not_under:
                    return True
            return False

        return sum(
            record[4] - record[3]
            for record in self.spans
            if record[2] == name and not (not_under and under(record))
        )

    def durations(self, name: str) -> list[float]:
        return [record[4] - record[3] for record in self.spans if record[2] == name]

    def wall_s(self) -> float:
        return self._stopped - self._started

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: boundary calls, inclusive, self seconds and self share."""
        wall = self.wall_s()
        calls = [0.0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for (span, parent), (count, _incl, own) in self.accumulated.items():
            li = self._span_layer[span]
            self_s[li] += own
            if parent != li:
                calls[li] += count
        # the root frame: everything not covered by any span
        self_s[OTHER] += wall - self._stack[0][1]
        return {
            layer: {
                "calls": calls[li],
                "incl_s": self._layer_incl[li],
                "self_s": self_s[li],
                "self_frac": self_s[li] / wall if wall > 0 else 0.0,
            }
            for li, layer in enumerate(LAYERS)
        }

    def span_count(self) -> int:
        return int(sum(acc[0] for acc in self.accumulated.values()))

    def calls(self, *names: str, prefix: str | None = None) -> float:
        """Calls of the accumulated spans called one of ``names`` (or whose
        name starts with ``prefix``), whatever their parent."""
        return sum(
            acc[0] for (span, _), acc in self.accumulated.items()
            if span in names or (prefix is not None and span.startswith(prefix))
        )

    def incl_s(self, name: str) -> float:
        return sum(acc[1] for (span, _), acc in self.accumulated.items() if span == name)

    def boundary_calls(self, *names: str) -> float:
        """Like :meth:`calls`, counting only entries from another layer."""
        return sum(
            acc[0]
            for (span, parent), acc in self.accumulated.items()
            if span in names and parent != self._span_layer[span]
        )

    def document(self) -> dict[str, Any]:
        """Everything recorded, as written to ``results/trace-<workload>.json``."""
        return {
            "workload": self.workload,
            "wall_s": self.wall_s(),
            "layers": self.layer_table(),
            "accumulated": [
                {"name": span, "parent_layer": LAYERS[parent], "calls": acc[0],
                 "incl_s": acc[1], "self_s": acc[2]}
                for (span, parent), acc in sorted(self.accumulated.items())
            ],
            "spans": [
                {"id": sid, "parent": parent, "name": name, "workload": self.workload,
                 "start_s": start - self._started, "end_s": end - self._started}
                for sid, parent, name, start, end in self.spans
            ],
        }
