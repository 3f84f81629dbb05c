"""Sharded parallel execution of independent simulation cells.

The simulator's natural unit of parallelism is the *experiment cell*: one
complete stack (flash device + regions or FTL + workload driver) whose
dies nobody else touches.  The Figure 3 comparison is two such cells
(traditional and regions), the hot/cold ablation is two (mixed and
separated), and the FTL motivation experiment is five (three FTL stacks
plus two NoFTL placements).  Because a cell owns its entire device,
partitioning by cell *is* partitioning by die set: no flash command ever
crosses a shard boundary, the workload is partition-closed by
construction, and the sharded run computes bit-identical per-cell results.

The worker count is an argument of the one runner, :func:`run_cells`,
not a field of the configs inside the cells.  ``shards == 1`` (the
default) runs the cells sequentially in process; that path is what the
benchmark scripts use and the reference the sharded-equality tests and
the CI smoke job compare against.  ``shards > 1`` submits every cell to a
stdlib :class:`~concurrent.futures.ProcessPoolExecutor` of *spawn*
workers; ``multiprocessing`` and ``concurrent.futures`` are imported on
the first sharded call, so a process that never shards never loads them.
A cell is a pure function of its pickled arguments, so there is nothing
to retry: a cell that raises raises again, and its exception reaches the
caller with its own type, exactly as on the sequential path.
A worker that dies (SIGKILL, OOM kill) raises
:class:`~concurrent.futures.process.BrokenProcessPool`.

:func:`merge_metrics_docs` is the deterministic merge step: it reassembles
per-cell ``repro.obs/v1`` documents into the single document the
sequential path emits.  Cells are partition-closed, so their config names
are disjoint and the merge is an order-preserving union; a repeated
config name, or a disagreement in schema version, command or top-level
extras, raises the typed :class:`MergeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.bench.errors import BenchConfigError
from repro.bench.experiment import TPCCExperimentConfig, TPCCExperimentResult, run_tpcc_experiment
from repro.bench.synthetic import SyntheticConfig, SyntheticResult, run_ftl_synthetic, run_noftl_synthetic
from repro.obs.export import JsonDict


@dataclass(frozen=True)
class ShardCell:
    """One independently simulable cell: a label plus a picklable call.

    ``fn`` must be a module-level callable and ``args`` picklable — the
    spawn start method rebuilds both by import in the worker process.
    """

    name: str
    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()


def run_cells(cells: Iterable[ShardCell], shards: int = 1) -> list[Any]:
    """Run every cell; return the results in cell order.

    ``shards == 1`` (or a single cell) runs sequentially in this process —
    the bit-identical baseline.  Otherwise the cells run in
    ``min(shards, len(cells))`` spawn workers; the first failure, in cell
    order, cancels the cells not yet started and is raised here — the
    cell's own exception, or ``BrokenProcessPool`` if a worker died.
    """
    if shards < 1:
        raise BenchConfigError("shards must be >= 1")
    todo = list(cells)
    if shards == 1 or len(todo) <= 1:
        return [cell.fn(*cell.args) for cell in todo]
    # imported here, not at module level: the pool machinery (~2 MiB of
    # modules) is paid for by sharded runs only
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(shards, len(todo)), mp_context=spawn) as pool:
        futures = [pool.submit(cell.fn, *cell.args) for cell in todo]
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


# ----------------------------------------------------------------------
# Cell lists for the three experiment commands
# ----------------------------------------------------------------------

def fig3_cells(
    traditional: TPCCExperimentConfig, regions: TPCCExperimentConfig
) -> list[ShardCell]:
    """The Figure 3 comparison as two independent cells."""
    return [
        ShardCell(traditional.name, run_tpcc_experiment, (traditional,)),
        ShardCell(regions.name, run_tpcc_experiment, (regions,)),
    ]


def run_fig3_supervised(
    traditional: TPCCExperimentConfig, regions: TPCCExperimentConfig, shards: int = 1
) -> tuple[list[TPCCExperimentResult], None]:
    """:func:`run_cells` over the two Figure 3 cells, as ``(results, None)``.

    Kept only for its one caller, the frozen ``benchmarks/e2e/workloads.py``,
    which unpacks a pair; the benchmark re-baseline (ROADMAP item 4) moves
    that caller to :func:`run_cells` and deletes this function.
    """
    return run_cells(fig3_cells(traditional, regions), shards), None


def hotcold_cells(config: SyntheticConfig) -> list[ShardCell]:
    """The hot/cold ablation as two independent cells."""
    return [
        ShardCell("mixed", run_noftl_synthetic, (config, False)),
        ShardCell("separated", run_noftl_synthetic, (config, True)),
    ]


def _noftl_stack(config: SyntheticConfig, separated: bool) -> SyntheticResult:
    """A NoFTL cell of the FTL comparison, labelled like its FTL neighbours."""
    result = run_noftl_synthetic(config, separated)
    result.name = "noftl-regions" if separated else "noftl-mixed"
    return result


def ftl_cells(config: SyntheticConfig) -> list[ShardCell]:
    """The FTL-vs-NoFTL experiment as five independent cells."""
    return [
        ShardCell("ftl-page", run_ftl_synthetic, (config, "page")),
        ShardCell("ftl-dftl", run_ftl_synthetic, (config, "dftl", 256)),
        ShardCell("ftl-hotcold", run_ftl_synthetic, (config, "hotcold")),
        ShardCell("noftl-mixed", _noftl_stack, (config, False)),
        ShardCell("noftl-regions", _noftl_stack, (config, True)),
    ]


# ----------------------------------------------------------------------
# Deterministic document merge
# ----------------------------------------------------------------------

_ENVELOPE_KEYS = ("schema", "command", "configs")


class MergeError(ValueError):
    """Shard documents disagree and cannot be merged.

    Raised on schema-version or command mismatch, conflicting top-level
    extras, and a config name carried by two documents.  A subclass of
    :class:`ValueError` so pre-existing callers catching ``ValueError``
    keep working.
    """


def merge_metrics_docs(docs: Sequence[JsonDict]) -> JsonDict:
    """Merge per-cell ``repro.obs/v1`` documents into one.

    All documents must share ``schema`` and ``command``; top-level extras
    (e.g. a ``policies`` stanza) must be equal wherever repeated.  Configs
    are unioned preserving first-appearance order, so the result equals
    the document the sequential path builds.  Each cell owns its config
    names: a name in two documents raises :class:`MergeError`.
    """
    if not docs:
        raise MergeError("nothing to merge: no metrics documents given")
    schema = docs[0].get("schema")
    command = docs[0].get("command")
    configs: dict[str, JsonDict] = {}
    extras: dict[str, object] = {}
    for doc in docs:
        if doc.get("schema") != schema:
            raise MergeError(
                f"cannot merge documents of different schema versions: "
                f"{doc.get('schema')!r} vs {schema!r}"
            )
        if doc.get("command") != command:
            raise MergeError(
                f"cannot merge documents of different runs: "
                f"{doc.get('command')!r} vs {command!r}"
            )
        for key, value in doc.items():
            if key in _ENVELOPE_KEYS:
                continue
            if key in extras and extras[key] != value:
                raise MergeError(f"conflicting top-level section {key!r} across shards")
            extras.setdefault(key, value)
        for name, sections in doc.get("configs", {}).items():
            if name in configs:
                raise MergeError(f"config {name!r} appears in more than one document")
            configs[name] = sections
    merged: JsonDict = {"schema": schema, "command": command, "configs": configs}
    merged.update(extras)
    return merged
