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

The worker count and the supervision policy are arguments of the one
runner, :func:`run_supervised`, not fields of the configs inside the
cells.  With ``shards > 1`` it hands each cell to
:mod:`repro.bench.supervisor`: its own *spawn* process with a heartbeat, a
wall-clock timeout, and bounded deterministic retries — a SIGKILLed or
hung worker is retried, and because cells are pure functions of their
pickled specs the retried run's merged document is byte-identical to the
sequential one.  When retries are exhausted the run salvages the
survivors into a ``degraded`` document instead of discarding everything
(see :class:`~repro.bench.supervisor.ShardRunReport`).  ``shards == 1``
(the default) runs the cells sequentially in process; that path is what
the benchmark scripts use and the reference the sharded-equality tests
and the CI smoke job compare against.

:func:`merge_metrics_docs` is the deterministic merge step: it reassembles
per-cell ``repro.obs/v1`` documents into the single document the
sequential path emits.  On a partition-closed workload the per-cell
config names are disjoint, so the merge is a pure order-preserving union;
colliding numeric sections (shards reporting slices of one logical
config) are summed leaf-wise.  Any structural disagreement between shard
documents — schema version, command, or section key sets — raises the
typed :class:`MergeError` rather than producing a silently wrong union.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

from repro.bench.experiment import TPCCExperimentConfig, TPCCExperimentResult, run_tpcc_experiment
from repro.bench.supervisor import ShardPolicy, ShardRunReport, run_cells_supervised
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


def run_supervised(
    cells: Iterable[ShardCell], shards: int = 1, policy: ShardPolicy | None = None
) -> tuple[list[Any], ShardRunReport]:
    """Run every cell; return ``(results in cell order, supervision report)``.

    ``shards == 1`` (or a single cell) runs sequentially in this process —
    the bit-identical baseline; ``shards > 1`` fans the cells out over
    ``min(shards, len(cells))`` supervised spawn workers under ``policy``.
    A cell that exhausts its retries raises
    :class:`~repro.bench.supervisor.ShardDegradedError` unless
    ``policy.allow_degraded`` is set; then it comes back as ``None`` and
    the report carries the ``degraded`` stanza for the merged document.
    """
    report = run_cells_supervised(cells, shards, policy)
    report.raise_if_blocked()
    return report.results(), report


def run_cells(
    cells: Iterable[ShardCell], shards: int, policy: ShardPolicy | None = None
) -> list[Any]:
    """:func:`run_supervised` for callers that need every result: a lost
    cell raises even under a policy that would allow degraded output."""
    strict = replace(policy or ShardPolicy(), allow_degraded=False)
    return run_supervised(cells, shards, strict)[0]


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
    traditional: TPCCExperimentConfig,
    regions: TPCCExperimentConfig,
    shards: int = 1,
    policy: ShardPolicy | None = None,
) -> tuple[list[TPCCExperimentResult | None], ShardRunReport]:
    """:func:`run_supervised` over the two Figure 3 cells."""
    return run_supervised(fig3_cells(traditional, regions), shards, policy)


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
    """Shard documents disagree structurally and cannot be merged.

    Raised on schema-version or command mismatch, conflicting top-level
    extras, and — for colliding config names — section key sets that
    differ between shards, list-length mismatches, or incompatible leaf
    types.  A subclass of :class:`ValueError` so pre-existing callers
    catching ``ValueError`` keep working.
    """


def merge_metrics_docs(docs: Sequence[JsonDict]) -> JsonDict:
    """Merge per-cell ``repro.obs/v1`` documents into one.

    All documents must share ``schema`` and ``command``; top-level extras
    (e.g. a ``policies`` stanza) must be equal wherever repeated.  Configs
    are unioned preserving first-appearance order, so on a
    partition-closed workload (disjoint config names — every CLI sharding
    path) the result equals the document the sequential path builds.  If
    two documents carry the *same* config name, their numeric section
    trees are summed leaf-wise (counter semantics; shards reporting
    slices of one logical config) — the trees must then agree key-for-key
    at every level: a shard silently missing (or inventing) a counter is
    a corrupted shard, and the merge fails loudly with :class:`MergeError`
    instead of unioning a half-empty tree into a wrong total.
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
                configs[name] = _merge_tree(configs[name], sections, name)
            else:
                configs[name] = _copy_tree(sections)
    merged: JsonDict = {"schema": schema, "command": command, "configs": configs}
    merged.update(extras)
    return merged


def _copy_tree(tree: JsonDict) -> JsonDict:
    """Deep-copy a numeric section tree (inputs stay untouched)."""
    return {
        key: _copy_tree(value) if isinstance(value, dict)
        else list(value) if isinstance(value, list)
        else value
        for key, value in tree.items()
    }


def _merge_tree(a: JsonDict, b: JsonDict, path: str) -> JsonDict:
    """Sum two numeric section trees leaf-wise; any shape mismatch raises.

    Key sets must match exactly at every level: shards summing slices of
    one logical config emit the same counters by construction, so a key
    present on one side only means a corrupted or truncated shard
    document — grounds for :class:`MergeError`, not a silent union.
    """
    only_a = [key for key in a if key not in b]
    only_b = [key for key in b if key not in a]
    if only_a or only_b:
        raise MergeError(
            f"cannot merge {path}: shard documents disagree on keys "
            f"(one side only: {sorted(only_a + only_b)})"
        )
    out: JsonDict = {}
    for key in a:
        where = f"{path}.{key}"
        value_a, value_b = a[key], b[key]
        if isinstance(value_a, dict) and isinstance(value_b, dict):
            out[key] = _merge_tree(value_a, value_b, where)
        elif isinstance(value_a, list) and isinstance(value_b, list):
            if len(value_a) != len(value_b):
                raise MergeError(f"cannot merge {where}: list lengths differ")
            out[key] = [x + y for x, y in zip(value_a, value_b)]
        elif isinstance(value_a, (int, float)) and isinstance(value_b, (int, float)):
            out[key] = value_a + value_b
        else:
            raise MergeError(f"cannot merge {where}: incompatible values")
    return out
