"""Experiment harness: end-to-end TPC-C runs and paper-style reporting."""

from repro.bench.experiment import (
    TPCCExperimentConfig,
    TPCCExperimentResult,
    build_database,
    derive_method_placement,
    run_tpcc_experiment,
)
from repro.bench.reporting import (
    FIGURE3_ROWS,
    figure3_metrics_doc,
    figure3_table,
    format_value,
    render_metrics_doc,
    render_series,
    render_single,
    render_table,
    save_report,
)
from repro.bench.sharding import (
    MergeError,
    ShardCell,
    merge_metrics_docs,
    run_cells,
    run_fig3_supervised,
    run_ftl_supervised,
    run_hotcold_supervised,
)
from repro.bench.supervisor import (
    CellOutcome,
    ShardDegradedError,
    ShardPolicy,
    ShardRunReport,
    run_cells_supervised,
    shard_policy_from,
)
from repro.bench.synthetic import (
    HOT_COLD_CLASSES,
    ObjectClass,
    SyntheticConfig,
    SyntheticResult,
    run_ftl_synthetic,
    run_noftl_synthetic,
)
from repro.bench.timeline import gc_interference_report, render_timeline

__all__ = [
    "CellOutcome",
    "FIGURE3_ROWS",
    "HOT_COLD_CLASSES",
    "MergeError",
    "ObjectClass",
    "ShardCell",
    "ShardDegradedError",
    "ShardPolicy",
    "ShardRunReport",
    "SyntheticConfig",
    "SyntheticResult",
    "TPCCExperimentConfig",
    "TPCCExperimentResult",
    "build_database",
    "derive_method_placement",
    "merge_metrics_docs",
    "figure3_metrics_doc",
    "figure3_table",
    "format_value",
    "gc_interference_report",
    "render_metrics_doc",
    "render_series",
    "render_timeline",
    "render_single",
    "render_table",
    "run_cells",
    "run_cells_supervised",
    "run_fig3_supervised",
    "run_ftl_supervised",
    "run_ftl_synthetic",
    "run_hotcold_supervised",
    "run_noftl_synthetic",
    "run_tpcc_experiment",
    "save_report",
    "shard_policy_from",
]
