"""Experiment harness: the experiment catalogue (:mod:`.catalogue`), one
TPC-C or synthetic cell (:mod:`.experiment`, :mod:`.synthetic`), cell lists
and their runner (:mod:`.sharding`), and paper-style reporting."""

from repro.bench.catalogue import CATALOGUE, synthetic_experiment, tpcc_experiment
from repro.bench.experiment import (
    TPCCExperimentConfig,
    TPCCExperimentResult,
    build_database,
    derive_method_placement,
    profile_objects,
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
    fig3_cells,
    ftl_cells,
    hotcold_cells,
    merge_metrics_docs,
    run_cells,
    run_fig3_supervised,
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
    "CATALOGUE",
    "FIGURE3_ROWS",
    "HOT_COLD_CLASSES",
    "MergeError",
    "ObjectClass",
    "ShardCell",
    "SyntheticConfig",
    "SyntheticResult",
    "TPCCExperimentConfig",
    "TPCCExperimentResult",
    "build_database",
    "derive_method_placement",
    "fig3_cells",
    "ftl_cells",
    "hotcold_cells",
    "merge_metrics_docs",
    "figure3_metrics_doc",
    "figure3_table",
    "format_value",
    "gc_interference_report",
    "profile_objects",
    "render_metrics_doc",
    "render_series",
    "render_timeline",
    "render_single",
    "render_table",
    "run_cells",
    "run_fig3_supervised",
    "run_ftl_synthetic",
    "run_noftl_synthetic",
    "run_tpcc_experiment",
    "save_report",
    "synthetic_experiment",
    "tpcc_experiment",
]
