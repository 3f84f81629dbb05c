"""The experiment catalogue: every experiment this repo runs, written down once.

One table, id -> frozen config; an id is ``<experiment>.<mode>`` with mode
``quick`` (CI scale, and what the CLI runs with no flags) or ``full`` (the
EXPERIMENTS.md numbers).  Two roots are spelled out; every other entry is
a :func:`dataclasses.replace` of a root and shows only what differs.  The
CLI, ``benchmarks/bench_*.py`` (``f"{experiment}.{bench_mode()}"``) and
the examples read this table; outside ``tests/`` and the frozen
``benchmarks/e2e/`` nothing else constructs either config class.

An entry says what is simulated.  How the process runs it (the worker
count) is an argument of :func:`repro.bench.sharding.run_cells`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.errors import BenchConfigError
from repro.bench.experiment import TPCCExperimentConfig
from repro.bench.synthetic import SyntheticConfig
from repro.core.placement import traditional_placement
from repro.flash.geometry import paper_geometry
from repro.tpcc.schema import ScaleConfig

# TPC-C root: Figure 3 at CI scale.  placement=None: the consumer lays the
# traditional and the derived placement over it (sharding.fig3_cells).
_FIG3 = TPCCExperimentConfig(
    name="base",
    # 64 dies x 10 blocks x 32 pages: capacity scaled to the population
    geometry=paper_geometry(blocks_per_plane=5, pages_per_block=32),
    scale=ScaleConfig(
        warehouses=2,
        districts=10,
        customers_per_district=150,
        items=3000,
        initial_orders_per_district=40,
    ),
    num_transactions=3000,
    terminals=8,
    buffer_pages=768,
    flusher_interval=256,
)

# one warehouse: every terminal shares the same data, so the sweep over
# `terminals` isolates concurrency (more warehouses would grow the working set)
_TERMINALS = replace(
    _FIG3,
    name="terminals",
    placement=traditional_placement(64),
    scale=replace(_FIG3.scale, warehouses=1),
    num_transactions=1600,
)

# the profiling run the placement advisor reads its statistics from
_ADVISOR = replace(
    _FIG3,
    name="profile",
    placement=traditional_placement(64),
    geometry=paper_geometry(blocks_per_plane=4, pages_per_block=32),
    scale=replace(_FIG3.scale, initial_orders_per_district=30),
    num_transactions=1000,
    buffer_pages=1024,
)

# Synthetic root: the hot/cold ablation at CI scale (HOT_COLD_CLASSES).
_HOTCOLD = SyntheticConfig(dies=8, utilization=0.7, writes=12_000)
_FTL = replace(_HOTCOLD, utilization=0.65, writes=10_000)
_GC_POLICY = replace(_HOTCOLD, writes=10_000)

CATALOGUE: dict[str, TPCCExperimentConfig | SyntheticConfig] = {
    "fig3.quick": _FIG3,
    "fig3.full": replace(
        _FIG3,
        scale=replace(
            _FIG3.scale, customers_per_district=300, items=6000, initial_orders_per_district=60
        ),
        num_transactions=8000,
        buffer_pages=1024,
    ),
    "terminals.quick": _TERMINALS,
    "terminals.full": replace(_TERMINALS, num_transactions=4000),
    "advisor.quick": _ADVISOR,
    "advisor.full": replace(
        _ADVISOR,
        scale=replace(_ADVISOR.scale, customers_per_district=300, items=6000),
        num_transactions=2000,
    ),
    "hotcold.quick": _HOTCOLD,
    "hotcold.full": replace(_HOTCOLD, writes=40_000),
    "ftl.quick": _FTL,
    "ftl.full": replace(_FTL, writes=30_000),
    "gc_policy.quick": _GC_POLICY,
    "gc_policy.full": replace(_GC_POLICY, writes=30_000),
}


def tpcc_experiment(config_id: str) -> TPCCExperimentConfig:
    """The TPC-C entry ``config_id`` (e.g. ``"fig3.quick"``)."""
    config = CATALOGUE.get(config_id)
    if not isinstance(config, TPCCExperimentConfig):
        raise BenchConfigError(f"no TPC-C experiment {config_id!r} in the catalogue")
    return config


def synthetic_experiment(config_id: str) -> SyntheticConfig:
    """The synthetic entry ``config_id`` (e.g. ``"hotcold.quick"``)."""
    config = CATALOGUE.get(config_id)
    if not isinstance(config, SyntheticConfig):
        raise BenchConfigError(f"no synthetic experiment {config_id!r} in the catalogue")
    return config
