"""End-to-end TPC-C experiment harness (the paper's Section 3 setup).

One :class:`TPCCExperimentConfig` describes what one cell simulates:
storage architecture (NoFTL placement or FTL block device), device
geometry, population scale, driver parameters and measurement budget.
Device, population and buffer have no defaults: every experiment is a
named entry of :mod:`repro.bench.catalogue`.
:func:`run_tpcc_experiment` builds the stack, loads the database,
marks the metric registry, runs the driver and returns the driver's
summary with the registry snapshot of the measured window only.  A cell
is resumable (:class:`_Cell`): the placement-profiling run is the first
transactions of the traditional cell, which continues it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.placement import PlacementConfig
from repro.bench.errors import BenchConfigError
from repro.db.database import Database
from repro.flash.geometry import FlashGeometry
from repro.mapping.engine import die_reserve_blocks
from repro.obs.export import JsonDict
from repro.flash.timing import TimingModel
from repro.tpcc.driver import Driver
from repro.tpcc.loader import load_database
from repro.tpcc.schema import ScaleConfig

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.advisor import ObjectStats
    from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class TPCCExperimentConfig:
    """Everything needed to reproduce one experimental cell.

    Attributes:
        name: label for reports.
        placement: region layout (``None`` selects the FTL block device).
        ftl: when ``placement is None``: ``"page"`` or ``"dftl"``.
        geometry: flash device shape (required; the experiments use the
            paper's 64 dies with a capacity scaled to the population).
        scale: TPC-C population (required).
        terminals: closed-loop concurrency.
        buffer_pages / flusher_interval: buffer manager (required); the
            flusher batch and the per-access CPU charge are the
            :class:`~repro.db.Database` defaults.
        num_transactions / duration_us: measurement budget (at least one).
        timing: flash latency model.
        seed: workload RNG seed.
        overprovision: FTL-only export fraction.
        gc_policy: GC policy name (:mod:`repro.policies`) for
            the FTL path and for placements derived from this config;
            an explicit ``placement`` carries its own per-region policies.
        initial_bad_block_rate / device_seed: factory bad-block model of
            the underlying device.
        fault_plan: optional fault-injection schedule, attached after load
            so its operation numbers count from the start of the measured
            run (``None`` keeps the device fault-free and bit-identical to
            runs predating fault injection).
    """

    name: str
    placement: PlacementConfig | None = None
    ftl: str = "page"
    geometry: FlashGeometry = field(kw_only=True)
    scale: ScaleConfig = field(kw_only=True)
    terminals: int = 8
    buffer_pages: int = field(kw_only=True)
    flusher_interval: int = field(kw_only=True)
    num_transactions: int | None = None
    duration_us: float | None = None
    timing: TimingModel = field(default_factory=TimingModel)
    seed: int = 42
    overprovision: float = 0.1
    gc_policy: str = "greedy"
    initial_bad_block_rate: float = 0.0
    device_seed: int = 0
    fault_plan: "FaultPlan | None" = None


#: (label, document key, source, higher_is_better) — the exact Figure 3
#: row set.  ``source`` is the window key a row reads (``mgmt.*``), or the
#: key of the driver's summary (:meth:`TPCCExperimentResult.row`).
FIGURE3_ROWS: tuple[tuple[str, str, str, bool], ...] = (
    ("TPS", "tps", "tps", True),
    ("READ 4KB (us)", "read_latency_us", "mgmt.host_read_latency_mean_us", False),
    ("READ 4KB p99 (us)", "read_latency_p99_us", "mgmt.host_read_latency_p99_us", False),
    ("WRITE 4KB (us)", "write_latency_us", "mgmt.host_write_latency_mean_us", False),
    ("WRITE 4KB p99 (us)", "write_latency_p99_us", "mgmt.host_write_latency_p99_us", False),
    ("NewOrder TRX (ms)", "NewOrder_ms", "NewOrder_ms", False),
    ("Payment TRX (ms)", "Payment_ms", "Payment_ms", False),
    ("StockLevel TRX (ms)", "StockLevel_ms", "StockLevel_ms", False),
    ("Transactions", "transactions", "transactions", True),
    ("Host READ I/Os", "host_reads", "mgmt.host_reads", True),
    ("Host WRITE I/Os", "host_writes", "mgmt.host_writes", True),
    ("GC COPYBACKs", "gc_copybacks", "mgmt.gc_copybacks", False),
    ("GC ERASEs", "gc_erases", "mgmt.gc_erases", False),
)

_FIGURE3_SOURCES = {key: source for __, key, source, __ in FIGURE3_ROWS}


@dataclass
class TPCCExperimentResult:
    """The measured window of one experiment cell.

    ``workload`` is the driver's summary (TPS, transaction latencies);
    ``window`` is the registry snapshot of the window alone
    (:meth:`~repro.obs.registry.MetricRegistry.snapshot` since the mark
    taken after load), so no key of it counts load I/O.
    """

    config: TPCCExperimentConfig
    workload: dict[str, float]
    window: dict[str, float]
    load_time_us: float

    @property
    def storage(self) -> dict[str, float]:
        """The window's ``mgmt.*`` keys, unprefixed: a read-only view that
        ``benchmarks/e2e/workloads.py`` reads (``storage["gc_copybacks"]``)."""
        return {
            key.removeprefix("mgmt."): value
            for key, value in self.window.items()
            if key.startswith("mgmt.")
        }

    @property
    def per_region(self) -> dict[str, dict[str, float]]:
        """The window's ``region.<name>.*`` keys, grouped by region."""
        grouped: dict[str, dict[str, float]] = {}
        for key, value in self.window.items():
            if key.startswith("region."):
                __, name, local = key.split(".", 2)
                grouped.setdefault(name, {})[local] = value
        return grouped

    def row(self, key: str) -> float:
        """A Figure 3 cell by its document key, else a window or workload
        value by its own key."""
        source = _FIGURE3_SOURCES.get(key, key)
        return self.window[source] if source in self.window else self.workload[source]

    def metrics(self) -> dict[str, JsonDict]:
        """This run's sections of a ``repro.obs/v1`` metrics document.

        ``figure3`` holds exactly the printed Figure 3 rows (same values
        as :meth:`row`) and ``registry`` is the window.
        """
        return {
            "figure3": {key: float(self.row(key)) for __, key, __, __ in FIGURE3_ROWS},
            "registry": dict(self.window),
        }


def build_database(config: TPCCExperimentConfig) -> Database:
    """Construct the database stack for one experiment cell."""
    common = dict(
        buffer_pages=config.buffer_pages,
        flusher_interval=config.flusher_interval,
    )
    if config.placement is not None:
        return Database.on_native_flash(
            geometry=config.geometry,
            placement=config.placement,
            timing=config.timing,
            initial_bad_block_rate=config.initial_bad_block_rate,
            device_seed=config.device_seed,
            **common,
        )
    return Database.on_block_device(
        geometry=config.geometry,
        timing=config.timing,
        ftl=config.ftl,
        overprovision=config.overprovision,
        gc_policy=config.gc_policy,
        initial_bad_block_rate=config.initial_bad_block_rate,
        device_seed=config.device_seed,
        **common,
    )


class _Cell:
    """One TPC-C cell as a resumable run.

    Construction builds the stack, loads it, attaches the fault plan and
    marks the registry where the measured window starts; the cell
    owns the :class:`Driver`.  :meth:`advance` runs the stream to a budget
    (totals since the window opened) and :meth:`result` reads the window.
    A fresh cell is a cell paused at zero transactions.
    """

    def __init__(self, config: TPCCExperimentConfig) -> None:
        if config.num_transactions is None and config.duration_us is None:
            raise BenchConfigError("experiment needs num_transactions and/or duration_us")
        self.config = config
        db = self.db = build_database(config)
        self.load_end = load_database(db, config.scale, seed=config.seed)
        if config.fault_plan is not None:
            from repro.faults.injector import FaultInjector

            # attached after load: plan op numbers count from the measured run
            db.device.attach_fault_injector(FaultInjector(config.fault_plan))
        self._window_start = db.metrics_registry().mark()
        self.driver = Driver(db, config.scale, terminals=config.terminals, seed=config.seed)

    def advance(self) -> None:
        """Run the stream on to the config's budget.  The transactions
        execute inside :meth:`Driver.run`, the span host-time measurements
        take as the measured window."""
        self.driver.run(
            num_transactions=self.config.num_transactions,
            duration_us=self.config.duration_us,
            start_us=self.load_end,
        )

    def result(self) -> TPCCExperimentResult:
        """The Figure 3 stat set of the window so far."""
        db = self.db
        if db.store is not None:
            db.store.check_consistency()
        return TPCCExperimentResult(
            config=self.config,
            workload=self.driver.metrics.summary(),
            window=db.metrics_registry().snapshot(since=self._window_start),
            load_time_us=self.load_end,
        )


#: The hand-off slot: the paused profiling cell of the latest
#: :func:`derive_method_placement`, until a cell that is the same run takes
#: it or the next derivation replaces it.  Per process: cells that run in
#: spawned shard workers find it empty and build fresh.
_parked: _Cell | None = None


def _claim(config: TPCCExperimentConfig) -> _Cell | None:
    """Take the parked cell if ``config`` is the run it has begun: equal in
    every field but the label and the budget (so, like the profile, no
    fault plan and no duration budget) and not already past the budget."""
    global _parked
    cell = _parked
    if (
        cell is None
        or config.num_transactions is None
        or config.num_transactions < cell.driver.metrics.transactions
        or replace(config, name=cell.config.name, num_transactions=cell.config.num_transactions)
        != cell.config
    ):
        return None
    _parked = None
    cell.config = config
    return cell


def profile_objects(
    config: TPCCExperimentConfig,
) -> tuple[list[ObjectStats], dict[str, int]]:
    """Profile the configured workload: build, load, run the transaction
    budget, and return ``(per-object statistics after the run, object sizes
    in pages at load)`` — what a placement is derived from."""
    return _profile(_Cell(config))


def _profile(cell: _Cell) -> tuple[list[ObjectStats], dict[str, int]]:
    sizes_at_load = {s.name: s.size_pages for s in cell.db.object_stats()}
    cell.advance()
    return cell.db.object_stats(), sizes_at_load


def derive_method_placement(
    config: TPCCExperimentConfig,
    budget_transactions: int,
    profile_transactions: int = 2000,
    name: str = "regions",
    growth_safety: float = 1.25,
) -> "PlacementConfig":
    """Apply the paper's placement method to the configured workload.

    The paper built Figure 2 by grouping TPC-C objects by their I/O
    properties and distributing the 64 dies "based on sizes of objects and
    their I/O rate" — for *their* database.  This does the same derivation
    for the database at hand: load it, run a profiling window under
    traditional placement, project each object's size to the end of the
    measured run (append-only objects grow), and allocate the die budget
    over the paper's six object groups from the measured I/O rates with a
    capacity repair against the projected sizes.

    The profiling run is the start of the traditional cell of the same
    experiment; its paused cell is left for :func:`run_tpcc_experiment`
    to continue (see :func:`_claim`).
    """
    from repro.core.advisor import ObjectStats, allocate_dies_for_groups
    from repro.core.placement import FIGURE2_GROUPS, traditional_placement

    global _parked
    if profile_transactions < 1:
        raise BenchConfigError(
            "profile_transactions must be >= 1: growth is projected per profiled transaction"
        )
    if budget_transactions < 0:
        raise BenchConfigError("budget_transactions must be >= 0")
    cell = _Cell(
        replace(
            config,
            name="profile",
            placement=traditional_placement(config.geometry.dies, gc_policy=config.gc_policy),
            num_transactions=profile_transactions,
            duration_us=None,
            fault_plan=None,
        )
    )
    stats, sizes_at_load = _profile(cell)
    _parked = cell
    projected: list[ObjectStats] = []
    for s in stats:
        growth = max(0, s.size_pages - sizes_at_load.get(s.name, 0))
        projected_size = s.size_pages + int(
            growth / profile_transactions * budget_transactions * growth_safety
        )
        projected.append(
            ObjectStats(name=s.name, size_pages=projected_size, reads=s.reads, writes=s.writes)
        )
    geometry = config.geometry
    safe_per_die = (geometry.blocks_per_die - die_reserve_blocks()) * geometry.pages_per_block
    groups = [(group_name, objects) for group_name, __, objects in FIGURE2_GROUPS]
    return allocate_dies_for_groups(
        groups,
        projected,
        geometry.dies,
        safe_pages_per_die=safe_per_die,
        headroom=1.15,
        gc_policy=config.gc_policy,
        name=name,
    )


def run_tpcc_experiment(config: TPCCExperimentConfig) -> TPCCExperimentResult:
    """Load, measure, and return the Figure 3 stat set for one config.

    When the latest :func:`derive_method_placement` profiled this very run
    (see :func:`_claim`), its paused cell is continued instead of being
    built, loaded and replayed again; the result is the same bit for bit.
    """
    cell = _claim(config) or _Cell(config)
    cell.advance()
    return cell.result()
