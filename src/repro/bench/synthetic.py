"""Synthetic hot/cold workloads for the ablation benchmarks.

The paper's Section 2 argues GC overhead "is highly dependent on the
ability to separate between hot and cold data" [3, 4].  These workloads
isolate that claim from TPC-C's complexity: a set of *object classes* with
controlled space shares and update-traffic shares runs against either one
region (mixed placement) or one region per class group (separated), on the
same device, at the same utilization — the only difference is who shares
erase blocks with whom.

The same workload can run against the baseline FTL, which is how the
FTL-vs-NoFTL motivation benchmark is built.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from repro.bench.errors import BenchConfigError
from repro.core.region import Region, RegionConfig
from repro.core.store import NoFTLStore
from repro.flash.device import FlashDevice
from repro.obs.export import JsonDict
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ftl.dftl import DFTL
from repro.ftl.hotcold import HotColdFTL
from repro.ftl.page_mapping import PageMappingFTL
from repro.mapping.engine import die_reserve_blocks


@dataclass(frozen=True)
class ObjectClass:
    """One synthetic object class.

    Attributes:
        name: label.
        space_share: fraction of live pages belonging to this class.
        traffic_share: fraction of the write stream updating this class.
        kind: ``"update"`` (rewrite random pages in place) or ``"append"``
            (extend the object; its old pages stay valid forever).
    """

    name: str
    space_share: float
    traffic_share: float
    kind: str = "update"

    def __post_init__(self) -> None:
        if not 0.0 < self.space_share <= 1.0:
            raise BenchConfigError("space_share must be in (0, 1]")
        if not 0.0 <= self.traffic_share <= 1.0:
            raise BenchConfigError("traffic_share must be in [0, 1]")
        if self.kind not in ("update", "append"):
            raise BenchConfigError("kind must be 'update' or 'append'")


#: The canonical two-class workload: a small scorching set and a large
#: cold set — the textbook case from [3, 4].
HOT_COLD_CLASSES = (
    ObjectClass("hot", space_share=0.125, traffic_share=0.9, kind="update"),
    ObjectClass("cold", space_share=0.875, traffic_share=0.1, kind="update"),
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of a synthetic run.

    ``gc_policy`` names the GC policy (see :mod:`repro.policies`) of every
    management layer the run builds — each region / FTL resolves its own
    fresh instance.  ``initial_bad_block_rate`` /
    ``device_seed`` configure the device's factory bad-block map;
    ``fault_plan`` optionally attaches a seeded fault injector for the
    measured write phase (preload is fault-free).
    """

    classes: tuple[ObjectClass, ...] = HOT_COLD_CLASSES
    dies: int = 8
    utilization: float = 0.7
    writes: int = 40_000
    seed: int = 1
    timing: TimingModel = field(default_factory=TimingModel)
    gc_policy: str = "greedy"
    initial_bad_block_rate: float = 0.0
    device_seed: int = 0
    fault_plan: object | None = None  # repro.faults.plan.FaultPlan

    def __post_init__(self) -> None:
        if self.writes < 0:
            raise BenchConfigError("writes must be >= 0")
        if not 0.0 < self.utilization < 1.0:
            raise BenchConfigError("utilization must be in (0, 1)")

    def geometry(self) -> FlashGeometry:
        """A small device with ``dies`` dies (2 planes, 32-page blocks)."""
        return FlashGeometry(
            channels=min(4, self.dies),
            chips_per_channel=max(1, self.dies // min(4, self.dies)),
            dies_per_chip=1,
            planes_per_die=2,
            blocks_per_plane=16,
            pages_per_block=32,
            page_size=4096,
            oob_size=64,
        )


@dataclass
class SyntheticResult:
    """Outcome of one synthetic run: its measured write phase.

    ``window`` is the registry snapshot of that phase alone (preload
    excluded, :meth:`~repro.obs.registry.MetricRegistry.snapshot` since
    the mark taken after it); the GC counts below are read from it.
    """

    name: str
    duration_s: float
    writes: int
    window: dict[str, float]

    @property
    def copybacks(self) -> int:
        """Pages GC relocated by COPYBACK in the window."""
        return int(self.window["mgmt.gc_copybacks"])

    @property
    def erases(self) -> int:
        """Blocks GC erased in the window."""
        return int(self.window["mgmt.gc_erases"])

    @property
    def write_amplification(self) -> float:
        """The window's ``mgmt.write_amplification``: pages written (host,
        GC and WL moves, translation pages) per host write."""
        return self.window["mgmt.write_amplification"]

    @property
    def writes_per_second(self) -> float:
        """Host writes per simulated second."""
        return self.writes / self.duration_s if self.duration_s > 0 else 0.0

    def row(self) -> list[object]:
        """Sweep-table row."""
        return [
            self.name,
            self.copybacks,
            self.erases,
            round(self.write_amplification, 2),
            round(self.writes_per_second, 0),
        ]

    def metrics(self) -> dict[str, JsonDict]:
        """This run's sections of a ``repro.obs/v1`` metrics document.

        ``summary`` mirrors :meth:`row` (unrounded) and ``registry`` is
        the window.
        """
        return {
            "summary": {
                "copybacks": float(self.copybacks),
                "erases": float(self.erases),
                "write_amplification": self.write_amplification,
                "writes_per_second": self.writes_per_second,
                "writes": float(self.writes),
                "duration_s": self.duration_s,
            },
            "registry": dict(self.window),
        }


def _die_shares(
    classes: tuple[ObjectClass, ...], dies: int, utilization: float
) -> list[int]:
    """Die allocation "based on sizes of objects and their I/O rate".

    Start from the mean of space and traffic shares, then repair against
    capacity: any class whose live data would exceed 90% of its region
    takes dies from the class with the most slack — the paper's trade-off
    between I/O parallelism and GC overhead, made explicit.
    """
    weights = [(c.space_share + c.traffic_share) / 2 for c in classes]
    total = sum(weights)
    raw = [max(1, round(w / total * dies)) for w in weights]
    while sum(raw) > dies:
        i = max(range(len(raw)), key=lambda j: raw[j])
        raw[i] -= 1
    order = sorted(range(len(classes)), key=lambda i: weights[i], reverse=True)
    i = 0
    while sum(raw) < dies:
        raw[order[i % len(order)]] += 1
        i += 1

    def live_need(i: int) -> float:  # live pages in units of one die's safe pages
        return classes[i].space_share * utilization * dies

    for __ in range(dies):
        over = [i for i in range(len(raw)) if live_need(i) > 0.9 * raw[i]]
        if not over:
            break
        victim = max(over, key=lambda i: live_need(i) / raw[i])
        donors = [i for i in range(len(raw)) if raw[i] > 1 and i != victim and live_need(i) <= 0.9 * (raw[i] - 1)]
        if not donors:
            break
        donor = min(donors, key=lambda i: live_need(i) / raw[i])
        raw[donor] -= 1
        raw[victim] += 1
    return raw


def _cumulative_shares(classes: tuple[ObjectClass, ...]) -> list[float]:
    """Running traffic shares: a write goes to ``bisect_left(sums, draw)``,
    the first class whose sum is at or above the draw."""
    return list(accumulate((cls.traffic_share for cls in classes), initial=0.0))[1:]


def _attach_fault_plan(device: FlashDevice, config: SyntheticConfig) -> None:
    """Arm the injector for the measured phase, if the config carries a plan."""
    if config.fault_plan is not None:
        from repro.faults.injector import FaultInjector

        device.attach_fault_injector(FaultInjector(config.fault_plan))


def run_noftl_synthetic(config: SyntheticConfig, separated: bool) -> SyntheticResult:
    """Run the synthetic workload on NoFTL, mixed or separated."""
    store = NoFTLStore.create(
        config.geometry(),
        timing=config.timing,
        initial_bad_block_rate=config.initial_bad_block_rate,
        seed=config.device_seed,
    )
    regions: list[Region] = []
    if separated:
        shares = _die_shares(config.classes, config.dies, config.utilization)
        for cls, dies in zip(config.classes, shares):
            regions.append(
                store.create_region(
                    RegionConfig(
                        name=f"rg_{cls.name}",
                        gc_policy=config.gc_policy,
                    ),
                    num_dies=dies,
                )
            )
    else:
        shared = store.create_region(
            RegionConfig(name="rgAll", gc_policy=config.gc_policy),
            num_dies=config.dies,
        )
        regions = [shared for __ in config.classes]

    total_safe = sum(
        r.engine.safe_capacity_pages() for r in {id(r): r for r in regions}.values()
    )
    live_target = int(total_safe * config.utilization)
    page_sets: list[list[int]] = []
    t = 0.0
    payload = b"s" * 512
    for cls, region in zip(config.classes, regions):
        pages = region.allocate(max(1, int(live_target * cls.space_share)))
        for p in pages:
            t = region.write(p, payload, t)
        page_sets.append(pages)
    _attach_fault_plan(store.device, config)

    rng = random.Random(config.seed)
    cumulative = _cumulative_shares(config.classes)
    total = cumulative[-1]
    draw, choice = rng.random, rng.choice
    appends = [cls.kind == "append" for cls in config.classes]
    writes = [region.write for region in regions]
    start_t, window_start = t, store.metrics_registry().mark()
    for __ in range(config.writes):
        index = bisect_left(cumulative, draw() * total)
        pages = page_sets[index]
        if appends[index] and regions[index].free_pages() > 0:
            [p] = regions[index].allocate(1)
            pages.append(p)
            t = writes[index](p, payload, t)
        else:
            t = writes[index](choice(pages), payload, t)
    return SyntheticResult(
        name="separated" if separated else "mixed",
        duration_s=(t - start_t) / 1e6,
        writes=config.writes,
        window=store.metrics_registry().snapshot(since=window_start),
    )


def run_ftl_synthetic(config: SyntheticConfig, ftl: str = "page", cmt_entries: int = 512) -> SyntheticResult:
    """Run the same workload on an FTL SSD.

    ``ftl`` selects the controller: ``"page"`` (plain page mapping),
    ``"dftl"`` (bounded mapping cache) or ``"hotcold"`` (on-device
    update-frequency separation — the best a knowledge-free device can do).
    """
    geometry = config.geometry()
    device = FlashDevice(
        geometry,
        timing=config.timing,
        initial_bad_block_rate=config.initial_bad_block_rate,
        seed=config.device_seed,
    )
    # match the NoFTL runs' effective utilization: live pages are the same
    # fraction of reclaimable (reserve-adjusted) capacity on both stacks
    reserve_pages = geometry.dies * die_reserve_blocks() * geometry.pages_per_block
    safe_total = geometry.total_pages - reserve_pages
    live_target = int(safe_total * config.utilization)
    overprovision = max(0.05, 1.0 - (live_target / geometry.total_pages) - 0.02)
    if ftl == "page":
        dev: PageMappingFTL = PageMappingFTL(
            device,
            overprovision=overprovision,
            gc_policy=config.gc_policy,
        )
    elif ftl == "dftl":
        dev = DFTL(
            device,
            cmt_entries=cmt_entries,
            overprovision=overprovision,
            gc_policy=config.gc_policy,
        )
    elif ftl == "hotcold":
        dev = HotColdFTL(
            device,
            overprovision=overprovision,
            gc_policy=config.gc_policy,
        )
    else:
        raise BenchConfigError(f"unknown ftl kind {ftl!r}")

    total = dev.num_lbas
    live_target = min(total, live_target)
    lba_sets: list[list[int]] = []
    base = 0
    for cls in config.classes:
        count = max(1, int(live_target * cls.space_share))
        lba_sets.append(list(range(base, min(base + count, total))))
        base += count
    t = 0.0
    payload = b"s" * 512
    for lbas in lba_sets:
        for lba in lbas:
            t = dev.write(lba, payload, at=t)
    _attach_fault_plan(device, config)

    rng = random.Random(config.seed)
    cumulative = _cumulative_shares(config.classes)
    total = cumulative[-1]
    draw, choice, write = rng.random, rng.choice, dev.write
    start_t, window_start = t, dev.metrics_registry().mark()
    for __ in range(config.writes):
        t = write(choice(lba_sets[bisect_left(cumulative, draw() * total)]), payload, at=t)
    return SyntheticResult(
        name=f"ftl-{ftl}",
        duration_s=(t - start_t) / 1e6,
        writes=config.writes,
        window=dev.metrics_registry().snapshot(since=window_start),
    )
