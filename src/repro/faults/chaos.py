"""Seeded chaos harness: generated fault plans, checked recovery invariants.

The fault matrix in :mod:`tests.faults` exercises the recovery paths
against *hand-written* plans — a handful of curated schedules.  This
module explores the generated fault space instead: a
:class:`FaultPlanGenerator` samples randomized-but-reproducible plans
(same seed → same plans, independent of ``PYTHONHASHSEED``), and
:func:`run_chaos` runs N of them through the end-to-end TPC-C
crash-replay harness, checking four recovery invariants after each:

1. **accounting** — the :class:`~repro.faults.stats.FaultStats`
   double-entry identity closes: ``injected.total == recovered.total +
   retired.total``.  Every injected fault must reach a recovery or
   retirement outcome; nothing is silently dropped.
2. **wal_replay** — after a power cut, OOB mapping rebuild plus
   transactional WAL replay into a restored backup passes the TPC-C
   consistency checks (for crash-free plans this degenerates to plain
   flush-and-replay consistency).
3. **capacity** — the store's ``capacity_report`` stays sane: the
   degraded flag agrees with the failed-die list, totals equal the
   per-region sums, no failed die is still owned by a region, and no
   region uses more pages than it can hold.
4. **mapping** — every region engine's mapping invariants still hold
   (``check_consistency``).

A fifth, plan-independent check runs once per chaos session: the
**no-plan bit-identity control** — two fault-free harness runs must
produce identical metrics, pinning that the chaos machinery itself
perturbs nothing.

Plans are constrained *by construction* to shapes whose accounting can
close — the constraints mirror how the engine recovers:

* ``read_transient`` never uses a ``probability`` trigger: the engine's
  bounded retry re-reads the same page, and a probabilistic spec could
  re-fire on the retry itself, counting a second injection against a
  single recovery.  ``at_op``/``every`` triggers cannot hit the retry
  read (it is the very next op).  The *summed* retry budgets of a plan's
  read specs stay within the engine's
  :data:`~repro.faults.plan.MAX_READ_RETRIES`: distinct specs firing
  back-to-back stack onto one retry chain (each firing re-arms the
  pending-read counter), so an unbounded sum could exhaust the bounded
  retry and escape as an unrecovered error.
* ``program_fail`` probabilities stay small with bounded counts so a
  redrive chain cannot plausibly exhaust the engine's
  ``MAX_WRITE_REDRIVES``.
* ``power_cut`` is a one-shot ``at_op`` spec — the documented
  single-crash model — and the harness quiesces the injector after the
  measured run, so recovery traffic cannot fire a second cut.
* ``die_fail`` victims are distinct and capped well below the die count;
  the harness settles unobserved die deaths so late kills still retire.

Soak mode runs the session's plans as cells of
:func:`repro.bench.sharding.run_cells` in spawn workers: each plan is a
pure function of the config and its index, so the sharded session emits
the sequential session's document byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.faults.harness import CrashHarnessResult, run_tpcc_crash_harness
from repro.faults.plan import MAX_READ_RETRIES, FaultPlan, FaultSpec
from repro.mapping import BookkeepingError

#: invariant names in report order
CHAOS_CHECKS = ("accounting", "wal_replay", "capacity", "mapping")


class ChaosConfigError(ValueError):
    """A chaos generator or config was built with invalid parameters.

    Subclasses ``ValueError`` so existing generic handlers keep working
    (typed-error discipline, like ``MergeError`` in bench/sharding.py).
    """


@dataclass(frozen=True)
class IntensityTier:
    """How hostile a generated plan may be.

    ``min_specs``/``max_specs`` bound the draw of base faults
    (read/program/wear-out); die kills and the power cut are budgeted
    separately because they dominate recovery cost.
    """

    name: str
    min_specs: int
    max_specs: int
    max_die_fails: int
    power_cut_chance: float
    max_read_count: int
    max_program_count: int


INTENSITY_TIERS: dict[str, IntensityTier] = {
    "light": IntensityTier(
        name="light", min_specs=1, max_specs=2, max_die_fails=0,
        power_cut_chance=0.25, max_read_count=4, max_program_count=2,
    ),
    "medium": IntensityTier(
        name="medium", min_specs=2, max_specs=4, max_die_fails=1,
        power_cut_chance=0.5, max_read_count=8, max_program_count=3,
    ),
    "heavy": IntensityTier(
        name="heavy", min_specs=3, max_specs=6, max_die_fails=2,
        power_cut_chance=0.75, max_read_count=12, max_program_count=4,
    ),
}

#: ceiling on generated read-retry budgets; the engine retries up to
#: MAX_READ_RETRIES (8) times, so 4 leaves comfortable headroom
_MAX_GENERATED_RETRIES = 4

#: program-fail probability band: small enough that a redrive chain
#: exhausting MAX_WRITE_REDRIVES (8 consecutive re-fires) is implausible
_PROGRAM_FAIL_P = (1e-4, 8e-4)


class FaultPlanGenerator:
    """Samples reproducible fault plans from an intensity tier.

    Each plan is derived from ``Random(f"chaos:{seed}:{tier}:{index}")``
    — a string seed, so the stream is independent of ``PYTHONHASHSEED``
    and two generators with the same parameters agree plan-for-plan
    across processes.  ``op_budget`` anchors trigger placement roughly to
    the workload's operation count; a trigger landing past the real op
    count simply never fires (and an unfired spec closes trivially, with
    zero injections).
    """

    def __init__(
        self,
        seed: int,
        intensity: str | IntensityTier = "light",
        *,
        op_budget: int = 1000,
        dies: int = 16,
    ) -> None:
        if isinstance(intensity, str):
            if intensity not in INTENSITY_TIERS:
                raise ChaosConfigError(
                    f"unknown intensity {intensity!r}; "
                    f"want one of {sorted(INTENSITY_TIERS)}"
                )
            intensity = INTENSITY_TIERS[intensity]
        if op_budget < 100:
            raise ChaosConfigError("op_budget must be >= 100")
        if dies < 4:
            raise ChaosConfigError("dies must be >= 4 (die kills need survivors)")
        self.seed = seed
        self.tier = intensity
        self.op_budget = op_budget
        self.die_count = dies

    def plan(self, index: int) -> FaultPlan:
        """The ``index``-th plan of this generator's deterministic stream."""
        tier = self.tier
        budget = self.op_budget
        rng = random.Random(f"chaos:{self.seed}:{tier.name}:{index}")
        specs: list[FaultSpec] = []
        wearouts = 0
        # worst case, every read spec fires on one page's retry chain;
        # their summed budgets must not exhaust the engine's bounded retry
        read_budget = MAX_READ_RETRIES
        for _ in range(rng.randint(tier.min_specs, tier.max_specs)):
            kind = rng.choice(("read_transient", "program_fail", "wearout"))
            if kind == "wearout" and wearouts >= 1:
                # the injector carries one pending wear-out at a time;
                # keep plans within what the accounting can attribute
                kind = "read_transient"
            if kind == "read_transient" and read_budget < 1:
                kind = "program_fail"
            if kind == "read_transient":
                spec = self._read_transient(rng, budget, tier, read_budget)
                read_budget -= spec.retries
                specs.append(spec)
            elif kind == "program_fail":
                specs.append(self._program_fail(rng, budget, tier))
            else:
                wearouts += 1
                specs.append(self._wearout(rng, budget))
        for die in self._die_victims(rng, tier):
            specs.append(
                FaultSpec(
                    kind="die_fail",
                    at_op=rng.randint(max(1, budget // 4), budget),
                    die=die,
                )
            )
        if rng.random() < tier.power_cut_chance:
            # one-shot by at_op semantics: the single-crash model
            specs.append(
                FaultSpec(kind="power_cut", at_op=rng.randint(max(1, budget // 3), budget))
            )
        return FaultPlan(specs=tuple(specs), seed=rng.randrange(1 << 31))

    def plans(self, count: int) -> list[FaultPlan]:
        """The first ``count`` plans of the stream."""
        return [self.plan(index) for index in range(count)]

    # -- per-kind samplers -------------------------------------------------

    def _read_transient(
        self, rng: random.Random, budget: int, tier: IntensityTier,
        read_budget: int = MAX_READ_RETRIES,
    ) -> FaultSpec:
        retries = rng.randint(1, min(_MAX_GENERATED_RETRIES, read_budget))
        if rng.random() < 0.5:
            return FaultSpec(
                kind="read_transient", at_op=rng.randint(1, budget), retries=retries
            )
        every = rng.randint(max(16, budget // 50), max(17, budget // 4))
        return FaultSpec(
            kind="read_transient",
            every=every,
            count=rng.randint(1, tier.max_read_count),
            retries=retries,
        )

    def _program_fail(
        self, rng: random.Random, budget: int, tier: IntensityTier
    ) -> FaultSpec:
        roll = rng.random()
        count = rng.randint(1, tier.max_program_count)
        if roll < 1 / 3:
            return FaultSpec(kind="program_fail", at_op=rng.randint(1, budget))
        if roll < 2 / 3:
            every = rng.randint(max(32, budget // 20), max(33, budget // 3))
            return FaultSpec(kind="program_fail", every=every, count=count)
        low, high = _PROGRAM_FAIL_P
        return FaultSpec(
            kind="program_fail", probability=rng.uniform(low, high), count=count
        )

    def _wearout(self, rng: random.Random, budget: int) -> FaultSpec:
        if rng.random() < 0.5:
            return FaultSpec(kind="wearout", at_op=rng.randint(1, budget))
        every = rng.randint(max(10, budget // 10), max(11, budget // 2))
        return FaultSpec(kind="wearout", every=every, count=1)

    def _die_victims(self, rng: random.Random, tier: IntensityTier) -> list[int]:
        kills = rng.randint(0, tier.max_die_fails)
        if kills == 0:
            return []
        return sorted(rng.sample(range(self.die_count), kills))


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos session: how many plans, how hostile, what workload."""

    plans: int = 25
    seed: int = 7
    intensity: str = "light"
    num_transactions: int = 120
    terminals: int = 4
    workload_seed: int = 21
    #: trigger-placement anchor; ``None`` derives it from the
    #: transaction budget (~8 injectable device ops per TPC-C txn)
    op_budget: int | None = None

    def __post_init__(self) -> None:
        if self.plans < 1:
            raise ChaosConfigError("plans must be >= 1")
        if self.intensity not in INTENSITY_TIERS:
            raise ChaosConfigError(
                f"unknown intensity {self.intensity!r}; "
                f"want one of {sorted(INTENSITY_TIERS)}"
            )

    def budget(self) -> int:
        if self.op_budget is not None:
            return self.op_budget
        return max(200, self.num_transactions * 8)

    def generator(self) -> FaultPlanGenerator:
        return FaultPlanGenerator(
            self.seed, self.intensity, op_budget=self.budget()
        )


def plan_label(index: int) -> str:
    """Stable per-plan config name (doc keys, shard cell names)."""
    return f"plan_{index:03d}"


@dataclass(frozen=True)
class PlanVerdict:
    """Outcome of one generated plan: what fired, what the checks said.

    Deliberately small and picklable (no database handles) so soak mode
    can ship verdicts across spawn workers.
    """

    index: int
    specs: int
    crashed: bool
    transactions: int
    failed_dies: tuple[int, ...]
    checks: dict[str, bool]
    fault_snapshot: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def injected_total(self) -> float:
        return self.fault_snapshot.get("injected.total", 0.0)

    def metrics(self) -> dict[str, dict[str, float]]:
        """Numeric sections for this plan's slot in the ``repro.obs/v1`` doc."""
        summary = {
            "specs": float(self.specs),
            "crashed": float(self.crashed),
            "transactions": float(self.transactions),
            "failed_dies": float(len(self.failed_dies)),
            "checks_passed": float(sum(self.checks.values())),
            "checks_total": float(len(self.checks)),
            "ok": float(self.ok),
        }
        for name in CHAOS_CHECKS:
            summary[f"check.{name}"] = float(self.checks.get(name, False))
        return {"summary": summary, "faults": dict(self.fault_snapshot)}

    def row(self) -> list[object]:
        failed = ", ".join(str(d) for d in self.failed_dies) or "-"
        checks = " ".join(
            ("pass" if self.checks.get(name, False) else "FAIL")
            for name in CHAOS_CHECKS
        )
        return [
            plan_label(self.index),
            self.specs,
            int(self.injected_total),
            "yes" if self.crashed else "no",
            failed,
            checks,
            "ok" if self.ok else "FAIL",
        ]


def _capacity_sane(result: CrashHarnessResult) -> bool:
    """The DBA's capacity view must stay internally consistent."""
    assert result.source is not None
    store = result.source.store
    assert store is not None  # the crash harness runs on native flash
    report = store.capacity_report()
    regions: dict[str, dict[str, Any]] = report["regions"]  # type: ignore[assignment]
    failed: list[int] = report["failed_dies"]  # type: ignore[assignment]
    if bool(report["degraded"]) != bool(failed):
        return False
    if sorted(failed) != sorted(set(failed)):
        return False
    if report["capacity_pages"] != sum(
        r["capacity_pages"] for r in regions.values()
    ):
        return False
    for region in store.regions():
        per = regions[region.name]
        if any(die in region.engine.dies for die in per["failed_dies"]):
            return False
        if not 0 <= per["used_pages"] <= per["capacity_pages"]:
            return False
    return True


def _mapping_consistent(result: CrashHarnessResult) -> bool:
    assert result.source is not None
    store = result.source.store
    assert store is not None  # the crash harness runs on native flash
    try:
        store.check_consistency()
    except (AssertionError, BookkeepingError):
        return False
    return True


def run_chaos_plan(config: ChaosConfig, index: int) -> PlanVerdict:
    """Generate plan ``index``, run it end to end, check every invariant."""
    plan = config.generator().plan(index)
    result = run_tpcc_crash_harness(
        plan,
        num_transactions=config.num_transactions,
        terminals=config.terminals,
        seed=config.workload_seed,
    )
    snap = result.fault_snapshot
    checks = {
        "accounting": snap["injected.total"]
        == snap["recovered.total"] + snap["retired.total"],
        "wal_replay": result.consistency.ok,
        "capacity": _capacity_sane(result),
        "mapping": _mapping_consistent(result),
    }
    return PlanVerdict(
        index=index,
        specs=len(plan.specs),
        crashed=result.crashed,
        transactions=result.transactions_executed,
        failed_dies=tuple(result.failed_dies),
        checks=checks,
        fault_snapshot=dict(snap),
    )


def _control_fingerprint(config: ChaosConfig) -> tuple[Any, ...]:
    """Everything a fault-free run may not vary between repetitions."""
    result = run_tpcc_crash_harness(
        FaultPlan(),
        num_transactions=config.num_transactions,
        terminals=config.terminals,
        seed=config.workload_seed,
    )
    assert result.source is not None
    return (
        result.transactions_executed,
        result.wal_records_replayed,
        result.consistency.ok,
        tuple(sorted(result.fault_snapshot.items())),
        tuple(sorted(result.source.metrics_registry().snapshot().items())),
    )


def run_control(config: ChaosConfig) -> bool:
    """No-plan bit-identity control: two fault-free runs must agree exactly
    and inject nothing — the chaos machinery itself perturbs nothing."""
    first = _control_fingerprint(config)
    second = _control_fingerprint(config)
    injected = dict(first[3]).get("injected.total", 0.0)
    return first == second and injected == 0.0


@dataclass
class ChaosReport:
    """One chaos session's full outcome."""

    config: ChaosConfig
    verdicts: list[PlanVerdict]
    control_ok: bool

    @property
    def ok(self) -> bool:
        return self.control_ok and all(verdict.ok for verdict in self.verdicts)

    def metrics_doc(self) -> dict[str, Any]:
        """The ``repro.obs/v1`` document for this session."""
        from repro.obs.export import metrics_doc

        configs = {
            plan_label(verdict.index): verdict.metrics() for verdict in self.verdicts
        }
        configs["control"] = {
            "summary": {"bit_identical": float(self.control_ok), "runs": 2.0}
        }
        return metrics_doc(
            "chaos",
            configs,
            chaos={
                "seed": self.config.seed,
                "intensity": self.config.intensity,
                "plans": self.config.plans,
                "transactions": self.config.num_transactions,
                "ok": self.ok,
            },
        )

    def rows(self) -> list[list[object]]:
        return [verdict.row() for verdict in self.verdicts]


def run_chaos(config: ChaosConfig, shards: int = 1) -> ChaosReport:
    """Run the whole session: control first, then every generated plan.

    Each plan is one cell of :func:`repro.bench.sharding.run_cells`;
    ``shards > 1`` is soak mode, the plans running in spawn workers.
    """
    from repro.bench.sharding import ShardCell, run_cells

    control_ok = run_control(config)
    cells = [
        ShardCell(plan_label(index), run_chaos_plan, (config, index))
        for index in range(config.plans)
    ]
    return ChaosReport(
        config=config, verdicts=run_cells(cells, shards), control_ok=control_ok
    )
