"""Property tests: the FaultStats double-entry identity closes for
arbitrary generated fault plans.

``injected.total == recovered.total + retired.total`` is the chaos
harness's core invariant: every injected fault must reach a recovery or
retirement outcome, nothing silently dropped.  Two angles:

* plans from the :class:`~repro.faults.chaos.FaultPlanGenerator` through
  the full TPC-C crash harness (crash, OOB rebuild, WAL replay and die /
  wear-out settlement included);
* hand-assembled plans fired *during GC/WL relocation traffic* on a bare
  mapping engine — strict plane-copyback rules force relocation onto the
  read+program fallback, so read and program faults land inside GC itself.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.faults import FaultInjector, FaultPlan, FaultPlanGenerator, FaultSpec
from repro.faults.harness import run_tpcc_crash_harness
from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import DieBookkeeping, FlashSpaceEngine, ManagementStats


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**20),
    index=st.integers(0, 50),
    intensity=st.sampled_from(["light", "medium", "heavy"]),
)
def test_generated_plans_close_the_accounting_identity(seed, index, intensity):
    """Any plan the chaos generator emits closes the identity end to end."""
    plan = FaultPlanGenerator(seed, intensity, op_budget=400).plan(index)
    result = run_tpcc_crash_harness(
        plan, num_transactions=40, terminals=2, seed=21
    )
    snap = result.fault_snapshot
    assert snap["injected.total"] == snap["recovered.total"] + snap["retired.total"], snap
    assert result.consistency.ok


# -- relocation-path coverage ---------------------------------------------

# enough blocks per die that the worst generated plan (every program
# fault retiring a grown-bad block, plus one wear-out) cannot run a die
# out of free blocks: up to 3 specs x count 3 + 1 = 10 retirements
# against 24 blocks/die
_GEOMETRY = FlashGeometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=12,
    pages_per_block=8,
    page_size=64,
    oob_size=16,
    max_pe_cycles=1_000_000,
)

# only self-recovering kinds: die_fail/power_cut settle via harness-level
# recovery, which a bare engine loop does not perform
_relocation_specs = st.lists(
    st.one_of(
        st.builds(
            FaultSpec,
            kind=st.just("read_transient"),
            every=st.integers(8, 40),
            count=st.integers(1, 6),
            retries=st.integers(1, 4),
        ),
        st.builds(
            FaultSpec,
            kind=st.just("program_fail"),
            every=st.integers(16, 60),
            count=st.integers(1, 3),
        ),
    ),
    min_size=1,
    max_size=3,
)

# at most one wear-out per plan: the injector carries a single pending slot
_wearout = st.one_of(
    st.none(),
    st.builds(
        FaultSpec,
        kind=st.just("wearout"),
        every=st.integers(2, 12),
        count=st.just(1),
    ),
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(specs=_relocation_specs, wearout=_wearout, plan_seed=st.integers(0, 2**16))
def test_identity_closes_for_faults_during_gc_relocation(specs, wearout, plan_seed):
    """Faults firing inside GC relocation still reach a recovery outcome.

    With strict plane copyback and two planes per die, GC relocation of a
    page whose frontier sits on the other plane falls back to read +
    program — so read and program faults fire during relocation itself,
    and wear-outs land on GC's own erases.
    """
    if wearout is not None:
        specs = list(specs) + [wearout]
    plan = FaultPlan(specs=tuple(specs), seed=plan_seed)
    device = FlashDevice(
        _GEOMETRY, timing=instant_timing(), strict_plane_copyback=True
    )
    dies = [0, 1]
    books = {
        d: DieBookkeeping(d, _GEOMETRY.blocks_per_die, _GEOMETRY.pages_per_block)
        for d in dies
    }
    engine = FlashSpaceEngine(device, dies, books, ManagementStats())
    # preload some cold data, then overwrite a hot subset to drive GC
    at = 0.0
    for key in range(20):
        at = engine.write(key, b"cold", at)
    injector = device.attach_fault_injector(FaultInjector(plan))
    for i in range(1000):
        at = engine.write(i % 8, b"hot", at)
    injector.quiesce()
    injector.settle_pending_wearout(device)

    stats = injector.stats
    assert stats.injected_total == stats.recovered_total + stats.retired_total, (
        stats.snapshot()
    )
    assert engine.stats.gc_erases > 0, "workload never triggered GC"
    engine.check_consistency()
    # surviving data is intact: every hot key reads back its last version
    for key in range(8):
        data, at = engine.read(key, at)
        assert data == b"hot"
