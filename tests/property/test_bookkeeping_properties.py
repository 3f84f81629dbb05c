"""Property tests: incremental bookkeeping always equals a fresh recompute.

The bookkeeping in :mod:`repro.mapping.blockinfo` maintains two pieces of
derived state incrementally — per-block ``valid_count`` (beside the
validity bitmask) and the die's GC candidate column (a FULL block's valid
count, ``pages_per_block`` for every other block).  Whatever random
sequence of frontier takes, writes, invalidations, seals, erases,
retirements and full resets happens, each must agree with the
from-scratch reference (popcount of the bitmask, full scan over the
blocks), and every question the engine asks of the column — greedy
victim, ``has_reclaimable``, the candidate list, the cost-benefit victim —
must get exactly the answer a scan would.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.flash import FlashDevice, FlashGeometry, instant_timing
from repro.mapping import (
    BlockState,
    DieBookkeeping,
    FlashSpaceEngine,
    ManagementStats,
)
from repro.policies import (
    CostBenefitGC,
    select_victim_cost_benefit,
    select_victim_greedy,
)

PAGES_PER_BLOCK = 4
BLOCKS_PER_DIE = 6

# one op drives the die through its bookkeeping API; arguments are drawn
# modulo whatever is currently legal, so every sequence is executable.  At
# least 40 ops, so most sequences fill blocks and then retire, erase or
# reset them (short ones rarely get past the first take and write)
ops = st.lists(
    st.tuples(
        st.sampled_from(["take", "write", "invalidate", "seal", "erase", "bad", "reset_all"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=40,
    max_size=160,
)


def reference_valid_count(info) -> int:
    return info.valid_mask.bit_count()


def apply_op(die: DieBookkeeping, open_blocks: list, kind: str, arg: int) -> None:
    if kind == "take":
        if die.free_count > 0:
            open_blocks.append(die.take_free_block())
    elif kind == "write" and open_blocks:
        info = open_blocks[arg % len(open_blocks)]
        if not info.is_full:
            die.note_write(info.block, info.written, now_us=float(arg))
        if info.is_full:
            open_blocks.remove(info)
    elif kind == "invalidate":
        targets = [b for b in die.blocks if b.valid_count > 0]
        if targets:
            info = targets[arg % len(targets)]
            die.invalidate(info.block, info.valid_pages()[arg % info.valid_count])
    elif kind == "seal" and open_blocks:
        info = open_blocks[arg % len(open_blocks)]
        die.seal(info.block)
        if info.is_full:
            open_blocks.remove(info)
    elif kind == "erase":
        fulls = [b for b in die.blocks if b.state is BlockState.FULL]
        if fulls:
            die.return_erased_block(fulls[arg % len(fulls)].block)
    elif kind == "bad":
        # retire FREE or FULL blocks (as the engine does after a failing
        # erase); keep at least half the die alive so sequences stay long
        candidates = [
            b for b in die.blocks if b.state in (BlockState.FREE, BlockState.FULL)
        ]
        alive = sum(1 for b in die.blocks if b.state is not BlockState.BAD)
        if candidates and alive > BLOCKS_PER_DIE // 2:
            die.mark_bad(candidates[arg % len(candidates)].block)
    elif kind == "reset_all":
        # crash recovery forgets everything but the bad blocks
        die.reset_all()
        open_blocks.clear()


@settings(max_examples=120, deadline=None)
@given(ops)
def test_incremental_state_matches_recompute(operations):
    die = DieBookkeeping(die=0, blocks_per_die=BLOCKS_PER_DIE, pages_per_block=PAGES_PER_BLOCK)
    open_blocks: list = []
    for kind, arg in operations:
        apply_op(die, open_blocks, kind, arg)
        # after *every* op: counters, candidate column and candidate set all agree
        # with a from-scratch recomputation
        die.check_invariants()
        for info in die.blocks:
            assert info.valid_count == reference_valid_count(info)
        assert die.has_reclaimable == bool(die.gc_candidates_scan())
        assert [b.block for b in die.gc_candidates()] == [
            b.block for b in die.gc_candidates_scan()
        ]


@settings(max_examples=120, deadline=None)
@given(ops)
def test_candidate_column_queries_equal_scanning_queries(operations):
    die = DieBookkeeping(die=0, blocks_per_die=BLOCKS_PER_DIE, pages_per_block=PAGES_PER_BLOCK)
    open_blocks: list = []
    for t, (kind, arg) in enumerate(operations):
        apply_op(die, open_blocks, kind, arg)
        scan = die.gc_candidates_scan()
        assert die.greedy_victim() is select_victim_greedy(scan)
        assert die.has_reclaimable == bool(scan)
        assert [b.block for b in die.iter_candidates()] == [b.block for b in scan]
        now = float(t)
        assert CostBenefitGC().choose_victim_from_books(die, now) is (
            select_victim_cost_benefit(scan, now)
        )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=11), min_size=40, max_size=250),
    st.sampled_from(["greedy", "cost_benefit"]),
)
def test_engine_keeps_bookkeeping_invariants_under_gc(keys, policy):
    geometry = FlashGeometry(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=8,
        page_size=64,
        oob_size=8,
        max_pe_cycles=100_000,
    )
    device = FlashDevice(geometry, timing=instant_timing())
    books = {
        d: DieBookkeeping(d, geometry.blocks_per_die, geometry.pages_per_block)
        for d in range(2)
    }
    engine = FlashSpaceEngine(
        device, [0, 1], books, ManagementStats(), gc_policy=policy
    )
    at = 0.0
    for i, key in enumerate(keys * 3):
        at = engine.write(key, bytes([i % 256]), at, group=key % 2 or None)
    # check_consistency also runs DieBookkeeping.check_invariants per die
    engine.check_consistency()
