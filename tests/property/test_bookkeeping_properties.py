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


def apply_op(die: DieBookkeeping, open_blocks: list, kind: str, arg: int) -> None:
    blocks = range(die.blocks_per_die)
    if kind == "take":
        if die.free_count > 0:
            open_blocks.append(die.take_free_block())
    elif kind == "write" and open_blocks:
        block = open_blocks[arg % len(open_blocks)]
        if die.written[block] < PAGES_PER_BLOCK:
            die.note_write(block, die.written[block], now_us=float(arg))
        if die.written[block] >= PAGES_PER_BLOCK:
            open_blocks.remove(block)
    elif kind == "invalidate":
        targets = [b for b in blocks if die.valid_count[b] > 0]
        if targets:
            block = targets[arg % len(targets)]
            die.invalidate(block, die.valid_pages(block)[arg % die.valid_count[block]])
    elif kind == "seal" and open_blocks:
        block = open_blocks[arg % len(open_blocks)]
        die.seal(block)
        if die.written[block] >= PAGES_PER_BLOCK:
            open_blocks.remove(block)
    elif kind == "erase":
        fulls = [b for b in blocks if die.state[b] == BlockState.FULL]
        if fulls:
            die.return_erased_block(fulls[arg % len(fulls)])
    elif kind == "bad":
        # retire FREE or FULL blocks (as the engine does after a failing
        # erase); keep at least half the die alive so sequences stay long
        candidates = [
            b for b in blocks if die.state[b] in (BlockState.FREE, BlockState.FULL)
        ]
        alive = sum(1 for b in blocks if die.state[b] != BlockState.BAD)
        if candidates and alive > BLOCKS_PER_DIE // 2:
            die.mark_bad(candidates[arg % len(candidates)])
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
        for block in range(BLOCKS_PER_DIE):
            assert die.valid_count[block] == die.valid_mask[block].bit_count()
        assert die.has_reclaimable == bool(die.gc_candidates_scan())
        assert list(die.iter_candidates()) == die.gc_candidates_scan()


@settings(max_examples=120, deadline=None)
@given(ops)
def test_candidate_column_queries_equal_scanning_queries(operations):
    die = DieBookkeeping(die=0, blocks_per_die=BLOCKS_PER_DIE, pages_per_block=PAGES_PER_BLOCK)
    open_blocks: list = []
    for t, (kind, arg) in enumerate(operations):
        apply_op(die, open_blocks, kind, arg)
        scan = die.gc_candidates_scan()
        assert die.greedy_victim() == select_victim_greedy(die, scan)
        assert die.has_reclaimable == bool(scan)
        assert list(die.iter_candidates()) == scan
        now = float(t)
        assert CostBenefitGC().choose_victim(die, now) == (
            select_victim_cost_benefit(die, scan, now)
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
