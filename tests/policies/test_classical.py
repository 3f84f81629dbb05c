"""Behavioural tests for the classical GC and WL policies."""

from repro.policies import (
    AgeAwareGC,
    ColdestFirstWL,
    DChoicesGC,
    OldestDataWL,
    WindowedGreedyGC,
    select_victim_cost_benefit,
    select_victim_greedy,
)

from tests.policies.util import block


class TestSharedSelectors:
    """The free functions back the policy objects — same loop bodies,
    same answers."""

    def test_greedy_picks_most_invalid(self):
        a = block(0, 0, valid=3)
        b = block(0, 1, valid=1)
        assert select_victim_greedy([a, b]) is b

    def test_cost_benefit_prefers_old_cold(self):
        young = block(0, 0, valid=2, last_write=90.0)
        old = block(0, 1, valid=2, last_write=10.0)
        assert select_victim_cost_benefit([young, old], now_us=100.0) is old


class TestWindowedGreedy:
    def test_greedy_within_the_oldest_window(self):
        # the emptiest block overall is NOT in the W oldest — windowed
        # greedy must ignore it and pick the emptiest of the window
        newest_empty = block(0, 0, valid=0, last_write=900.0)
        old_a = block(0, 1, valid=3, last_write=10.0)
        old_b = block(0, 2, valid=1, last_write=20.0)
        policy = WindowedGreedyGC(window=2)
        assert policy.choose_victim([newest_empty, old_a, old_b], now_us=1000.0) is old_b

    def test_degenerates_to_greedy_with_large_window(self):
        a = block(0, 0, valid=3, last_write=5.0)
        b = block(0, 1, valid=0, last_write=7.0)
        policy = WindowedGreedyGC(window=64)
        assert policy.choose_victim([a, b], now_us=100.0) is b


class TestDChoices:
    def test_picks_emptiest_of_sample(self):
        # with d >= pool size the sample is the pool: plain greedy
        a = block(0, 0, valid=3)
        b = block(0, 1, valid=0)
        policy = DChoicesGC(seed=0, d=8)
        assert policy.choose_victim([a, b], now_us=0.0) is b

    def test_sample_is_seed_deterministic(self):
        pool_a = [block(0, i, pages=8, valid=i % 8) for i in range(20)]
        pool_b = [block(0, i, pages=8, valid=i % 8) for i in range(20)]
        pick_a = DChoicesGC(seed=42, d=3).choose_victim(pool_a, now_us=0.0)
        pick_b = DChoicesGC(seed=42, d=3).choose_victim(pool_b, now_us=0.0)
        assert (pick_a.die, pick_a.block) == (pick_b.die, pick_b.block)


class TestAgeAware:
    def test_age_breaks_ties_between_equally_invalid_blocks(self):
        young = block(0, 0, valid=2, last_write=95.0)
        old = block(0, 1, valid=2, last_write=5.0)
        assert AgeAwareGC().choose_victim([young, old], now_us=100.0) is old

    def test_invalidity_still_dominates(self):
        old_full = block(0, 0, valid=4, last_write=0.0)  # nothing to reclaim
        fresh_empty = block(0, 1, valid=0, last_write=99.0)
        assert AgeAwareGC().choose_victim([old_full, fresh_empty], now_us=100.0) is fresh_empty


class TestWLPolicies:
    def test_coldest_first_pairs_worn_free_with_least_worn_full(self):
        frees = [block(0, 0), block(0, 1)]
        fulls = [block(0, 2), block(0, 3)]
        erases = {0: 10, 1: 50, 2: 7, 3: 1}
        move = ColdestFirstWL().choose_move(frees, fulls, lambda b: erases[b.block])
        assert move is not None
        worn, cold = move
        assert worn.block == 1 and cold.block == 3

    def test_oldest_data_picks_stalest_full_block(self):
        frees = [block(0, 0), block(0, 1)]
        fulls = [block(0, 2, last_write=500.0), block(0, 3, last_write=20.0)]
        erases = {0: 10, 1: 50, 2: 1, 3: 40}
        move = OldestDataWL().choose_move(frees, fulls, lambda b: erases[b.block])
        assert move is not None
        worn, cold = move
        assert worn.block == 1  # still the most-erased free block
        assert cold.block == 3  # stalest data, even though heavily erased

    def test_empty_inputs_return_none(self):
        assert ColdestFirstWL().choose_move([], [block(0, 1)], lambda b: 0) is None
        assert OldestDataWL().choose_move([block(0, 0)], [], lambda b: 0) is None
