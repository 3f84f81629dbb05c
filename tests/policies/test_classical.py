"""Behavioural tests for the classical GC and WL policies."""

from repro.policies import (
    ColdestFirstWL,
    OldestDataWL,
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
