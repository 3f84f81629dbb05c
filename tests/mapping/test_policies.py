"""Unit tests for GC victim-selection policies."""

import pytest

from repro.policies import (
    resolve_gc_policy,
    select_victim_cost_benefit,
    select_victim_greedy,
)
from tests.policies.util import block


class TestGreedy:
    def test_picks_most_invalid(self):
        a = block(0, 0, valid=3)
        b = block(0, 1, valid=1)
        assert select_victim_greedy([a, b]) is b

    def test_empty_candidates(self):
        assert select_victim_greedy([]) is None

    def test_tie_breaks_by_address(self):
        a = block(1, 5, valid=1)
        b = block(0, 7, valid=1)
        assert select_victim_greedy([a, b]) is b


class TestCostBenefit:
    def test_fully_invalid_block_always_wins(self):
        a = block(0, 0, valid=0, last_write=100.0)
        b = block(0, 1, valid=1, last_write=0.0)
        assert select_victim_cost_benefit([a, b], now_us=200.0) is a

    def test_prefers_old_cold_blocks(self):
        # same validity, different age: older block wins
        young = block(0, 0, valid=2, last_write=90.0)
        old = block(0, 1, valid=2, last_write=10.0)
        assert select_victim_cost_benefit([young, old], now_us=100.0) is old

    def test_empty_candidates(self):
        assert select_victim_cost_benefit([], now_us=0.0) is None


class TestDispatch:
    def test_dispatch_greedy(self):
        b = block(0, 0, valid=1)
        assert resolve_gc_policy("greedy").choose_victim([b], now_us=0.0) is b

    def test_dispatch_cost_benefit(self):
        b = block(0, 0, valid=1)
        assert resolve_gc_policy("cost_benefit").choose_victim([b], now_us=0.0) is b

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            resolve_gc_policy("lru")
