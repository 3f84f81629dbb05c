"""Behavioural tests for the classical GC policies, their reference scans
and the coldest-first WL ranking."""

import pytest

from repro.policies import (
    CostBenefitGC,
    GreedyGC,
    WLPolicy,
    resolve_gc_policy,
    select_victim_cost_benefit,
    select_victim_greedy,
)

from tests.policies.util import books_of


def greedy_picks(books):
    """The policy's pick and the reference scan's, over the die's candidates."""
    return (
        GreedyGC().choose_victim(books, now_us=0.0),
        select_victim_greedy(books, books.gc_candidates_scan()),
    )


def cost_benefit_picks(books, now_us):
    return (
        CostBenefitGC().choose_victim(books, now_us),
        select_victim_cost_benefit(books, books.gc_candidates_scan(), now_us),
    )


class TestSharedSelectors:
    """The reference scans rank as the policy objects do."""

    def test_greedy_picks_most_invalid(self):
        books = books_of([(3, 0.0), (1, 0.0)])
        assert greedy_picks(books) == (1, 1)

    def test_cost_benefit_prefers_old_cold(self):
        # same validity, different age: the older block wins
        books = books_of([(2, 90.0), (2, 10.0)])
        assert cost_benefit_picks(books, now_us=100.0) == (1, 1)


class TestGreedy:
    def test_picks_most_invalid(self):
        # the emptiest block wins wherever it sits in the die
        books = books_of([(1, 0.0), (3, 0.0), (2, 0.0)])
        assert greedy_picks(books) == (0, 0)

    def test_empty_candidates(self):
        # a fully valid block and a free one: nothing to reclaim
        books = books_of([(4, 0.0), None])
        assert greedy_picks(books) == (None, None)
        assert select_victim_greedy(books, []) is None

    def test_tie_breaks_by_address(self):
        books = books_of([(3, 0.0), (1, 0.0), (1, 0.0)])
        assert greedy_picks(books) == (1, 1)


class TestCostBenefit:
    def test_fully_invalid_block_always_wins(self):
        books = books_of([(1, 0.0), (0, 100.0)])
        assert cost_benefit_picks(books, now_us=200.0) == (1, 1)

    def test_prefers_old_cold_blocks(self):
        # same validity, different age: the older block wins ahead of a younger one
        books = books_of([(2, 10.0), (2, 90.0)])
        assert cost_benefit_picks(books, now_us=100.0) == (0, 0)

    def test_empty_candidates(self):
        books = books_of([(4, 0.0), None])
        assert cost_benefit_picks(books, now_us=0.0) == (None, None)
        assert select_victim_cost_benefit(books, [], now_us=0.0) is None

    def test_tie_breaks_by_address(self):
        books = books_of([(4, 0.0), (2, 10.0), (2, 10.0)])
        assert cost_benefit_picks(books, now_us=100.0) == (1, 1)
        # all unaged: every score is 0, the lowest candidate still wins
        assert cost_benefit_picks(books, now_us=0.0) == (1, 1)


class TestWLPolicies:
    def test_coldest_first_pairs_worn_free_with_least_worn_full(self):
        erases = {0: 10, 1: 50, 2: 7, 3: 1}
        assert WLPolicy().choose_move([0, 1], [2, 3], erases.__getitem__) == (1, 3)

    def test_ties_go_to_the_earlier_entry(self):
        # the free list in pool order, the full list in block order
        assert WLPolicy().choose_move([3, 2, 0], [1, 4], lambda b: 5) == (3, 1)

    def test_empty_inputs_return_none(self):
        assert WLPolicy().choose_move([], [1], lambda b: 0) is None
        assert WLPolicy().choose_move([0], [], lambda b: 0) is None


class TestDispatch:
    """A policy resolved by name picks the die's one candidate."""

    def test_dispatch_greedy(self):
        books = books_of([(4, 0.0), (3, 0.0)])
        assert resolve_gc_policy("greedy").choose_victim(books, now_us=0.0) == 1

    def test_dispatch_cost_benefit(self):
        books = books_of([(4, 0.0), (3, 0.0)])
        assert resolve_gc_policy("cost_benefit").choose_victim(books, now_us=0.0) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            resolve_gc_policy("lru")
