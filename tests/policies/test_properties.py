"""Contract properties every policy must satisfy.

Two invariants back every policy:

* *membership* — ``choose_victim`` returns a block of the die's candidate
  set, and ``None`` exactly when the set is empty; no policy may invent
  a block.
* *determinism* — two instances resolved from the same name replay the
  same pick sequence over the same dies, so simulation runs stay
  reproducible; the reference scans the policies are held to answer the
  same whatever order their blocks come in.
"""

import pytest

from repro.policies import (
    WLPolicy,
    available_gc_policies,
    resolve_gc_policy,
    select_victim_cost_benefit,
    select_victim_greedy,
)

from tests.policies.util import books_of, candidate_pool

GC_NAMES = available_gc_policies()

#: each policy's reference scan over an explicit list of blocks
REFERENCE = {
    "greedy": lambda books, blocks, now_us: select_victim_greedy(books, blocks),
    "cost_benefit": select_victim_cost_benefit,
}


@pytest.mark.parametrize("name", GC_NAMES)
class TestGCMembership:
    def test_choice_is_a_member_of_the_candidate_set(self, name):
        policy = resolve_gc_policy(name)
        for round_seed in range(20):
            books = candidate_pool(round_seed)
            pick = policy.choose_victim(books, now_us=100_000.0)
            candidates = books.gc_candidates_scan()
            assert pick in candidates if candidates else pick is None

    def test_empty_candidates_return_none(self, name):
        policy = resolve_gc_policy(name)
        assert policy.choose_victim(books_of([None, (4, 0.0)]), now_us=0.0) is None

    def test_single_candidate_is_always_chosen(self, name):
        policy = resolve_gc_policy(name)
        books = books_of([(4, 0.0), None, (2, 0.0)])
        assert policy.choose_victim(books, now_us=50.0) == 2


@pytest.mark.parametrize("name", GC_NAMES)
class TestGCDeterminism:
    def test_same_seed_instances_replay_identically(self, name):
        def run(policy):
            return [
                policy.choose_victim(candidate_pool(round_seed), now_us=1_000.0 * round_seed)
                for round_seed in range(40)
            ]

        assert run(resolve_gc_policy(name)) == run(resolve_gc_policy(name))

    def test_candidate_iteration_order_does_not_matter(self, name):
        # the reference scan ranks on (score, block), so it is an oracle for
        # the policy whatever order it is fed; the policy matches it
        scan = REFERENCE[name]
        policy = resolve_gc_policy(name)
        for round_seed in range(20):
            books = candidate_pool(round_seed)
            blocks = books.gc_candidates_scan()
            fwd = scan(books, blocks, 77_000.0)
            assert scan(books, reversed(blocks), 77_000.0) == fwd
            assert policy.choose_victim(books, 77_000.0) == fwd


class TestWLContract:
    def test_move_members_and_empty_none(self):
        frees, fulls = [0, 1, 2], [3, 4, 5]
        move = WLPolicy().choose_move(frees, fulls, lambda b: b % 3)
        assert move == (2, 3)
        assert WLPolicy().choose_move([], fulls, lambda b: 0) is None
        assert WLPolicy().choose_move(frees, [], lambda b: 0) is None
