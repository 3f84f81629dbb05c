"""Contract properties every policy must satisfy.

Two invariants back every policy:

* *membership* — ``choose_victim`` returns an element of its candidate
  set, and ``None`` exactly when the set is empty; no policy may invent
  a block.
* *determinism* — two instances resolved from the same name replay the
  same pick sequence over the same candidate stream, whatever order the
  candidates come in, so simulation runs stay reproducible.
"""

import pytest

from repro.policies import available_gc_policies, available_wl_policies, resolve_gc_policy, resolve_wl_policy

from tests.policies.util import block, candidate_pool

GC_NAMES = available_gc_policies()
WL_NAMES = available_wl_policies()


@pytest.mark.parametrize("name", GC_NAMES)
class TestGCMembership:
    def test_choice_is_a_member_of_the_candidate_set(self, name):
        policy = resolve_gc_policy(name)
        for round_seed in range(20):
            pool = candidate_pool(round_seed)
            pick = policy.choose_victim(pool, now_us=100_000.0)
            assert any(pick is info for info in pool)

    def test_empty_candidates_return_none(self, name):
        policy = resolve_gc_policy(name)
        assert policy.choose_victim([], now_us=0.0) is None

    def test_single_candidate_is_always_chosen(self, name):
        policy = resolve_gc_policy(name)
        only = block(0, 0, valid=2)
        assert policy.choose_victim([only], now_us=50.0) is only


@pytest.mark.parametrize("name", GC_NAMES)
class TestGCDeterminism:
    def test_same_seed_instances_replay_identically(self, name):
        def run(policy):
            picks = []
            for round_seed in range(40):
                pool = candidate_pool(round_seed)
                pick = policy.choose_victim(pool, now_us=1_000.0 * round_seed)
                picks.append((pick.die, pick.block))
            return picks

        a = run(resolve_gc_policy(name))
        b = run(resolve_gc_policy(name))
        assert a == b

    def test_candidate_iteration_order_does_not_matter(self, name):
        policy_fwd = resolve_gc_policy(name)
        policy_rev = resolve_gc_policy(name)
        for round_seed in range(20):
            pool = candidate_pool(round_seed)
            fwd = policy_fwd.choose_victim(list(pool), now_us=77_000.0)
            rev = policy_rev.choose_victim(list(reversed(pool)), now_us=77_000.0)
            assert (fwd.die, fwd.block) == (rev.die, rev.block)


@pytest.mark.parametrize("name", WL_NAMES)
class TestWLContract:
    def test_move_members_and_empty_none(self, name):
        policy = resolve_wl_policy(name)
        frees = [block(0, i) for i in range(3)]
        fulls = [block(1, i, valid=4, last_write=float(i)) for i in range(3)]
        move = policy.choose_move(frees, fulls, lambda b: b.block)
        assert move is not None
        worn, cold = move
        assert any(worn is b for b in frees)
        assert any(cold is b for b in fulls)
        assert policy.choose_move([], fulls, lambda b: 0) is None
        assert policy.choose_move(frees, [], lambda b: 0) is None
