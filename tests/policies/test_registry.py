"""Registry resolution: a policy is configured by its name."""

import pytest

from repro.policies import GCPolicy, GreedyGC, available_gc_policies, resolve_gc_policy


class TestCatalogue:
    def test_gc_catalogue_pinned(self):
        assert available_gc_policies() == ["cost_benefit", "greedy"]


class TestResolve:
    def test_string_alias_resolves_to_policy_object(self):
        policy = resolve_gc_policy("greedy")
        assert isinstance(policy, GreedyGC)
        assert policy.name == "greedy"

    def test_each_resolution_is_a_fresh_instance(self):
        # two engines configured with the same name never share an instance
        assert resolve_gc_policy("cost_benefit") is not resolve_gc_policy("cost_benefit")

    def test_unknown_gc_name_raises_with_catalogue(self):
        with pytest.raises(ValueError, match=r"bogus.*\['cost_benefit', 'greedy'\]"):
            resolve_gc_policy("bogus")

    @pytest.mark.parametrize("name", ["cost_benefit", "greedy"])
    def test_every_registered_gc_name_resolves(self, name):
        policy = resolve_gc_policy(name)
        assert isinstance(policy, GCPolicy)
        assert policy.name == name
