"""Registry resolution: a policy is configured by its name."""

import pytest

from repro.policies import (
    GCPolicy,
    GreedyGC,
    WLPolicy,
    available_gc_policies,
    available_wl_policies,
    resolve_gc_policy,
    resolve_wl_policy,
)


class TestCatalogue:
    def test_gc_catalogue_pinned(self):
        assert available_gc_policies() == ["cost_benefit", "greedy"]

    def test_wl_catalogue_pinned(self):
        assert available_wl_policies() == ["coldest_first", "oldest_data"]


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

    def test_unknown_wl_name_raises(self):
        with pytest.raises(ValueError, match="nope"):
            resolve_wl_policy("nope")

    def test_wl_resolution(self):
        policy = resolve_wl_policy("coldest_first")
        assert isinstance(policy, WLPolicy)
        assert policy.name == "coldest_first"

    @pytest.mark.parametrize("name", ["cost_benefit", "greedy"])
    def test_every_registered_gc_name_resolves(self, name):
        policy = resolve_gc_policy(name)
        assert isinstance(policy, GCPolicy)
        assert policy.name == name
