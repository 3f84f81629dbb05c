"""The seeded chaos harness: generator shape, invariants, determinism, soak.

``FaultPlanGenerator`` must emit plans that are reproducible (same seed →
same plans, across instances and processes) and closable *by
construction* — every generated plan, run through the crash harness,
must close the FaultStats accounting identity and pass the recovery
checks.  ``run_chaos`` composes that with the no-plan bit-identity
control and (in soak mode) spawn shard workers.
"""

from types import SimpleNamespace

import pytest

from repro.faults import (
    CHAOS_CHECKS,
    INTENSITY_TIERS,
    ChaosConfig,
    FaultPlanGenerator,
    plan_label,
    run_chaos,
    run_chaos_plan,
    run_control,
)
from repro.faults.chaos import _mapping_consistent
from repro.faults.plan import MAX_READ_RETRIES
from repro.mapping import BookkeepingError
from repro.obs.export import dump_json, validate_metrics_doc


class TestFaultPlanGenerator:
    def test_same_seed_same_plans_across_instances(self):
        a = FaultPlanGenerator(7, "medium", op_budget=500)
        b = FaultPlanGenerator(7, "medium", op_budget=500)
        assert a.plans(10) == b.plans(10)

    def test_different_seeds_diverge(self):
        a = FaultPlanGenerator(7, "medium", op_budget=500)
        b = FaultPlanGenerator(8, "medium", op_budget=500)
        assert a.plans(10) != b.plans(10)

    def test_plan_index_is_random_access(self):
        gen = FaultPlanGenerator(3, "light")
        assert gen.plan(5) == gen.plans(6)[5]

    @pytest.mark.parametrize("intensity", sorted(INTENSITY_TIERS))
    def test_generated_plans_respect_tier_constraints(self, intensity):
        tier = INTENSITY_TIERS[intensity]
        gen = FaultPlanGenerator(11, intensity, op_budget=800)
        for plan in gen.plans(40):
            kinds = [spec.kind for spec in plan.specs]
            # one pending wear-out slot, one-crash model, bounded die kills
            assert kinds.count("wearout") <= 1
            assert kinds.count("power_cut") <= 1
            die_victims = [s.die for s in plan.specs if s.kind == "die_fail"]
            assert len(die_victims) <= tier.max_die_fails
            assert len(die_victims) == len(set(die_victims))
            read_retries = 0
            for spec in plan.specs:
                if spec.kind in ("die_fail", "power_cut"):
                    # must be one-shot schedule points, never probabilistic
                    assert spec.at_op is not None
                if spec.kind == "read_transient":
                    assert spec.probability == 0.0
                    read_retries += spec.retries
            # stacked read firings must stay within the engine's bounded retry
            assert read_retries <= MAX_READ_RETRIES

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultPlanGenerator(1, "apocalyptic")
        with pytest.raises(ValueError):
            FaultPlanGenerator(1, "light", op_budget=10)
        with pytest.raises(ValueError):
            FaultPlanGenerator(1, "light", dies=2)


class TestChaosConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosConfig(plans=0)
        with pytest.raises(ValueError):
            ChaosConfig(intensity="nope")

    def test_budget_derived_from_transactions(self):
        assert ChaosConfig(num_transactions=120).budget() == 960
        assert ChaosConfig(num_transactions=10).budget() == 200
        assert ChaosConfig(op_budget=500).budget() == 500


class TestChaosSession:
    def test_small_session_passes_all_invariants(self):
        config = ChaosConfig(plans=4, seed=7, num_transactions=60)
        report = run_chaos(config)
        assert report.control_ok
        assert report.ok
        assert len(report.verdicts) == 4
        for verdict in report.verdicts:
            assert verdict.ok, (plan_label(verdict.index), verdict.checks)
            assert set(verdict.checks) == set(CHAOS_CHECKS)

    def test_acceptance_scale_session_is_deterministic(self):
        """The ISSUE's acceptance shape: 25 plans, seed 7, every invariant
        holds, and a re-run emits a byte-identical document."""
        config = ChaosConfig(plans=25, seed=7, num_transactions=60)
        first = run_chaos(config)
        assert first.ok, [v.checks for v in first.verdicts if not v.ok]
        second = run_chaos(config)
        assert dump_json(first.metrics_doc()) == dump_json(second.metrics_doc())

    def test_medium_intensity_exercises_crash_and_die_paths(self):
        config = ChaosConfig(
            plans=8, seed=7, intensity="medium", num_transactions=60
        )
        report = run_chaos(config)
        assert report.ok
        # the whole point of chaos: the fault space actually gets explored
        assert any(v.crashed for v in report.verdicts)
        assert any(v.injected_total > 0 for v in report.verdicts)

    def test_metrics_doc_validates_and_carries_session_stanza(self):
        config = ChaosConfig(plans=2, seed=3, num_transactions=60)
        report = run_chaos(config)
        doc = report.metrics_doc()
        validate_metrics_doc(doc)
        assert doc["command"] == "chaos"
        assert doc["chaos"]["seed"] == 3
        assert doc["configs"]["control"]["summary"]["bit_identical"] == 1.0
        assert plan_label(0) in doc["configs"]

    def test_power_cut_inside_a_program_fault_salvage_closes_accounting(self):
        """Pinned regression, seed 204 plan 0: the power cut lands two device
        ops after a program failure — between the salvage relocations and
        the block's retirement — so settlement has to land the retirement."""
        verdict = run_chaos_plan(ChaosConfig(plans=1, seed=204), 0)
        assert verdict.crashed
        assert verdict.fault_snapshot["injected.program_fail"] == 2.0
        assert verdict.fault_snapshot["retired.grown_bad_block"] == 2.0
        assert verdict.ok, verdict.checks

    def test_power_cut_inside_a_die_rebuild_closes_accounting(self):
        """Pinned regression, medium seed 2 plan 0: die 1 fails and its
        region rebuilds around it; a transient read of the rebuild retries
        until the power cut lands on the retry that would have succeeded.
        Recovery maps die 1's live pages again, the settle finishes the
        rebuild, and the aborted retry is read again."""
        verdict = run_chaos_plan(ChaosConfig(seed=2, intensity="medium"), 0)
        assert verdict.crashed and verdict.failed_dies == (1,)
        assert verdict.fault_snapshot["retired.die"] == 1.0
        assert verdict.fault_snapshot["recovered.read_retry"] == 1.0
        assert verdict.ok, verdict.checks

    @pytest.mark.parametrize("error", [AssertionError, BookkeepingError])
    def test_a_mapping_violation_is_a_failed_check_not_a_traceback(self, error):
        class BrokenStore:
            def check_consistency(self):
                raise error("die 2: free blocks in candidate set")

        result = SimpleNamespace(source=SimpleNamespace(store=BrokenStore()))
        assert _mapping_consistent(result) is False

    def test_a_second_die_failure_during_a_rebuild_is_a_failed_verdict(self):
        """Heavy plan 7 at seed 7 kills die 2 while its region rebuilds
        around die 5: outside the single-failure model, so the plan fails
        with the error's text instead of escaping the session."""
        verdict = run_chaos_plan(ChaosConfig(seed=7, intensity="heavy"), 7)
        assert not verdict.ok
        assert verdict.error == "die 2 has failed; writes and erases rejected (program_page)"
        assert verdict.checks == {}
        assert verdict.row()[-2:] == ["- - - -", f"FAIL: {verdict.error}"]
        assert verdict.metrics()["summary"]["ok"] == 0.0

    def test_control_alone(self):
        assert run_control(ChaosConfig(num_transactions=40)) is True

    def test_single_plan_runner_matches_session(self):
        config = ChaosConfig(plans=2, seed=9, num_transactions=60)
        report = run_chaos(config)
        assert run_chaos_plan(config, 1) == report.verdicts[1]


class TestSoakMode:
    def test_sharded_session_equals_sequential(self):
        """Soak smoke: chaos plans inside spawn shard workers produce the
        exact document the sequential session emits."""
        config = ChaosConfig(plans=4, seed=7, num_transactions=60)
        sequential = run_chaos(config)
        sharded = run_chaos(config, shards=2)
        assert sharded.ok
        assert dump_json(sharded.metrics_doc()) == dump_json(sequential.metrics_doc())
