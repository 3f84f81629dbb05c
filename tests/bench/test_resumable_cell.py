"""The resumable TPC-C cell and the profile -> traditional-cell hand-off.

``derive_method_placement`` profiles the workload under traditional
placement; the Figure 3 traditional cell is that very run with a larger
budget, so ``run_tpcc_experiment`` continues the paused profiling cell
instead of building, loading and replaying it.  Pinned here: the continued
result is a fresh cell's, field by field; only a config that *is* the
profiled run takes the cell; and the one slot never keeps a stack alive
past its use.
"""

import gc
import weakref
from dataclasses import fields, replace

import pytest

from repro.bench import (
    TPCCExperimentConfig,
    derive_method_placement,
    experiment,
    fig3_cells,
    profile_objects,
    run_cells,
    run_tpcc_experiment,
)
from repro.core import figure2_placement, traditional_placement
from repro.faults import FaultPlan, FaultSpec
from repro.tpcc import tiny_scale
from repro.tpcc.consistency import check_consistency

from tests.tpcc.conftest import tpcc_geometry

PROFILED = 40
BUDGET = 70

BASE = TPCCExperimentConfig(
    name="base",
    geometry=tpcc_geometry(),  # 16 dies
    scale=tiny_scale(),
    num_transactions=BUDGET,
    terminals=4,
    buffer_pages=24,
    flusher_interval=32,
)
TRADITIONAL = replace(BASE, name="traditional", placement=traditional_placement(16))


@pytest.fixture(autouse=True)
def empty_slot(monkeypatch):
    """Each test starts with, and leaves behind, an empty hand-off slot."""
    monkeypatch.setattr(experiment, "_parked", None)


def derive(config=BASE):
    return derive_method_placement(config, BUDGET, profile_transactions=PROFILED)


def fresh(config):
    """What ``config`` yields with nothing parked (the pre-hand-off behaviour)."""
    parked, experiment._parked = experiment._parked, None
    try:
        return run_tpcc_experiment(config)
    finally:
        experiment._parked = parked


def assert_same_result(got, expected):
    for f in fields(expected):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


class TestFig3TwoCallFlow:
    def test_continued_traditional_cell_is_a_fresh_cell_field_by_field(self):
        placement = derive()
        cell = experiment._parked
        assert cell.driver.metrics.transactions == PROFILED
        regions = replace(BASE, name="regions", placement=placement)
        traditional, derived = run_cells(fig3_cells(TRADITIONAL, regions))

        assert experiment._parked is None  # taken by the traditional cell only
        assert cell.driver.metrics.transactions == BUDGET
        assert traditional.config is TRADITIONAL
        assert_same_result(traditional, fresh(TRADITIONAL))
        assert_same_result(derived, fresh(regions))
        # the checks a separately built traditional stack used to get
        check_consistency(cell.db).raise_if_violated()
        cell.db.store.check_consistency()

    def test_placement_does_not_depend_on_what_was_parked_before(self):
        first = derive()
        assert derive() == first

    def test_budget_equal_to_the_profile_continues_without_executing(self):
        derive()
        cell = experiment._parked
        config = replace(TRADITIONAL, num_transactions=PROFILED)
        result = run_tpcc_experiment(config)
        assert experiment._parked is None and cell.config is config
        assert_same_result(result, fresh(config))


class TestEligibility:
    """Anything that is not the profiled run builds fresh and leaves the slot."""

    @pytest.fixture(scope="class")
    def parked(self):
        """One profiling cell for every refusal: a refusal must not touch it."""
        derive()
        cell, experiment._parked = experiment._parked, None
        return cell

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(
                dict(fault_plan=FaultPlan(specs=(FaultSpec(kind="read_transient", every=50),))),
                id="fault_plan",
            ),
            pytest.param(dict(duration_us=20_000.0), id="duration_and_count"),
            pytest.param(dict(duration_us=20_000.0, num_transactions=None), id="duration_only"),
            pytest.param(dict(num_transactions=PROFILED - 1), id="fewer_than_profiled"),
            pytest.param(dict(seed=43), id="seed"),
            pytest.param(dict(terminals=5), id="terminals"),
            pytest.param(dict(buffer_pages=32), id="buffer_pages"),
            pytest.param(dict(placement=figure2_placement(16)), id="placement"),
            pytest.param(
                dict(placement=traditional_placement(16, gc_policy="cost_benefit")),
                id="gc_policy",
            ),
            pytest.param(dict(placement=None, overprovision=0.2), id="ftl"),
            pytest.param(dict(device_seed=1), id="device_seed"),
        ],
    )
    def test_other_run_builds_fresh(self, change, parked, monkeypatch):
        monkeypatch.setattr(experiment, "_parked", parked)
        config = replace(TRADITIONAL, **change)
        result = run_tpcc_experiment(config)
        assert experiment._parked is parked
        assert parked.driver.metrics.transactions == PROFILED
        assert_same_result(result, fresh(config))

    def test_profile_never_inherits_a_fault_plan_or_a_duration(self):
        plan = FaultPlan(specs=(FaultSpec(kind="power_cut", at_op=5),))
        derive(replace(BASE, fault_plan=plan, duration_us=10.0))
        profiled = experiment._parked.config
        assert profiled.fault_plan is None and profiled.duration_us is None
        assert experiment._parked.driver.metrics.transactions == PROFILED
        # ... so the fault-free cell of that experiment is still the same run
        assert run_tpcc_experiment(TRADITIONAL).workload["transactions"] == BUDGET
        assert experiment._parked is None


class TestSlotHygiene:
    def test_superseded_and_claimed_stacks_are_collectable(self):
        derive()
        first = weakref.ref(experiment._parked.db)
        derive()
        second = weakref.ref(experiment._parked.db)
        gc.collect()
        assert first() is None and second() is not None

        run_tpcc_experiment(TRADITIONAL)
        gc.collect()
        assert second() is None

    def test_direct_profile_callers_park_nothing(self):
        config = replace(TRADITIONAL, num_transactions=PROFILED)
        stats, sizes_at_load = profile_objects(config)
        assert experiment._parked is None
        assert {s.name for s in stats} == set(sizes_at_load)
        # and it is the profile the derivation sees
        derive()
        assert experiment._parked.db.object_stats() == stats
