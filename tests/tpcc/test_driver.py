"""Tests for the closed-loop driver and metrics."""

import pytest

from repro.flash import TimingModel
from repro.tpcc import ALL_KINDS, Driver, NEW_ORDER, PAYMENT, WorkloadMetrics
from repro.tpcc.transactions import TxnResult

from tests.tpcc.conftest import loaded_db, tpcc_geometry


class TestMetrics:
    def test_record_and_tps(self):
        m = WorkloadMetrics(start_us=0.0)
        m.record(TxnResult(NEW_ORDER, True, 0.0, 500_000.0))
        m.record(TxnResult(PAYMENT, True, 500_000.0, 1_000_000.0))
        assert m.transactions == 2
        assert m.tps == pytest.approx(2.0)
        assert m.response_ms(NEW_ORDER) == pytest.approx(500.0)

    def test_aborts_counted_as_transactions(self):
        m = WorkloadMetrics(start_us=0.0)
        m.record(TxnResult(NEW_ORDER, False, 0.0, 100.0))
        assert m.aborted == 1
        assert m.transactions == 1

    def test_summary_has_all_kinds(self):
        m = WorkloadMetrics()
        summary = m.summary()
        for kind in ALL_KINDS:
            assert f"{kind}_ms" in summary
            assert f"{kind}_count" in summary


class TestDriver:
    def test_runs_requested_transaction_count(self, tpcc_db):
        db, scale = tpcc_db
        driver = Driver(db, scale, terminals=4, seed=1)
        metrics = driver.run(num_transactions=60)
        assert metrics.transactions == 60

    def test_mix_roughly_matches_spec(self, tpcc_db):
        db, scale = tpcc_db
        driver = Driver(db, scale, terminals=4, seed=2)
        metrics = driver.run(num_transactions=400)
        counts = {kind: metrics.per_kind[kind].count for kind in ALL_KINDS}
        assert counts[NEW_ORDER] == pytest.approx(180, abs=60)
        assert counts[PAYMENT] == pytest.approx(172, abs=60)

    def test_duration_stop_condition(self):
        db, scale = loaded_db()
        # real latencies so virtual time advances
        db2, scale2 = loaded_db()
        driver = Driver(db2, scale2, terminals=2, seed=3, think_time_us=1000.0)
        metrics = driver.run(duration_us=200_000.0)
        assert metrics.transactions > 0
        assert metrics.makespan_us <= 400_000.0  # bounded overshoot

    def test_deterministic_given_seed(self):
        db_a, scale = loaded_db()
        db_b, __ = loaded_db()
        m_a = Driver(db_a, scale, terminals=4, seed=5).run(num_transactions=80)
        m_b = Driver(db_b, scale, terminals=4, seed=5).run(num_transactions=80)
        assert m_a.summary() == m_b.summary()

    def test_terminals_spread_over_warehouses(self, tpcc_db):
        db, scale = tpcc_db
        driver = Driver(db, scale, terminals=6, seed=6)
        w_ids = {t.w_id for t in driver.terminals}
        assert w_ids == set(range(1, scale.warehouses + 1))

    def test_invalid_configs_rejected(self, tpcc_db):
        db, scale = tpcc_db
        with pytest.raises(ValueError):
            Driver(db, scale, terminals=0)
        driver = Driver(db, scale, terminals=1)
        with pytest.raises(ValueError):
            driver.run()


def _real_timing_db():
    """Tiny population behind a 48-page pool with real latencies: terminal
    clocks are driven by flash I/O, so the heap order is worth checking."""
    from repro.core import traditional_placement
    from repro.db import Database
    from repro.tpcc import load_database, tiny_scale

    geometry = tpcc_geometry()
    db = Database.on_native_flash(
        geometry=geometry,
        placement=traditional_placement(geometry.dies),
        timing=TimingModel(),
        buffer_pages=48,
    )
    scale = tiny_scale()
    load_database(db, scale, seed=0)
    return db, scale


class TestDriverWithRealTiming:
    def test_virtual_time_advances_with_io(self):
        db, scale = _real_timing_db()
        driver = Driver(db, scale, terminals=4, seed=7)
        metrics = driver.run(num_transactions=50)
        assert metrics.makespan_us > 0
        assert metrics.tps > 0
        assert metrics.response_ms(NEW_ORDER) >= 0


def _observe(driver):
    """Everything a continued run must share with an uninterrupted one."""
    metrics, db = driver.metrics, driver.db
    return (
        metrics.summary(),
        metrics.per_kind,
        db.metrics_registry().snapshot(),
        db.object_stats(),
        db.now,
        [(t.terminal_id, t.clock_us) for t in driver.terminals],
    )


class TestContinuation:
    """``run(k)`` then ``run(n)`` is one ``run(n)``: budgets are totals."""

    PAUSES = (1, 7, 500)
    TOTAL = 520

    @pytest.mark.parametrize("terminals", (1, 4, 8))
    def test_paused_run_equals_uninterrupted_run(self, terminals):
        db, scale = _real_timing_db()
        uninterrupted = Driver(db, scale, terminals=terminals, seed=9)
        uninterrupted.run(num_transactions=self.TOTAL)

        db, scale = _real_timing_db()
        driver = Driver(db, scale, terminals=terminals, seed=9)
        for pause in self.PAUSES:
            assert driver.run(num_transactions=pause).transactions == pause
            # what a profiling hand-off reads at the pause point perturbs nothing
            db.object_stats()
            db.metrics_registry().snapshot()
            db.store.check_consistency()
        assert driver.run(num_transactions=self.TOTAL) is driver.metrics
        assert _observe(driver) == _observe(uninterrupted)

    def test_budget_already_met_executes_nothing(self, tpcc_db):
        db, scale = tpcc_db
        driver = Driver(db, scale, terminals=4, seed=1)
        driver.run(num_transactions=30)
        before = _observe(driver)
        assert driver.run(num_transactions=20).transactions == 30
        assert _observe(driver) == before

    def test_duration_budget_is_a_total_too(self):
        def run(*budgets):
            db, scale = _real_timing_db()
            driver = Driver(db, scale, terminals=3, seed=4, think_time_us=500.0)
            for budget in budgets:
                driver.run(duration_us=budget)
            return _observe(driver)

        assert run(15_000.0, 60_000.0) == run(60_000.0)

    def test_continuation_may_repeat_but_not_move_the_window_start(self, tpcc_db):
        db, scale = tpcc_db
        driver = Driver(db, scale, terminals=2, seed=3)
        start = db.now
        driver.run(num_transactions=5, start_us=start)
        driver.run(num_transactions=10, start_us=start)
        with pytest.raises(ValueError, match="is open since"):
            driver.run(num_transactions=15, start_us=start + 1.0)
        assert driver.metrics.transactions == 10

    def test_crashed_driver_does_not_continue(self, tpcc_db):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        db, scale = tpcc_db
        db.device.attach_fault_injector(
            FaultInjector(FaultPlan(specs=(FaultSpec(kind="power_cut", at_op=40),)))
        )
        driver = Driver(db, scale, terminals=4, seed=8)
        executed = driver.run(num_transactions=2000).transactions
        assert driver.crashed and executed < 2000
        with pytest.raises(RuntimeError, match="lost power"):
            driver.run(num_transactions=2000)
        assert driver.metrics.transactions == executed
