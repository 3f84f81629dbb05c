"""Tests for the TPC-C consistency conditions (spec clause 3.3)."""

import pytest

from repro.core import traditional_placement
from repro.db import Database
from repro.flash import TimingModel
from repro.tpcc import Driver, load_database, tiny_scale
from repro.tpcc.consistency import ConsistencyReport, check_consistency

from tests.tpcc.conftest import tpcc_geometry


class TestFreshLoad:
    def test_initial_population_is_consistent(self, tpcc_db):
        db, __ = tpcc_db
        report = check_consistency(db)
        report.raise_if_violated()
        assert report.checked > 0

    def test_report_accumulates_violations(self):
        report = ConsistencyReport()
        assert report.ok
        report.add("something broke")
        assert not report.ok
        with pytest.raises(AssertionError, match="something broke"):
            report.raise_if_violated()


class TestAfterWorkload:
    def test_consistency_holds_after_mixed_transactions(self, tpcc_db):
        db, scale = tpcc_db
        Driver(db, scale, terminals=4, seed=11).run(num_transactions=300)
        check_consistency(db).raise_if_violated()

    def test_consistency_holds_on_figure2_placement(self, tpcc_db_figure2):
        db, scale = tpcc_db_figure2
        Driver(db, scale, terminals=4, seed=12).run(num_transactions=300)
        check_consistency(db).raise_if_violated()

    def test_consistency_detects_corruption(self, tpcc_db):
        """Sanity: the checker actually notices a broken counter."""
        db, scale = tpcc_db
        district = db.table("DISTRICT")
        rid, __, ___ = next(iter(district.scan(0.0)))
        district.update_columns(rid, {"d_next_o_id": 999_999}, 0.0)
        report = check_consistency(db)
        assert not report.ok
        assert any("C1" in v for v in report.violations)


class TestAfterALongRun:
    def test_default_reads_at_the_database_clock(self):
        # slow flash takes a tiny cell past the 10 s a device timeline
        # remembers within 300 transactions; reads issued at time 0 (the
        # old default) are refused there, reads at the clock are not
        geometry = tpcc_geometry()
        slow = TimingModel(
            read_us=20_000.0, program_us=200_000.0, erase_us=500_000.0, bus_us_per_page=1_000.0
        )
        db = Database.on_native_flash(
            geometry=geometry,
            placement=traditional_placement(geometry.dies),
            timing=slow,
            buffer_pages=64,
        )
        scale = tiny_scale()
        load_database(db, scale, seed=0)
        Driver(db, scale, terminals=2, seed=3).run(num_transactions=300)
        assert db.now > 20e6
        report = check_consistency(db)
        report.raise_if_violated()
        assert report.checked > 0
