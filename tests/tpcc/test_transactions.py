"""Tests for the five TPC-C transactions."""

import pytest

from repro.core import traditional_placement
from repro.db import Database
from repro.flash import instant_timing
from repro.tpcc import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TPCCRandom,
    TransactionExecutor,
    create_schema,
    tiny_scale,
)

from tests.db.conftest import page_touches
from tests.tpcc.conftest import tpcc_geometry


def executor(tpcc_db):
    db, scale = tpcc_db
    return db, scale, TransactionExecutor(db, scale, TPCCRandom(seed=99))


class TestNewOrder:
    def test_commits_and_advances_order_counter(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        before = {}
        pos = db.table("DISTRICT").schema.position("d_next_o_id")
        for __, row, ___ in db.table("DISTRICT").scan(0.0):
            before[(row[1], row[0])] = row[pos]
        result = ex.new_order_txn(1, 0.0)
        assert result.kind == NEW_ORDER
        if result.committed:
            after = {}
            for __, row, ___ in db.table("DISTRICT").scan(0.0):
                after[(row[1], row[0])] = row[pos]
            assert sum(after.values()) == sum(before.values()) + 1

    def test_creates_order_rows(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        orders_before = db.table("ORDER").row_count
        lines_before = db.table("ORDERLINE").row_count
        committed = 0
        for __ in range(20):
            if ex.new_order_txn(1, 0.0).committed:
                committed += 1
        assert db.table("ORDER").row_count == orders_before + committed
        assert db.table("ORDERLINE").row_count >= lines_before + committed * scale.min_order_lines

    def test_an_order_line_touches_its_stock_page_twice(self, tpcc_db):
        """Read the STOCK row, then write it (Shore-Kits' ``probe_forupdate``
        + ``update_tuple``): two touches of its heap page per order line."""
        db, __, ex = executor(tpcc_db)
        stock = db.table("STOCK").info.heap.space_id
        orderlines = db.table("ORDERLINE")
        results = []
        while not results or not results[-1].committed:
            before = orderlines.row_count
            touched = page_touches(lambda: results.append(ex.new_order_txn(1, 0.0)))
        lines = orderlines.row_count - before
        pages = [key for key in touched if key[0] == stock]
        assert lines > 0 and len(pages) == 2 * lines
        assert pages[0::2] == pages[1::2]  # each line: its read, then its write

    def test_one_percent_rollback_happens(self, tpcc_db):
        __, ___, ex = executor(tpcc_db)
        results = [ex.new_order_txn(1, 0.0) for __ in range(300)]
        aborted = [r for r in results if not r.committed]
        assert 0 < len(aborted) < 30

    def test_rollback_leaves_no_partial_writes(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        # find an aborted run and verify order counts stayed consistent
        for __ in range(400):
            orders_before = db.table("ORDER").row_count
            no_before = db.table("NEW_ORDER").row_count
            result = ex.new_order_txn(1, 0.0)
            if not result.committed:
                assert db.table("ORDER").row_count == orders_before
                assert db.table("NEW_ORDER").row_count == no_before
                return
        raise AssertionError("no rollback in 400 NewOrders (expected ~4)")

    def test_stock_is_updated(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        ytd_pos = db.table("STOCK").schema.position("s_ytd")
        total_before = sum(row[ytd_pos] for __, row, ___ in db.table("STOCK").scan(0.0))
        committed = sum(ex.new_order_txn(1, 0.0).committed for __ in range(10))
        total_after = sum(row[ytd_pos] for __, row, ___ in db.table("STOCK").scan(0.0))
        if committed:
            assert total_after > total_before


class TestPayment:
    def test_updates_ytd_and_history(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        w_pos = db.table("WAREHOUSE").schema.position("w_ytd")
        hist_before = db.table("HISTORY").row_count
        w_before = sum(row[w_pos] for __, row, ___ in db.table("WAREHOUSE").scan(0.0))
        result = ex.payment_txn(1, 0.0)
        assert result.kind == PAYMENT
        assert result.committed
        assert db.table("HISTORY").row_count == hist_before + 1
        w_after = sum(row[w_pos] for __, row, ___ in db.table("WAREHOUSE").scan(0.0))
        assert w_after > w_before

    def test_customer_balance_decreases(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        bal_pos = db.table("CUSTOMER").schema.position("c_balance")
        before = sum(row[bal_pos] for __, row, ___ in db.table("CUSTOMER").scan(0.0))
        for __ in range(5):
            ex.payment_txn(1, 0.0)
        after = sum(row[bal_pos] for __, row, ___ in db.table("CUSTOMER").scan(0.0))
        assert after < before


class TestOrderStatus:
    def test_read_only(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        counts_before = (db.table("ORDER").row_count, db.table("CUSTOMER").row_count)
        result = ex.order_status_txn(1, 0.0)
        assert result.kind == ORDER_STATUS
        assert result.committed
        assert (db.table("ORDER").row_count, db.table("CUSTOMER").row_count) == counts_before


class TestDelivery:
    def test_drains_new_orders(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        no_before = db.table("NEW_ORDER").row_count
        result = ex.delivery_txn(1, 0.0)
        assert result.kind == DELIVERY
        assert result.committed
        drained = no_before - db.table("NEW_ORDER").row_count
        assert drained == min(no_before, scale.districts)

    def test_sets_carrier_and_delivery_date(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        ex.delivery_txn(1, 100.0)
        carrier_pos = db.table("ORDER").schema.position("o_carrier_id")
        carriers = [row[carrier_pos] for __, row, ___ in db.table("ORDER").scan(0.0)]
        assert all(1 <= c <= 10 for c in carriers if c != 0) or any(c > 0 for c in carriers)

    def test_delivery_eventually_empties_district(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        for __ in range(scale.initial_orders_per_district + 2):
            ex.delivery_txn(1, 0.0)
        assert db.table("NEW_ORDER").row_count == 0
        # a further delivery is a no-op but still commits (spec 2.7.4.2)
        assert ex.delivery_txn(1, 0.0).committed


class TestStockLevel:
    def test_read_only_and_commits(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        stock_before = db.table("STOCK").row_count
        result = ex.stock_level_txn(1, 1, 0.0)
        assert result.kind == STOCK_LEVEL
        assert result.committed
        assert db.table("STOCK").row_count == stock_before

    def test_time_advances(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        result = ex.stock_level_txn(1, 1, 1000.0)
        assert result.end_us >= 1000.0
        assert result.start_us == 1000.0


class TestConsistencyAfterMixedLoad:
    def test_invariants_hold_after_many_transactions(self, tpcc_db):
        db, scale, ex = executor(tpcc_db)
        rng = TPCCRandom(seed=7)
        t = 0.0
        for i in range(120):
            kind = i % 5
            if kind == 0:
                t = ex.new_order_txn(1, t).end_us
            elif kind == 1:
                t = ex.payment_txn(1, t).end_us
            elif kind == 2:
                t = ex.order_status_txn(1, t).end_us
            elif kind == 3:
                t = ex.delivery_txn(1, t).end_us
            else:
                t = ex.stock_level_txn(1, 1, t).end_us
        # index invariants on the busiest indexes
        for name in ("C_IDX", "O_IDX", "OL_IDX", "NO_IDX", "S_IDX"):
            db.catalog.index(name).btree.check_invariants()
        # region mapping invariants
        db.checkpoint(t)
        db.store.check_consistency()
        # ORDER rows == initial + committed NewOrders is checked indirectly:
        # every ORDER row must be reachable through O_IDX
        o_idx = db.catalog.index("O_IDX").btree
        assert o_idx.entry_count == db.table("ORDER").row_count


class TestCustomerByName:
    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 4],
    )
    def test_takes_the_customer_at_position_ceil_half_n(self, n):
        """Spec 2.5.2.2 / 2.6.2.2: of the ``n`` customers with the last name,
        sorted by first name, the one at 1-based position ceil(n/2), i.e.
        index ``(n - 1) // 2``."""
        geometry = tpcc_geometry()
        db = Database.on_native_flash(
            geometry=geometry,
            placement=traditional_placement(geometry.dies),
            timing=instant_timing(),
            buffer_pages=64,
        )
        at = create_schema(db)
        firsts = [f"FIRST{i}" for i in range(n)]
        for c_id, first in enumerate(reversed(firsts), start=1):  # not in name order
            row = (c_id, 1, 1, first, "OE", "SAMENAME", "s", "c", "ST", "123411111", "0" * 16,
                   0, "GC", 50_000.0, 0.1, -10.0, 10.0, 1, 0, "data")
            __, at = db.table("CUSTOMER").insert(row, at)
        ex = TransactionExecutor(db, tiny_scale(), TPCCRandom(seed=0))
        __, row, ___ = ex._customer_by_name(1, 1, "SAMENAME", at)
        first = db.table("CUSTOMER").schema.position("c_first")
        assert row[first] == firsts[(n - 1) // 2]
