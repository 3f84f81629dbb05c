"""The five TPC-C transactions (spec clause 2, scaled inputs).

Each transaction is a method of :class:`TransactionExecutor`, takes the
caller's virtual time and returns a :class:`TxnResult` whose ``end_us`` is
the completion time after all I/O (buffer misses, index traffic, GC
stalls) has been charged.

One deliberate deviation from the spec's control flow: the 1% NewOrder
rollback (invalid item) is detected by validating all item ids *before*
the write phase, so no undo log is needed — the spec's rollback happens at
the last item lookup, after some writes.  The I/O difference is a handful
of buffered pages; transaction counting is unaffected (aborted NewOrders
count as executed, per spec 2.4.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.db.heap import RID
from repro.db.records import Row
from repro.tpcc.random_gen import TPCCRandom
from repro.tpcc.schema import ScaleConfig

#: Sentinel above any real key component (for open-ended range scans).
KEY_MAX = 2**62

NEW_ORDER = "NewOrder"
PAYMENT = "Payment"
ORDER_STATUS = "OrderStatus"
DELIVERY = "Delivery"
STOCK_LEVEL = "StockLevel"

ALL_KINDS = (NEW_ORDER, PAYMENT, ORDER_STATUS, DELIVERY, STOCK_LEVEL)


@dataclass(frozen=True)
class TxnResult:
    """Outcome of one transaction execution."""

    kind: str
    committed: bool
    start_us: float
    end_us: float

    @property
    def response_us(self) -> float:
        """Response time in virtual microseconds."""
        return self.end_us - self.start_us


class TransactionExecutor:
    """Executes TPC-C transactions against a loaded database."""

    def __init__(self, db: Database, scale: ScaleConfig, rng: TPCCRandom) -> None:
        self.db = db
        self.scale = scale
        self.rng = rng
        self.warehouse = db.table("WAREHOUSE")
        self.district = db.table("DISTRICT")
        self.customer = db.table("CUSTOMER")
        self.history = db.table("HISTORY")
        self.new_order = db.table("NEW_ORDER")
        self.order = db.table("ORDER")
        self.orderline = db.table("ORDERLINE")
        self.item = db.table("ITEM")
        self.stock = db.table("STOCK")
        # every column position a transaction indexes, resolved once: TPC-C
        # prefixes each table's column names, so one map serves them all
        self._pos = {
            column.name: position
            for table in (self.warehouse, self.district, self.customer, self.order,
                          self.orderline, self.item, self.stock)
            for position, column in enumerate(table.schema)
        }
        #: district id -> position of its ``s_dist_XX`` column (no district 0)
        self._s_dist = [-1] + [self._pos[f"s_dist_{d:02d}"] for d in range(1, scale.districts + 1)]

    # ------------------------------------------------------------------
    # Customer selection helpers
    # ------------------------------------------------------------------
    def _customer_by_id(
        self, w_id: int, d_id: int, c_id: int, at: float
    ) -> tuple[RID, Row, float]:
        rid, at = self.customer.lookup_rid("C_IDX", (w_id, d_id, c_id), at)
        if rid is None:
            raise LookupError(f"customer ({w_id},{d_id},{c_id}) missing")
        row, at = self.customer.read(rid, at)
        return rid, row, at

    def _customer_by_name(
        self, w_id: int, d_id: int, last: str, at: float
    ) -> tuple[RID | None, Row | None, float]:
        """Spec 2.5.2.2 / 2.6.2.2: of all matches sorted by first name, the
        one at 1-based position ceil(n/2), i.e. index ``(n - 1) // 2``."""
        index = self.customer.index("C_NAME_IDX")
        entries, at = index.btree.range_scan(
            (w_id, d_id, last, ""), (w_id, d_id, last, "\x7f" * 16), at
        )
        if not entries:
            return None, None, at
        rid = entries[(len(entries) - 1) // 2][1]
        row, at = self.customer.read(rid, at)
        return rid, row, at

    def _pick_customer(
        self, w_id: int, d_id: int, at: float
    ) -> tuple[RID, Row, float]:
        """60% by last name, 40% by NURand id (spec 2.5.1.2)."""
        if self.rng.uniform(1, 100) <= 60:
            last = self.rng.customer_last_name_run(self.scale.customers_per_district)
            rid, row, at = self._customer_by_name(w_id, d_id, last, at)
            if rid is not None:
                return rid, row, at
        c_id = self.rng.customer_id(self.scale.customers_per_district)
        return self._customer_by_id(w_id, d_id, c_id, at)

    # ------------------------------------------------------------------
    # NewOrder (spec 2.4)
    # ------------------------------------------------------------------
    def new_order_txn(self, w_id: int, at: float) -> TxnResult:
        """One NewOrder: ~10 lines of reads, inserts and stock updates."""
        start = at
        rng = self.rng
        d_id = rng.uniform(1, self.scale.districts)
        c_id = rng.customer_id(self.scale.customers_per_district)
        ol_cnt = rng.uniform(self.scale.min_order_lines, self.scale.max_order_lines)
        rollback = rng.uniform(1, 100) == 1

        lines = []
        for number in range(1, ol_cnt + 1):
            i_id = rng.item_id(self.scale.items)
            if rollback and number == ol_cnt:
                i_id = KEY_MAX  # unused item id -> forced rollback
            remote = self.scale.warehouses > 1 and rng.uniform(1, 100) == 1
            supply_w = (
                rng.uniform(1, self.scale.warehouses) if remote else w_id
            )
            lines.append((number, i_id, supply_w, rng.uniform(1, 10)))

        # read phase ----------------------------------------------------
        w_row, at = self.warehouse.lookup("W_IDX", (w_id,), at)
        w_tax = w_row[self._pos["w_tax"]]
        d_rid, at = self.district.lookup_rid("D_IDX", (w_id, d_id), at)
        d_row, at = self.district.read(d_rid, at)
        d_tax = d_row[self._pos["d_tax"]]
        o_id = d_row[self._pos["d_next_o_id"]]
        __, c_row, at = self._customer_by_id(w_id, d_id, c_id, at)
        c_discount = c_row[self._pos["c_discount"]]

        item_rows = []
        for __, i_id, ___, ____ in lines:
            row, at = self.item.lookup("I_IDX", (i_id,), at)
            if row is None:
                # 1% forced rollback: abort before any writes
                return TxnResult(NEW_ORDER, False, start, at)
            item_rows.append(row)

        # write phase ---------------------------------------------------
        d_rid, at = self.district.update_columns(d_rid, {"d_next_o_id": o_id + 1}, at)
        all_local = int(all(line[2] == w_id for line in lines))
        __, at = self.order.insert(
            (o_id, d_id, w_id, c_id, int(start), 0, ol_cnt, all_local), at
        )
        __, at = self.new_order.insert((o_id, d_id, w_id), at)

        price_pos = self._pos["i_price"]
        qty_pos = self._pos["s_quantity"]
        dist_pos = self._s_dist[d_id]
        for (number, i_id, supply_w, qty), item_row in zip(lines, item_rows):
            s_rid, at = self.stock.lookup_rid("S_IDX", (supply_w, i_id), at)
            s_row, at = self.stock.read(s_rid, at)
            quantity = s_row[qty_pos]
            new_quantity = quantity - qty if quantity >= qty + 10 else quantity - qty + 91
            changes = {
                "s_quantity": new_quantity,
                "s_ytd": s_row[self._pos["s_ytd"]] + qty,
                "s_order_cnt": s_row[self._pos["s_order_cnt"]] + 1,
            }
            if supply_w != w_id:
                changes["s_remote_cnt"] = s_row[self._pos["s_remote_cnt"]] + 1
            s_rid, at = self.stock.update_columns(s_rid, changes, at)
            amount = round(qty * item_row[price_pos] * (1 + w_tax + d_tax) * (1 - c_discount), 2)
            dist_info = s_row[dist_pos]
            __, at = self.orderline.insert(
                (o_id, d_id, w_id, number, i_id, supply_w, 0, qty, amount, dist_info), at
            )
        return TxnResult(NEW_ORDER, True, start, at)

    # ------------------------------------------------------------------
    # Payment (spec 2.5)
    # ------------------------------------------------------------------
    def payment_txn(self, w_id: int, at: float) -> TxnResult:
        """One Payment: warehouse/district YTD, customer balance, history."""
        start = at
        rng = self.rng
        d_id = rng.uniform(1, self.scale.districts)
        amount = rng.decimal(1.0, 5000.0)
        # 15% remote customers when multiple warehouses exist (spec 2.5.1.2)
        if self.scale.warehouses > 1 and rng.uniform(1, 100) <= 15:
            c_w_id = rng.uniform(1, self.scale.warehouses)
            c_d_id = rng.uniform(1, self.scale.districts)
        else:
            c_w_id, c_d_id = w_id, d_id

        w_rid, at = self.warehouse.lookup_rid("W_IDX", (w_id,), at)
        w_row, at = self.warehouse.read(w_rid, at)
        w_ytd = w_row[self._pos["w_ytd"]]
        w_rid, at = self.warehouse.update_columns(w_rid, {"w_ytd": w_ytd + amount}, at)

        d_rid, at = self.district.lookup_rid("D_IDX", (w_id, d_id), at)
        d_row, at = self.district.read(d_rid, at)
        d_ytd = d_row[self._pos["d_ytd"]]
        d_rid, at = self.district.update_columns(d_rid, {"d_ytd": d_ytd + amount}, at)

        c_rid, c_row, at = self._pick_customer(c_w_id, c_d_id, at)
        changes = {
            "c_balance": c_row[self._pos["c_balance"]] - amount,
            "c_ytd_payment": c_row[self._pos["c_ytd_payment"]] + amount,
            "c_payment_cnt": c_row[self._pos["c_payment_cnt"]] + 1,
        }
        if c_row[self._pos["c_credit"]] == "BC":
            info = f"{c_row[self._pos['c_id']]} {c_d_id} {c_w_id} {d_id} {w_id} {amount:.2f}|"
            changes["c_data"] = (info + c_row[self._pos["c_data"]])[:250]
        c_rid, at = self.customer.update_columns(c_rid, changes, at)

        __, at = self.history.insert(
            (
                c_row[self._pos["c_id"]],
                c_d_id,
                c_w_id,
                d_id,
                w_id,
                int(start),
                amount,
                "payment history  data",
            ),
            at,
        )
        return TxnResult(PAYMENT, True, start, at)

    # ------------------------------------------------------------------
    # OrderStatus (spec 2.6)
    # ------------------------------------------------------------------
    def order_status_txn(self, w_id: int, at: float) -> TxnResult:
        """One OrderStatus: read-only customer + last order + its lines."""
        start = at
        d_id = self.rng.uniform(1, self.scale.districts)
        __, c_row, at = self._pick_customer(w_id, d_id, at)
        c_id = c_row[self._pos["c_id"]]
        index = self.order.index("O_CUST_IDX")
        entries, at = index.btree.range_scan(
            (w_id, d_id, c_id, 0), (w_id, d_id, c_id, KEY_MAX), at
        )
        if entries:
            __, rid = entries[-1]  # most recent order
            o_row, at = self.order.read(rid, at)
            o_id = o_row[self._pos["o_id"]]
            ol_index = self.orderline.index("OL_IDX")
            line_entries, at = ol_index.btree.range_scan(
                (w_id, d_id, o_id, 0), (w_id, d_id, o_id, KEY_MAX), at
            )
            for __, line_rid in line_entries:
                __, at = self.orderline.read(line_rid, at)
        return TxnResult(ORDER_STATUS, True, start, at)

    # ------------------------------------------------------------------
    # Delivery (spec 2.7)
    # ------------------------------------------------------------------
    def delivery_txn(self, w_id: int, at: float) -> TxnResult:
        """One Delivery: drain the oldest open order of every district."""
        start = at
        carrier = self.rng.uniform(1, 10)
        no_index = self.new_order.index("NO_IDX")
        for d_id in range(1, self.scale.districts + 1):
            entries, at = no_index.btree.range_scan(
                (w_id, d_id, 0), (w_id, d_id, KEY_MAX), at, limit=1
            )
            if not entries:
                continue  # spec 2.7.4.2: skipped district
            (__, ___, o_id), no_rid = entries[0][0], entries[0][1]
            at = self.new_order.delete(no_rid, at)

            o_rid, at = self.order.lookup_rid("O_IDX", (w_id, d_id, o_id), at)
            o_row, at = self.order.read(o_rid, at)
            c_id = o_row[self._pos["o_c_id"]]
            o_rid, at = self.order.update_columns(o_rid, {"o_carrier_id": carrier}, at)

            ol_index = self.orderline.index("OL_IDX")
            line_entries, at = ol_index.btree.range_scan(
                (w_id, d_id, o_id, 0), (w_id, d_id, o_id, KEY_MAX), at
            )
            total = 0.0
            amount_pos = self._pos["ol_amount"]
            for __, line_rid in line_entries:
                line_row, at = self.orderline.read(line_rid, at)
                total += line_row[amount_pos]
                line_rid, at = self.orderline.update_columns(
                    line_rid, {"ol_delivery_d": int(start)}, at
                )
            c_rid, c_row, at = self._customer_by_id(w_id, d_id, c_id, at)
            c_rid, at = self.customer.update_columns(
                c_rid,
                {
                    "c_balance": c_row[self._pos["c_balance"]] + total,
                    "c_delivery_cnt": c_row[self._pos["c_delivery_cnt"]] + 1,
                },
                at,
            )
        return TxnResult(DELIVERY, True, start, at)

    # ------------------------------------------------------------------
    # StockLevel (spec 2.8)
    # ------------------------------------------------------------------
    def stock_level_txn(self, w_id: int, d_id: int, at: float) -> TxnResult:
        """One StockLevel: low-stock count over the last 20 orders' items."""
        start = at
        threshold = self.rng.uniform(10, 20)
        d_row, at = self.district.lookup("D_IDX", (w_id, d_id), at)
        next_o_id = d_row[self._pos["d_next_o_id"]]
        window = min(20, self.scale.initial_orders_per_district)
        ol_index = self.orderline.index("OL_IDX")
        entries, at = ol_index.btree.range_scan(
            (w_id, d_id, max(1, next_o_id - window), 0),
            (w_id, d_id, next_o_id - 1, KEY_MAX),
            at,
        )
        item_ids = set()
        i_id_pos = self._pos["ol_i_id"]
        for __, line_rid in entries:
            line_row, at = self.orderline.read(line_rid, at)
            item_ids.add(line_row[i_id_pos])
        low = 0
        qty_pos = self._pos["s_quantity"]
        for i_id in sorted(item_ids):
            s_row, at = self.stock.lookup("S_IDX", (w_id, i_id), at)
            if s_row is not None and s_row[qty_pos] < threshold:
                low += 1
        return TxnResult(STOCK_LEVEL, True, start, at)
