"""Closed-loop multi-terminal TPC-C driver on the virtual clock.

Each terminal is bound to a warehouse (round-robin) and keeps its own
virtual clock.  The driver always advances the terminal whose clock is
furthest behind (a min-heap), so flash-resource reservations are issued in
approximately global time order — concurrency without threads.  Multiple
terminals are what let a multi-region placement exploit die parallelism:
while one terminal's I/O occupies dies of one region, another terminal
proceeds on different dies.

The transaction mix is the spec's 45/43/4/4/4 (NewOrder / Payment /
OrderStatus / Delivery / StockLevel).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.db.database import Database
from repro.flash.errors import PowerCutError
from repro.tpcc.metrics import WorkloadMetrics
from repro.tpcc.random_gen import TPCCRandom
from repro.tpcc.schema import ScaleConfig
from repro.tpcc.transactions import (
    DELIVERY,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TransactionExecutor,
    TxnResult,
)

#: Spec 5.2.3 minimum mix, expressed as cumulative percentage bands.
MIX_BANDS = (
    (45, NEW_ORDER),
    (88, PAYMENT),
    (92, ORDER_STATUS),
    (96, DELIVERY),
    (100, STOCK_LEVEL),
)


@dataclass
class Terminal:
    """One emulated terminal: home warehouse/district and its clock."""

    terminal_id: int
    w_id: int
    d_id: int
    clock_us: float = 0.0

    def __lt__(self, other: "Terminal") -> bool:
        return (self.clock_us, self.terminal_id) < (other.clock_us, other.terminal_id)


class Driver:
    """Runs a transaction stream against a loaded database.

    Args:
        db: loaded database (see :func:`repro.tpcc.loader.load_database`).
        scale: the population the database was loaded with.
        terminals: number of concurrent terminals.
        seed: RNG seed for the transaction stream.
        think_time_us: fixed think time added after each transaction.
    """

    def __init__(
        self,
        db: Database,
        scale: ScaleConfig,
        terminals: int = 8,
        seed: int = 42,
        think_time_us: float = 0.0,
    ) -> None:
        if terminals < 1:
            raise ValueError("need at least one terminal")
        self.db = db
        self.scale = scale
        self.rng = TPCCRandom(seed)
        self.executor = TransactionExecutor(db, scale, self.rng)
        self.think_time_us = think_time_us
        self.terminals = [
            Terminal(
                terminal_id=i,
                w_id=(i % scale.warehouses) + 1,
                d_id=(i % scale.districts) + 1,
            )
            for i in range(terminals)
        ]
        #: metrics of the window the first :meth:`run` opens
        self.metrics = WorkloadMetrics()
        #: terminals by clock; empty until the window is open
        self._heap: list[Terminal] = []
        #: set when an injected power cut ended the run early
        self.crashed = False
        #: device operation number of the power cut, if any
        self.crash_op: int | None = None

    def _pick_kind(self) -> str:
        draw = self.rng.uniform(1, 100)
        for band, kind in MIX_BANDS:
            if draw <= band:
                return kind
        return STOCK_LEVEL

    def _execute(self, terminal: Terminal, kind: str) -> TxnResult:
        at = terminal.clock_us
        if kind == NEW_ORDER:
            return self.executor.new_order_txn(terminal.w_id, at)
        if kind == PAYMENT:
            return self.executor.payment_txn(terminal.w_id, at)
        if kind == ORDER_STATUS:
            return self.executor.order_status_txn(terminal.w_id, at)
        if kind == DELIVERY:
            return self.executor.delivery_txn(terminal.w_id, at)
        return self.executor.stock_level_txn(terminal.w_id, terminal.d_id, at)

    def run(
        self,
        num_transactions: int | None = None,
        duration_us: float | None = None,
        start_us: float | None = None,
    ) -> WorkloadMetrics:
        """Run until ``num_transactions`` executed or ``duration_us`` elapses.

        At least one stop condition must be given; with both, whichever
        hits first ends the run.  Returns the collected metrics.

        A later call continues the same stream — terminal clocks, RNG and
        metrics carry on — so both budgets are totals since the window
        opened, not increments: ``run(k)`` then ``run(n)`` leaves exactly
        the state and metrics of one ``run(n)``.  ``start_us`` opens the
        window; a continuation may only repeat it.
        """
        if num_transactions is None and duration_us is None:
            raise ValueError("give num_transactions and/or duration_us")
        metrics, heap = self.metrics, self._heap
        if not heap:  # the first call opens the window
            start = self.db.now if start_us is None else start_us
            metrics.start_us = metrics.end_us = start
            for terminal in self.terminals:
                terminal.clock_us = start
            heap.extend(self.terminals)
            heapq.heapify(heap)
        elif self.crashed:
            raise RuntimeError(
                f"driver lost power at device operation {self.crash_op}: "
                "recover the database and build a new Driver"
            )
        elif start_us is not None and start_us != metrics.start_us:
            raise ValueError(
                f"window is open since {metrics.start_us} us; cannot continue it from {start_us} us"
            )
        deadline = metrics.start_us + duration_us if duration_us is not None else None
        executed = metrics.transactions
        while num_transactions is None or executed < num_transactions:
            terminal = heap[0]
            if deadline is not None and terminal.clock_us >= deadline:
                break  # the furthest-behind terminal is past the deadline: all are
            try:
                result = self._execute(terminal, self._pick_kind())
                end = result.end_us
                if self.db.wal is not None:
                    # commit boundary marker: transactional replay applies a
                    # transaction's records only when this reached flash
                    __, end = self.db.wal.commit(end)
            except PowerCutError as cut:
                # lights out: volatile state (buffer pool, WAL page buffer,
                # host mapping) is gone; the caller runs crash recovery
                self.crashed = True
                self.crash_op = cut.op_number
                break
            metrics.record(result)
            executed += 1
            terminal.clock_us = end + self.think_time_us
            heapq.heapreplace(heap, terminal)
        return metrics
