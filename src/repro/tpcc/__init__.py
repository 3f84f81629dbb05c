"""TPC-C workload: schema, loader, the five transactions, driver, metrics.

Scaled-down but structurally faithful implementation of the benchmark the
paper evaluates with (Section 3): all nine tables, the ten indexes of
Figure 2, NURand input skew, the 45/43/4/4/4 mix and per-type response
times, run closed-loop over the virtual clock.
"""

from repro.tpcc.consistency import ConsistencyReport, check_consistency
from repro.tpcc.driver import MIX_BANDS, Driver, Terminal
from repro.tpcc.loader import load_database
from repro.tpcc.metrics import US_PER_SECOND, WorkloadMetrics
from repro.tpcc.random_gen import LAST_NAME_SYLLABLES, TPCCRandom
from repro.tpcc.schema import (
    INDEX_DEFS,
    TABLE_SCHEMAS,
    ScaleConfig,
    create_schema,
    tiny_scale,
)
from repro.tpcc.transactions import (
    ALL_KINDS,
    DELIVERY,
    KEY_MAX,
    NEW_ORDER,
    ORDER_STATUS,
    PAYMENT,
    STOCK_LEVEL,
    TransactionExecutor,
    TxnResult,
)

__all__ = [
    "ALL_KINDS",
    "ConsistencyReport",
    "check_consistency",
    "DELIVERY",
    "Driver",
    "INDEX_DEFS",
    "KEY_MAX",
    "LAST_NAME_SYLLABLES",
    "MIX_BANDS",
    "NEW_ORDER",
    "ORDER_STATUS",
    "PAYMENT",
    "STOCK_LEVEL",
    "ScaleConfig",
    "TABLE_SCHEMAS",
    "TPCCRandom",
    "Terminal",
    "TransactionExecutor",
    "TxnResult",
    "US_PER_SECOND",
    "WorkloadMetrics",
    "create_schema",
    "load_database",
    "tiny_scale",
]
