"""TPC-C schema: the nine tables and ten indexes of the paper's Figure 2.

Object names match :mod:`repro.core.placement` exactly, so creating the
schema against a database configured with :func:`figure2_placement` routes
every table and index to the paper's region automatically.

:class:`ScaleConfig` controls the population.  The defaults are scaled far
below the spec (the spec's 100k items / 3k customers per district would
take hours in a pure-Python simulator) while preserving the *relative*
sizes and skews that drive the paper's placement: ORDERLINE largest and
append-heavy, STOCK large with hot random updates, ITEM read-only,
WAREHOUSE/DISTRICT tiny and scorching hot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.db.records import Schema, char_col, float_col, int_col, varchar_col


@dataclass(frozen=True)
class ScaleConfig:
    """Population sizes (per TPC-C scaling rules, scaled down).

    Attributes mirror the spec's cardinalities: per warehouse there are
    ``districts`` districts, each with ``customers_per_district`` customers
    and as many initial orders; ``items`` is global and each warehouse
    stocks every item.
    """

    warehouses: int = 2
    districts: int = 10
    customers_per_district: int = 60
    items: int = 400
    initial_orders_per_district: int = 60
    max_order_lines: int = 15
    min_order_lines: int = 5

    def __post_init__(self) -> None:
        if min(
            self.warehouses,
            self.districts,
            self.customers_per_district,
            self.items,
            self.initial_orders_per_district,
        ) < 1:
            raise ValueError("all scale parameters must be >= 1")
        if not 1 <= self.min_order_lines <= self.max_order_lines:
            raise ValueError("order line bounds invalid")

    @property
    def customers(self) -> int:
        """Total customers."""
        return self.warehouses * self.districts * self.customers_per_district

    @property
    def stock_rows(self) -> int:
        """Total stock rows (every warehouse stocks every item)."""
        return self.warehouses * self.items


def tiny_scale() -> ScaleConfig:
    """Minimal population for unit tests."""
    return ScaleConfig(
        warehouses=1,
        districts=2,
        customers_per_district=8,
        items=40,
        initial_orders_per_district=8,
    )


#: (table name, schema) — column shapes follow the spec with trimmed text
#: fields (c_data, i_data, s_data) to keep scaled-down rows proportionate.
TABLE_SCHEMAS: dict[str, Schema] = {
    "WAREHOUSE": Schema(
        [
            int_col("w_id"),
            char_col("w_name", 10),
            char_col("w_street_1", 20),
            char_col("w_city", 20),
            char_col("w_state", 2),
            char_col("w_zip", 9),
            float_col("w_tax"),
            float_col("w_ytd"),
        ]
    ),
    "DISTRICT": Schema(
        [
            int_col("d_id"),
            int_col("d_w_id"),
            char_col("d_name", 10),
            char_col("d_street_1", 20),
            char_col("d_city", 20),
            char_col("d_state", 2),
            char_col("d_zip", 9),
            float_col("d_tax"),
            float_col("d_ytd"),
            int_col("d_next_o_id"),
        ]
    ),
    "CUSTOMER": Schema(
        [
            int_col("c_id"),
            int_col("c_d_id"),
            int_col("c_w_id"),
            char_col("c_first", 16),
            char_col("c_middle", 2),
            char_col("c_last", 16),
            char_col("c_street_1", 20),
            char_col("c_city", 20),
            char_col("c_state", 2),
            char_col("c_zip", 9),
            char_col("c_phone", 16),
            int_col("c_since"),
            char_col("c_credit", 2),
            float_col("c_credit_lim"),
            float_col("c_discount"),
            float_col("c_balance"),
            float_col("c_ytd_payment"),
            int_col("c_payment_cnt"),
            int_col("c_delivery_cnt"),
            varchar_col("c_data", 250),
        ]
    ),
    "HISTORY": Schema(
        [
            int_col("h_c_id"),
            int_col("h_c_d_id"),
            int_col("h_c_w_id"),
            int_col("h_d_id"),
            int_col("h_w_id"),
            int_col("h_date"),
            float_col("h_amount"),
            char_col("h_data", 24),
        ]
    ),
    "NEW_ORDER": Schema(
        [
            int_col("no_o_id"),
            int_col("no_d_id"),
            int_col("no_w_id"),
        ]
    ),
    "ORDER": Schema(
        [
            int_col("o_id"),
            int_col("o_d_id"),
            int_col("o_w_id"),
            int_col("o_c_id"),
            int_col("o_entry_d"),
            int_col("o_carrier_id"),
            int_col("o_ol_cnt"),
            int_col("o_all_local"),
        ]
    ),
    "ORDERLINE": Schema(
        [
            int_col("ol_o_id"),
            int_col("ol_d_id"),
            int_col("ol_w_id"),
            int_col("ol_number"),
            int_col("ol_i_id"),
            int_col("ol_supply_w_id"),
            int_col("ol_delivery_d"),
            int_col("ol_quantity"),
            float_col("ol_amount"),
            char_col("ol_dist_info", 24),
        ]
    ),
    "ITEM": Schema(
        [
            int_col("i_id"),
            int_col("i_im_id"),
            char_col("i_name", 24),
            float_col("i_price"),
            varchar_col("i_data", 50),
        ]
    ),
    "STOCK": Schema(
        [
            int_col("s_i_id"),
            int_col("s_w_id"),
            int_col("s_quantity"),
            char_col("s_dist_01", 24),
            char_col("s_dist_02", 24),
            char_col("s_dist_03", 24),
            char_col("s_dist_04", 24),
            char_col("s_dist_05", 24),
            char_col("s_dist_06", 24),
            char_col("s_dist_07", 24),
            char_col("s_dist_08", 24),
            char_col("s_dist_09", 24),
            char_col("s_dist_10", 24),
            float_col("s_ytd"),
            int_col("s_order_cnt"),
            int_col("s_remote_cnt"),
            varchar_col("s_data", 50),
        ]
    ),
}

#: (index name, table, key columns, unique) — names match Figure 2.
INDEX_DEFS: tuple[tuple[str, str, tuple[str, ...], bool], ...] = (
    ("W_IDX", "WAREHOUSE", ("w_id",), True),
    ("D_IDX", "DISTRICT", ("d_w_id", "d_id"), True),
    ("C_IDX", "CUSTOMER", ("c_w_id", "c_d_id", "c_id"), True),
    ("C_NAME_IDX", "CUSTOMER", ("c_w_id", "c_d_id", "c_last", "c_first"), False),
    ("NO_IDX", "NEW_ORDER", ("no_w_id", "no_d_id", "no_o_id"), True),
    ("O_IDX", "ORDER", ("o_w_id", "o_d_id", "o_id"), True),
    ("O_CUST_IDX", "ORDER", ("o_w_id", "o_d_id", "o_c_id", "o_id"), False),
    ("OL_IDX", "ORDERLINE", ("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"), True),
    ("I_IDX", "ITEM", ("i_id",), True),
    ("S_IDX", "STOCK", ("s_w_id", "s_i_id"), True),
)


def create_schema(db: Database, at: float = 0.0) -> float:
    """Create every TPC-C table and index; returns the completion time.

    Tablespaces are auto-created per object, so the database's placement
    decides which region each object lands in.
    """
    for name, schema in TABLE_SCHEMAS.items():
        db.create_table(name, schema)
    for name, table, columns, unique in INDEX_DEFS:
        at = db.create_index(name, table, list(columns), unique=unique, at=at)
    return at
