"""Initial TPC-C population (spec clause 4.3.3, scaled).

The population is ITEM, then per warehouse: WAREHOUSE, STOCK, per
district: DISTRICT, CUSTOMER (+1 HISTORY row each), and the initial
ORDER / ORDERLINE / NEW_ORDER rows (the last ~30% of orders are open,
i.e. have NEW_ORDER entries and undelivered lines).

It is a pure function of ``(scale, seed)``, so it is generated once:
:func:`initial_records` keeps the last population it built as two
columns in insertion order, one ``bytes`` of table codes (a table's
position in :data:`~repro.tpcc.schema.TABLE_SCHEMAS`) and the tuple of
records the heap stores -- every row encoded once with its table's
:class:`~repro.db.records.RowCodec` -- and :func:`load_database` hands
each record to its table's :meth:`~repro.db.table.Table.insert_record`,
resolved once per table, and finishes with a checkpoint, so the load is
entirely on flash before measurement starts.  The heap pages keep the
memo's ``bytes`` objects themselves, so a loaded database shares them
instead of holding a second copy.  Every experiment loads one population
several times (``fig3`` twice, a chaos run twice per fault plan); the
memo holds one entry for the life of the process: 4.9 MiB at the
benchmark's scale (24,108 records, tracemalloc), 4.65 MiB of it the
records themselves.  The rows exist only while the memo is built.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from repro.db.database import Database
from repro.db.records import Row, RowCodec, SchemaError
from repro.tpcc.random_gen import TPCCRandom
from repro.tpcc.schema import TABLE_SCHEMAS, ScaleConfig, create_schema


def load_database(
    db: Database, scale: ScaleConfig, seed: int = 0, at: float = 0.0, create: bool = True
) -> float:
    """Create the schema (optionally) and load the initial population.

    With ``create=False`` every TPC-C table must already exist with the
    columns of :data:`~repro.tpcc.schema.TABLE_SCHEMAS`; a table that
    differs raises :class:`~repro.db.records.SchemaError` before anything
    is inserted.  Returns the virtual completion time of the load +
    checkpoint.
    """
    if create:
        at = create_schema(db, at)
    inserts = []  # by table code
    for name, schema in TABLE_SCHEMAS.items():
        table = db.table(name)
        if table.schema.columns != schema.columns:
            raise SchemaError(f"table {name!r}: columns differ from the TPC-C schema")
        inserts.append(table.insert_record)
    codes, records = initial_records(scale, seed)
    for code, record in zip(codes, records):
        __, at = inserts[code](record, at)
    return db.checkpoint(at)


@functools.lru_cache(maxsize=1)
def initial_records(scale: ScaleConfig, seed: int) -> tuple[bytes, tuple[bytes, ...]]:
    """The initial population in load order, as ``(codes, records)``:
    ``codes[i]`` is the position in :data:`TABLE_SCHEMAS` of the table
    ``records[i]`` belongs to."""
    position = {name: code for code, name in enumerate(TABLE_SCHEMAS)}
    encoders = [RowCodec(schema).encode for schema in TABLE_SCHEMAS.values()]
    codes = bytearray()
    records = []
    for table, row in _rows(scale, seed):
        code = position[table]
        codes.append(code)
        records.append(encoders[code](row))
    return bytes(codes), tuple(records)


def _rows(scale: ScaleConfig, seed: int) -> Iterator[tuple[str, Row]]:
    """Every ``(table, row)`` of the initial population, in load order."""
    rng = TPCCRandom(seed)
    yield from _items(scale, rng)
    for w_id in range(1, scale.warehouses + 1):
        yield from _warehouse(scale, rng, w_id)


def _items(scale: ScaleConfig, rng: TPCCRandom) -> Iterator[tuple[str, Row]]:
    for i_id in range(1, scale.items + 1):
        yield "ITEM", (
            i_id,
            rng.uniform(1, 10_000),
            rng.astring(8, 20),
            rng.decimal(1.0, 100.0),
            rng.data_string(14, 50),
        )


def _warehouse(scale: ScaleConfig, rng: TPCCRandom, w_id: int) -> Iterator[tuple[str, Row]]:
    yield "WAREHOUSE", (
        w_id,
        rng.astring(6, 10),
        rng.astring(10, 20),
        rng.astring(10, 20),
        rng.astring(2, 2).upper()[:2],
        rng.zip_code(),
        rng.decimal(0.0, 0.2, 4),
        # spec 4.3.3.1 says 300,000.00, which presumes 10 districts at
        # 30,000.00 each; keep the W_YTD == sum(D_YTD) invariant at any scale
        30_000.0 * scale.districts,
    )
    yield from _stock(scale, rng, w_id)
    for d_id in range(1, scale.districts + 1):
        yield from _district(scale, rng, w_id, d_id)


def _stock(scale: ScaleConfig, rng: TPCCRandom, w_id: int) -> Iterator[tuple[str, Row]]:
    for i_id in range(1, scale.items + 1):
        dists = tuple(rng.astring(24, 24) for __ in range(10))
        yield "STOCK", (i_id, w_id, rng.uniform(10, 100)) + dists + (
            0.0,
            0,
            0,
            rng.data_string(14, 50),
        )


def _district(
    scale: ScaleConfig, rng: TPCCRandom, w_id: int, d_id: int
) -> Iterator[tuple[str, Row]]:
    yield "DISTRICT", (
        d_id,
        w_id,
        rng.astring(6, 10),
        rng.astring(10, 20),
        rng.astring(10, 20),
        "ST",
        rng.zip_code(),
        rng.decimal(0.0, 0.2, 4),
        30_000.0,
        scale.initial_orders_per_district + 1,
    )
    yield from _customers(scale, rng, w_id, d_id)
    yield from _orders(scale, rng, w_id, d_id)


def _customers(
    scale: ScaleConfig, rng: TPCCRandom, w_id: int, d_id: int
) -> Iterator[tuple[str, Row]]:
    for c_id in range(1, scale.customers_per_district + 1):
        # the first customers get deterministic names so name lookups find
        # them (spec: c_id <= 1000 uses last_name(c_id - 1))
        last = (
            rng.last_name(c_id - 1)
            if c_id <= min(1000, scale.customers_per_district)
            else rng.customer_last_name_load(scale.customers_per_district)
        )
        credit = "BC" if rng.uniform(1, 10) == 1 else "GC"
        yield "CUSTOMER", (
            c_id,
            d_id,
            w_id,
            rng.astring(8, 16),
            "OE",
            last,
            rng.astring(10, 20),
            rng.astring(10, 20),
            "ST",
            rng.zip_code(),
            rng.nstring(16, 16),
            0,
            credit,
            50_000.0,
            rng.decimal(0.0, 0.5, 4),
            -10.0,
            10.0,
            1,
            0,
            rng.astring(60, 120),
        )
        yield "HISTORY", (c_id, d_id, w_id, d_id, w_id, 0, 10.0, rng.astring(12, 24))


def _orders(
    scale: ScaleConfig, rng: TPCCRandom, w_id: int, d_id: int
) -> Iterator[tuple[str, Row]]:
    n_orders = scale.initial_orders_per_district
    customer_ids = rng.permutation(scale.customers_per_district)
    open_threshold = n_orders - max(1, int(n_orders * 0.3))
    for o_id in range(1, n_orders + 1):
        c_id = customer_ids[(o_id - 1) % len(customer_ids)]
        ol_cnt = rng.uniform(scale.min_order_lines, scale.max_order_lines)
        is_open = o_id > open_threshold
        carrier = 0 if is_open else rng.uniform(1, 10)
        yield "ORDER", (o_id, d_id, w_id, c_id, 0, carrier, ol_cnt, 1)
        for number in range(1, ol_cnt + 1):
            amount = 0.0 if not is_open else rng.decimal(0.01, 9_999.99)
            yield "ORDERLINE", (
                o_id,
                d_id,
                w_id,
                number,
                rng.uniform(1, scale.items),
                w_id,
                0 if is_open else 1,
                5,
                amount,
                rng.astring(24, 24),
            )
        if is_open:
            yield "NEW_ORDER", (o_id, d_id, w_id)
