"""TPC-C consistency conditions (spec clause 3.3).

The spec defines invariants that must hold after any mix of transactions.
They double as end-to-end integrity checks of the whole storage stack: if
a page was lost, stale, or double-mapped anywhere between the B+-trees and
the flash cells, these go red.

Implemented conditions:

* **C1** — for every district: ``d_next_o_id - 1`` equals the maximum
  order id of the district (in ORDER and, when present, NEW_ORDER).
* **C2** — for every district: NEW_ORDER ids form a contiguous range
  (max - min + 1 == count).
* **C3** — for every order: ``o_ol_cnt`` equals its ORDERLINE row count.
* **C4** — for every district: sum of ``o_ol_cnt`` equals the number of
  order lines of the district.
* **W1** — for every warehouse: ``w_ytd`` equals the sum of its
  districts' ``d_ytd`` (holds when payments are the only YTD writers).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.db.database import Database
from repro.db.records import Row

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.db.records import Schema


@dataclass
class ConsistencyReport:
    """Outcome of the consistency checks."""

    violations: list[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether every checked condition held."""
        return not self.violations

    def add(self, message: str) -> None:
        """Record one violation."""
        self.violations.append(message)

    def raise_if_violated(self) -> None:
        """Raise ``AssertionError`` listing all violations, if any."""
        if self.violations:
            raise AssertionError(
                f"{len(self.violations)} TPC-C consistency violations:\n  "
                + "\n  ".join(self.violations)
            )


def check_consistency(db: Database, at: float | None = None) -> ConsistencyReport:
    """Run the implemented TPC-C consistency conditions over ``db``.

    Uses full scans (reads through the buffer pool like any query), so it
    also exercises the read path of every table it touches.  The reads
    are issued at ``at``, by default the database's clock (:attr:`Database.now`):
    a device timeline refuses a request from further back than it
    remembers (:class:`~repro.flash.errors.StaleReservationError`).
    """
    if at is None:
        at = db.now
    report = ConsistencyReport()
    _check_order_counters(db, at, report)
    _check_new_order_contiguity(db, at, report)
    _check_order_line_counts(db, at, report)
    _check_ytd_sums(db, at, report)
    return report


def _district_key(row: Row, schema: Schema) -> tuple[int, int]:
    return row[schema.position("d_w_id")], row[schema.position("d_id")]


def _check_order_counters(db: Database, at: float, report: ConsistencyReport) -> None:
    """C1: d_next_o_id - 1 == max(o_id) per district."""
    order = db.table("ORDER")
    o_schema = order.schema
    max_o: dict[tuple[int, int], int] = defaultdict(int)
    for __, row, at in order.scan(at):
        key = (row[o_schema.position("o_w_id")], row[o_schema.position("o_d_id")])
        max_o[key] = max(max_o[key], row[o_schema.position("o_id")])
    district = db.table("DISTRICT")
    d_schema = district.schema
    for __, row, at in district.scan(at):
        key = _district_key(row, d_schema)
        expected = row[d_schema.position("d_next_o_id")] - 1
        actual = max_o.get(key, 0)
        report.checked += 1
        if expected != actual:
            report.add(
                f"C1: district {key}: d_next_o_id-1={expected} but max(o_id)={actual}"
            )


def _check_new_order_contiguity(db: Database, at: float, report: ConsistencyReport) -> None:
    """C2: NEW_ORDER ids per district are contiguous."""
    new_order = db.table("NEW_ORDER")
    schema = new_order.schema
    ids: dict[tuple[int, int], list[int]] = defaultdict(list)
    for __, row, at in new_order.scan(at):
        key = (row[schema.position("no_w_id")], row[schema.position("no_d_id")])
        ids[key].append(row[schema.position("no_o_id")])
    for key, values in sorted(ids.items()):
        report.checked += 1
        if max(values) - min(values) + 1 != len(values):
            report.add(
                f"C2: district {key}: NEW_ORDER ids not contiguous "
                f"(min={min(values)}, max={max(values)}, count={len(values)})"
            )


def _check_order_line_counts(db: Database, at: float, report: ConsistencyReport) -> None:
    """C3/C4: o_ol_cnt matches ORDERLINE rows, per order and per district."""
    orderline = db.table("ORDERLINE")
    ol_schema = orderline.schema
    lines: dict[tuple[int, int, int], int] = defaultdict(int)
    for __, row, at in orderline.scan(at):
        key = (
            row[ol_schema.position("ol_w_id")],
            row[ol_schema.position("ol_d_id")],
            row[ol_schema.position("ol_o_id")],
        )
        lines[key] += 1
    order = db.table("ORDER")
    o_schema = order.schema
    district_expected: dict[tuple[int, int], int] = defaultdict(int)
    for __, row, at in order.scan(at):
        w = row[o_schema.position("o_w_id")]
        d = row[o_schema.position("o_d_id")]
        o = row[o_schema.position("o_id")]
        ol_cnt = row[o_schema.position("o_ol_cnt")]
        district_expected[(w, d)] += ol_cnt
        report.checked += 1
        if lines.get((w, d, o), 0) != ol_cnt:
            report.add(
                f"C3: order ({w},{d},{o}): o_ol_cnt={ol_cnt} but "
                f"{lines.get((w, d, o), 0)} order lines exist"
            )
    district_actual: dict[tuple[int, int], int] = defaultdict(int)
    for (w, d, __), count in lines.items():
        district_actual[(w, d)] += count
    for key in sorted(set(district_expected) | set(district_actual)):
        report.checked += 1
        if district_expected.get(key, 0) != district_actual.get(key, 0):
            report.add(
                f"C4: district {key}: sum(o_ol_cnt)={district_expected.get(key, 0)} "
                f"but {district_actual.get(key, 0)} order lines exist"
            )


def _check_ytd_sums(db: Database, at: float, report: ConsistencyReport) -> None:
    """W1: w_ytd == sum(d_ytd) of the warehouse's districts."""
    district = db.table("DISTRICT")
    d_schema = district.schema
    sums: dict[int, float] = defaultdict(float)
    for __, row, at in district.scan(at):
        sums[row[d_schema.position("d_w_id")]] += row[d_schema.position("d_ytd")]
    warehouse = db.table("WAREHOUSE")
    w_schema = warehouse.schema
    for __, row, at in warehouse.scan(at):
        w_id = row[w_schema.position("w_id")]
        w_ytd = row[w_schema.position("w_ytd")]
        report.checked += 1
        if abs(w_ytd - sums.get(w_id, 0.0)) > 0.01:
            report.add(
                f"W1: warehouse {w_id}: w_ytd={w_ytd:.2f} != sum(d_ytd)={sums.get(w_id, 0.0):.2f}"
            )
