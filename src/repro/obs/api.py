"""Observability contracts: the ``Snapshottable`` protocol and key grammar.

Every statistics producer in the system — :class:`~repro.flash.stats.FlashStats`,
:class:`~repro.mapping.stats.ManagementStats`,
:class:`~repro.db.buffer.BufferStats`, :class:`~repro.faults.stats.FaultStats` —
speaks one API: ``snapshot() -> dict[str, float]``.  Keys are dotted,
lower-level producers use *local* keys (``gc_copybacks``,
``injected.wearout``); the :class:`~repro.obs.registry.MetricRegistry`
prepends the namespace (``mgmt.``, ``region.rgHot.``) when a producer is
registered as a source, yielding the global key space documented in
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import re
from typing import Callable, Protocol, runtime_checkable

#: Pinned root namespaces of the global snapshot key space.  The schema
#: test (`tests/obs/test_schema.py`) asserts every registry key starts
#: with one of these; adding a root is an intentional, reviewed change.
ROOT_NAMESPACES: tuple[str, ...] = (
    "flash",    # native device counters (FlashStats)
    "mgmt",     # management-layer totals (ManagementStats, FTL or summed regions)
    "region",   # per-region breakdowns: region.<name>.<counter>
    "db",       # DBMS-side counters (db.buffer.*)
    "workload", # benchmark-driver metrics (TPS, transaction latencies)
    "faults",   # fault injection & recovery accounting (FaultStats)
)

_KEY_RE = re.compile(r"^[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*$")


class MetricKeyError(ValueError):
    """A metric key violates the dotted-name grammar or collides."""


@runtime_checkable
class Snapshottable(Protocol):
    """Anything that can report its current state as flat numeric metrics."""

    def snapshot(self) -> dict[str, float]:
        """Return a flat ``{dotted_key: number}`` view of current state."""
        ...


def check_key(key: str) -> str:
    """Validate one metric key against the grammar; returns it unchanged."""
    if not isinstance(key, str) or not _KEY_RE.match(key):
        raise MetricKeyError(
            f"invalid metric key {key!r}: want dot-separated [A-Za-z0-9_]+ segments"
        )
    return key


def prefixed(prefix: str, values: dict[str, float]) -> dict[str, float]:
    """Namespace every key of ``values`` under ``prefix``."""
    check_key(prefix)
    return {f"{prefix}.{check_key(key)}": value for key, value in values.items()}


#: A metrics source: a ``Snapshottable`` stats object, or a zero-arg
#: callable returning one (built fresh at each read, like a sum of regions).
SourceLike = Snapshottable | Callable[[], Snapshottable]


def read_source(source: SourceLike) -> Snapshottable:
    """The stats object behind a source (object or callable)."""
    return source() if callable(source) else source
