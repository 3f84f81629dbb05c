"""Unified observability: one metrics API across every layer.

The paper's whole argument is told through counters (Figure 3: host
READ/WRITE I/Os, GC COPYBACKs, GC ERASEs, latency distributions).  This
package is the single surface that collects, namespaces and exports them:

* :class:`MetricRegistry` — mounted stats *sources* and gauges under
  dotted keys (``flash.erases``, ``mgmt.gc_copybacks``,
  ``region.rgHot.host_writes``, ``db.buffer.hits``); its snapshot is
  cumulative, or a measured window (``snapshot(since=registry.mark())``).
* Exporters — :func:`dump_json` (the one ``--json`` serializer),
  :func:`metrics_doc` + :func:`validate_metrics_doc` (the ``repro.obs/v1``
  schema); the tables over the same data are
  :mod:`repro.bench.reporting`'s.
* Collectors — :func:`registry_for_database` and friends mount a live
  stack's stats objects without touching their hot paths.

The canonical stats classes are re-exported here.
"""

from repro.flash.stats import FlashStats, LatencyAccumulator
from repro.mapping.stats import ManagementStats
from repro.obs.api import (
    MetricKeyError,
    ROOT_NAMESPACES,
    Snapshottable,
    check_key,
    prefixed,
)
from repro.obs.collect import (
    combined_management_stats,
    registry_for_blockdevice,
    registry_for_database,
    registry_for_store,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    SchemaError,
    dump_json,
    metrics_doc,
    validate_metrics_doc,
    validate_snapshot,
)
from repro.obs.registry import Gauge, MetricRegistry

__all__ = [
    "FlashStats",
    "Gauge",
    "LatencyAccumulator",
    "ManagementStats",
    "MetricKeyError",
    "MetricRegistry",
    "ROOT_NAMESPACES",
    "SCHEMA_VERSION",
    "SchemaError",
    "Snapshottable",
    "check_key",
    "combined_management_stats",
    "dump_json",
    "metrics_doc",
    "prefixed",
    "registry_for_blockdevice",
    "registry_for_database",
    "registry_for_store",
    "validate_metrics_doc",
    "validate_snapshot",
]
