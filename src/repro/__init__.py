"""Reproduction of *Revisiting DBMS Space Management for Native Flash*.

Hardock, Petrov, Gottstein, Buchmann — EDBT 2016 (poster),
DOI 10.5441/002/edbt.2016.91.

The package is organised bottom-up:

* :mod:`repro.flash` — native flash device simulator (the hardware).
* :mod:`repro.mapping` — shared flash-management machinery (the engine).
* :mod:`repro.ftl` — baseline FTL-based SSD (the paper's implicit comparator).
* :mod:`repro.core` — the paper's contribution: NoFTL with **regions**
  (DBMS-controlled physical placement, host-side translation, GC, WL).
* :mod:`repro.db` — a minimal page-based DBMS (buffer manager, heaps,
  B+-trees, tablespaces, DDL) standing in for Shore-MT.
* :mod:`repro.tpcc` — full TPC-C workload (schema, loader, transactions,
  closed-loop driver, consistency checks).
* :mod:`repro.bench` — experiment harness reproducing the paper's
  Figures 2 and 3 plus ablations.
* :mod:`repro.obs` — unified observability: the metric registry and the
  ``repro.obs/v1`` exporters behind every ``--json`` / ``--metrics-out``
  flag and ``repro report``.

Typical use mirrors the paper's DDL::

    from repro import Database, paper_geometry

    db = Database.on_native_flash(geometry=paper_geometry())
    db.execute("CREATE REGION rgHot (MAX_CHIPS=8, MAX_CHANNELS=4, DIES=8)")
    db.execute("CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 128K)")
    db.execute("CREATE TABLE t (t_id INT, payload CHAR(64)) TABLESPACE tsHot")
"""

from repro.core import (
    NoFTLStore,
    ObjectStats,
    PlacementConfig,
    Region,
    RegionConfig,
    RegionError,
    RegionSpec,
    figure2_placement,
    suggest_placement,
    traditional_placement,
)
from repro.db import Database, Schema, char_col, float_col, int_col, varchar_col
from repro.flash import (
    FlashDevice,
    FlashGeometry,
    SimClock,
    TimingModel,
    paper_geometry,
    small_geometry,
)
from repro.ftl import DFTL, PageMappingFTL
from repro.tpcc import Driver, ScaleConfig, check_consistency, load_database

__version__ = "1.0.0"

__all__ = [
    "DFTL",
    "Database",
    "Driver",
    "FlashDevice",
    "FlashGeometry",
    "NoFTLStore",
    "ObjectStats",
    "PageMappingFTL",
    "PlacementConfig",
    "Region",
    "RegionConfig",
    "RegionError",
    "RegionSpec",
    "ScaleConfig",
    "Schema",
    "SimClock",
    "TimingModel",
    "char_col",
    "check_consistency",
    "figure2_placement",
    "float_col",
    "int_col",
    "load_database",
    "paper_geometry",
    "small_geometry",
    "suggest_placement",
    "traditional_placement",
    "varchar_col",
    "__version__",
]
