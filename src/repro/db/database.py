"""The ``Database`` facade: the whole stack wired together.

Construction picks the storage architecture:

* :meth:`Database.on_native_flash` — NoFTL: a flash device, a region
  manager configured from a :class:`~repro.core.placement.PlacementConfig`,
  and tablespaces coupled to regions (the paper's architecture);
* :meth:`Database.on_block_device` — traditional: the same DBMS on an
  FTL-based SSD behind the block-device interface (the paper's foil).

Everything above the backend — buffer pool, heaps, B+-trees, catalog,
DDL — is byte-identical between the two, so measured differences isolate
the storage architecture.
"""

from __future__ import annotations

from repro.core.advisor import ObjectStats
from repro.core.ddl import parse_create_region, parse_drop_region
from repro.core.placement import DBMS_METADATA, PlacementConfig
from repro.core.region import RegionError
from repro.core.store import NoFTLStore
from repro.db.backend import (
    DEFAULT_EXTENT_PAGES,
    BlockDeviceBackend,
    NoFTLBackend,
    StorageBackend,
)
from repro.db.buffer import BufferPool
from repro.db.btree import BTree
from repro.db.catalog import Catalog, IndexInfo, TableInfo, TablespaceInfo
from repro.db.ddl import (
    DDLError,
    parse_create_index,
    parse_create_table,
    parse_create_tablespace,
    parse_drop_table,
    statement_kind,
)
from repro.db.records import Schema
from repro.db.heap import HeapFile
from repro.db.table import Table

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.partition import PartitionedTable, PartitionScheme
    from repro.db.wal import WriteAheadLog
    from repro.obs.registry import MetricRegistry
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry, paper_geometry
from repro.flash.timing import TimingModel
from repro.ftl.dftl import DFTL
from repro.ftl.page_mapping import PageMappingFTL


class Database:
    """A minimal but complete page-based DBMS on simulated flash.

    Args:
        backend: storage backend (NoFTL or block device).
        buffer_pages: buffer pool capacity in pages.
        flusher_interval: page ops between background flush rounds.
        flusher_batch: dirty pages written per flush round.

    A tablespace created with no extent size gets
    :data:`~repro.db.backend.DEFAULT_EXTENT_PAGES`.
    """

    def __init__(
        self,
        backend: StorageBackend,
        buffer_pages: int = 256,
        flusher_interval: int = 64,
        flusher_batch: int = 8,
        cpu_us_per_op: float = 5.0,
        wal: bool = False,
    ) -> None:
        self.backend = backend
        self.buffer_pool = BufferPool(
            backend,
            capacity=buffer_pages,
            flusher_interval=flusher_interval,
            flusher_batch=flusher_batch,
            cpu_us_per_op=cpu_us_per_op,
        )
        self.catalog = Catalog()
        self.placement: PlacementConfig | None = None
        self.store: NoFTLStore | None = None  # set on native flash
        self.ftl: PageMappingFTL | None = None  # set on block device
        self._tables: dict[str, Table] = {}
        self._partitioned: dict[str, PartitionedTable] = {}
        self.wal: WriteAheadLog | None = None
        self._wal_requested = wal

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def on_native_flash(
        cls,
        geometry: FlashGeometry | None = None,
        placement: PlacementConfig | None = None,
        timing: TimingModel | None = None,
        global_wl_threshold: int = 64,
        system_dies: int | None = None,
        initial_bad_block_rate: float = 0.0,
        device_seed: int = 0,
        **db_kwargs: object,
    ) -> "Database":
        """Build a NoFTL database: regions created per ``placement``.

        Without an explicit placement only a small system region (for the
        catalog/metadata and any table not placed elsewhere) is created,
        over ``system_dies`` dies — the rest of the die pool stays free for
        ``CREATE REGION`` DDL, as in the paper's Section 2 example.  Pass
        :func:`~repro.core.placement.traditional_placement` explicitly for
        the single-pool configuration of the evaluation.
        """
        geometry = geometry if geometry is not None else paper_geometry()
        if placement is None:
            from repro.core.placement import RegionSpec
            from repro.core.region import RegionConfig

            dies = system_dies if system_dies is not None else max(1, geometry.dies // 8)
            placement = PlacementConfig(
                name="system",
                specs=(
                    RegionSpec(
                        config=RegionConfig(name="rgSystem"),
                        num_dies=dies,
                        objects=(DBMS_METADATA,),
                    ),
                ),
            )
        if placement.total_dies > geometry.dies:
            raise RegionError(
                f"placement {placement.name!r} wants {placement.total_dies} dies, "
                f"device has {geometry.dies}"
            )
        store = NoFTLStore.create(
            geometry,
            timing=timing,
            global_wl_threshold=global_wl_threshold,
            initial_bad_block_rate=initial_bad_block_rate,
            seed=device_seed,
        )
        for spec in placement.specs:
            store.create_region(spec.config, spec.num_dies)
        try:
            metadata_region = placement.region_of(DBMS_METADATA)
        except RegionError:
            metadata_region = placement.specs[0].config.name
        backend = NoFTLBackend(
            store,
            default_region=placement.specs[0].config.name,
            metadata_region=metadata_region,
        )
        db = cls(backend, **db_kwargs)
        db.placement = placement
        db.store = store
        db._init_wal()
        return db

    @classmethod
    def on_block_device(
        cls,
        geometry: FlashGeometry | None = None,
        timing: TimingModel | None = None,
        ftl: str = "page",
        overprovision: float = 0.1,
        gc_policy: str = "greedy",
        cmt_entries: int = 4096,
        initial_bad_block_rate: float = 0.0,
        device_seed: int = 0,
        **db_kwargs: object,
    ) -> "Database":
        """Build the same database on an FTL SSD (``ftl``: "page" or "dftl")."""
        geometry = geometry if geometry is not None else paper_geometry()
        device = FlashDevice(
            geometry,
            timing=timing,
            initial_bad_block_rate=initial_bad_block_rate,
            seed=device_seed,
        )
        if ftl == "page":
            ftl_device: PageMappingFTL = PageMappingFTL(
                device, overprovision=overprovision, gc_policy=gc_policy
            )
        elif ftl == "dftl":
            ftl_device = DFTL(
                device,
                cmt_entries=cmt_entries,
                overprovision=overprovision,
                gc_policy=gc_policy,
            )
        else:
            raise ValueError(f"unknown ftl kind {ftl!r}; expected 'page' or 'dftl'")
        db = cls(BlockDeviceBackend(ftl_device), **db_kwargs)
        db.ftl = ftl_device
        db._init_wal()
        return db

    def _init_wal(self) -> None:
        """Create the WAL tablespace and log when logging was requested.

        The log is its own database object: under a placement it routes to
        the region mapped for ``"WAL"`` (falling back like any unplaced
        object), so the archetypal cold append stream gets the physical
        separation the paper advocates.
        """
        if not self._wal_requested or self.wal is not None:
            return
        from repro.db.wal import WAL_SPACE, WriteAheadLog

        ts = self.create_tablespace(
            f"ts_{WAL_SPACE}", region=self._placement_region_for(WAL_SPACE)
        )
        self.wal = WriteAheadLog(self.backend, ts.space_id)

    def enable_wal(self) -> None:
        """Start redo logging now (e.g. right after taking a backup).

        Creates the WAL on first call and attaches it to every existing
        and future table handle.  Records written before this call do not
        exist; replay therefore reproduces exactly the changes since the
        backup point.
        """
        self._wal_requested = True
        self._init_wal()
        for table in self._tables.values():
            table.wal = self.wal

    def _placement_region_for(self, object_name: str) -> str | None:
        if self.placement is None:
            return None
        try:
            return self.placement.region_of(object_name)
        except RegionError:
            return self.placement.specs[0].config.name

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def device(self) -> FlashDevice:
        """The underlying native flash device (either architecture)."""
        if self.store is not None:
            return self.store.device
        assert self.ftl is not None
        return self.ftl.device

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricRegistry:
        """A :class:`~repro.obs.registry.MetricRegistry` over the whole stack.

        Mounts ``flash.*``, ``mgmt.*``, ``region.<name>.*`` (on native
        flash) and ``db.buffer.*``; reads the live counters at snapshot
        time without copying or perturbing them.
        """
        from repro.obs.collect import registry_for_database

        return registry_for_database(self)

    @property
    def now(self) -> float:
        """Current virtual time of the underlying device."""
        return self.device.clock.now

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def execute(self, sql: str, at: float = 0.0) -> float:
        """Execute one DDL statement; returns the completion time."""
        kind = statement_kind(sql)
        if kind == "region":
            stmt = parse_create_region(sql)
            if self.store is None:
                raise DDLError("CREATE REGION requires a native-flash database")
            num_dies = 1 if stmt.num_dies is None else stmt.num_dies
            self.store.create_region(stmt.config, num_dies)
            return at
        if kind == "drop_region":
            stmt = parse_drop_region(sql)
            if self.store is None:
                raise DDLError("DROP REGION requires a native-flash database")
            self.store.drop_region(stmt.name, force=stmt.force)
            return at
        if kind == "tablespace":
            ts = parse_create_tablespace(sql)
            extent_pages = DEFAULT_EXTENT_PAGES
            if ts.extent_size_bytes is not None:
                page_size = self.backend.page_size
                if ts.extent_size_bytes == 0 or ts.extent_size_bytes % page_size:
                    raise DDLError(
                        f"EXTENT SIZE of {ts.extent_size_bytes} bytes is not a "
                        f"positive multiple of the {page_size}-byte page"
                    )
                extent_pages = ts.extent_size_bytes // page_size
            self.create_tablespace(ts.name, region=ts.region, extent_pages=extent_pages)
            return at
        if kind == "table":
            stmt = parse_create_table(sql)
            self.create_table(stmt.name, stmt.schema, tablespace=stmt.tablespace)
            return at
        if kind == "index":
            stmt = parse_create_index(sql)
            return self.create_index(
                stmt.name,
                stmt.table,
                list(stmt.columns),
                unique=stmt.unique,
                tablespace=stmt.tablespace,
                at=at,
            )
        if kind == "drop_table":
            stmt = parse_drop_table(sql)
            self.drop_table(stmt.name)
            return at
        raise DDLError(f"unhandled statement kind {kind!r}")

    def execute_script(self, sql: str, at: float = 0.0) -> float:
        """Execute a ``;``-separated sequence of DDL statements."""
        for statement in sql.split(";"):
            if statement.strip():
                at = self.execute(statement, at)
        return at

    # ------------------------------------------------------------------
    # Object creation (programmatic API)
    # ------------------------------------------------------------------
    def create_tablespace(
        self,
        name: str,
        region: str | None = None,
        extent_pages: int | None = None,
    ) -> TablespaceInfo:
        """Create a tablespace, optionally coupled to a region."""
        space_id = self.backend.create_space(
            name, region=region, extent_pages=extent_pages or DEFAULT_EXTENT_PAGES
        )
        info = TablespaceInfo(
            name=name,
            space_id=space_id,
            region=region,
            extent_pages=extent_pages or DEFAULT_EXTENT_PAGES,
        )
        self.catalog.add_tablespace(info)
        return info

    def _auto_tablespace(self, object_name: str) -> str:
        """Create (or reuse) the default tablespace for an object.

        With a placement configured, the tablespace couples to the region
        the placement maps the object to; unplaced objects fall into the
        placement's first region (or the backend default).
        """
        ts_name = f"ts_{object_name}"
        if self.catalog.has_tablespace(ts_name):
            return ts_name
        region = None
        if self.placement is not None:
            try:
                region = self.placement.region_of(object_name)
            except RegionError:
                region = self.placement.specs[0].config.name
        self.create_tablespace(ts_name, region=region)
        return ts_name

    def create_table(
        self, name: str, schema: Schema, tablespace: str | None = None
    ) -> Table:
        """Create a table (auto-creating its tablespace if none given)."""
        ts_name = tablespace or self._auto_tablespace(name)
        ts = self.catalog.tablespace(ts_name)
        heap = HeapFile(self.buffer_pool, ts.space_id, schema)
        info = TableInfo(name=name, schema=schema, tablespace=ts_name, heap=heap)
        self.catalog.add_table(info)
        table = Table(info, wal=self.wal)
        self._tables[name] = table
        return table

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: list[str],
        unique: bool = False,
        tablespace: str | None = None,
        at: float = 0.0,
    ) -> float:
        """Create an index; existing rows are bulk-loaded through it."""
        table_info = self.catalog.table(table_name)
        key_schema = table_info.schema.project(columns)
        ts_name = tablespace or self._auto_tablespace(name)
        ts = self.catalog.tablespace(ts_name)
        btree = BTree(self.buffer_pool, ts.space_id, key_schema, unique=unique)
        index = IndexInfo(
            name=name,
            table=table_name,
            columns=tuple(columns),
            unique=unique,
            tablespace=ts_name,
            btree=btree,
        )
        self.catalog.add_index(index)
        positions = [table_info.schema.position(c) for c in columns]
        for rid, row, at in table_info.heap.scan(at):
            at = btree.insert(tuple(row[i] for i in positions), rid, at)
        return at

    def create_partitioned_table(
        self,
        name: str,
        schema: Schema,
        scheme: PartitionScheme,
        regions: list[str | None] | None = None,
        index_defs: list[tuple[str, list[str], bool]] | None = None,
    ) -> PartitionedTable:
        """Create a partitioned table — placement below the object level.

        The paper (Section 2) allows regions to hold "complete objects or
        partitions of them"; this creates one internal table (heap + local
        indexes, own tablespace) per partition.

        Args:
            name: table name; partitions register as ``name#pN``.
            schema: row schema (must contain the scheme's column).
            scheme: a :class:`~repro.db.partition.PartitionScheme`.
            regions: backing region per partition (``None`` entries use the
                placement default) — the whole point: hot and cold
                partitions of one table in different regions.
            index_defs: local index definitions ``(suffix, columns, unique)``
                created on every partition as ``name#pN_suffix``.
        """
        from repro.db.partition import PartitionedTable, PartitionError

        schema.position(scheme.column)  # validates the column exists
        if regions is not None and len(regions) != scheme.partitions:
            raise PartitionError(
                f"{scheme.partitions} partitions but {len(regions)} region hints"
            )
        parts: list[Table] = []
        for index in range(scheme.partitions):
            part_name = f"{name}#p{index}"
            region = regions[index] if regions is not None else None
            ts_name = f"ts_{part_name}"
            self.create_tablespace(
                ts_name,
                region=region or self._placement_region_for(name),
            )
            self.create_table(part_name, schema, tablespace=ts_name)
            for suffix, columns, unique in index_defs or []:
                self.create_index(
                    f"{part_name}_{suffix}", part_name, columns, unique=unique,
                    tablespace=ts_name,
                )
            parts.append(self.table(part_name))
        table = PartitionedTable(name, schema, scheme, parts)
        self._partitioned[name] = table
        return table

    def partitioned_table(self, name: str) -> PartitionedTable:
        """Handle for a partitioned table created earlier."""
        try:
            return self._partitioned[name]
        except KeyError:
            raise DDLError(f"no partitioned table named {name!r}") from None

    def drop_table(self, name: str) -> None:
        """Drop a table: catalog removal plus page reclamation."""
        info = self.catalog.drop_table(name)
        self._tables.pop(name, None)
        for page_no in list(info.heap._pages):
            self.buffer_pool.drop(info.heap.space_id, page_no)
            self.backend.free_page(info.heap.space_id, page_no)

    def table(self, name: str) -> Table:
        """Operational handle for a table."""
        if name not in self._tables:
            self._tables[name] = Table(self.catalog.table(name), wal=self.wal)
        return self._tables[name]

    # ------------------------------------------------------------------
    # Maintenance & reporting
    # ------------------------------------------------------------------
    def checkpoint(self, at: float) -> float:
        """Flush every dirty buffer page (and force the WAL, if enabled)."""
        if self.wal is not None:
            at = self.wal.checkpoint(at)
        return self.buffer_pool.flush_all(at)

    def object_stats(self) -> list[ObjectStats]:
        """Per-object size and I/O statistics (advisor input).

        One entry per table and per index, named after the object (not its
        tablespace).  Reads/writes are physical page I/Os of the object's
        tablespace since database start.
        """
        stats: list[ObjectStats] = []
        for info in self.catalog.tables():
            ts = self.catalog.tablespace(info.tablespace)
            stats.append(self._space_stats(info.name, ts.space_id))
        for index in self.catalog.indexes():
            ts = self.catalog.tablespace(index.tablespace)
            stats.append(self._space_stats(index.name, ts.space_id))
        return stats

    def _space_stats(self, name: str, space_id: int) -> ObjectStats:
        return ObjectStats(
            name=name,
            size_pages=self.backend.allocated_pages(space_id),
            reads=self.backend.space_reads.get(space_id, 0),
            writes=self.backend.space_writes.get(space_id, 0),
        )
