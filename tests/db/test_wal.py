"""Tests for redo write-ahead logging and replay."""

import hashlib
import random

import pytest

from repro.core import figure2_placement
from repro.db import Database, Schema, int_col, make_rid, split_rid, varchar_col
from repro.db import wal as wal_module
from repro.db.wal import LogRecord, LogRecordType, WALError, WriteAheadLog, replay_log
from repro.flash import FlashGeometry, instant_timing

from tests.db.conftest import MemoryBackend


def tiny_geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size=512,
        oob_size=16,
        max_pe_cycles=100_000,
    )


def make_db(**kwargs):
    return Database.on_native_flash(
        geometry=tiny_geometry(), timing=instant_timing(), buffer_pages=64, **kwargs
    )


class TestRecordCodec:
    def test_roundtrip(self):
        record = LogRecord(42, LogRecordType.UPDATE, "CUSTOMER", make_rid(7, 3), b"rowdata")
        decoded, end = LogRecord.decode(record.encode(), 0)
        assert decoded == record
        assert end == len(record.encode())

    def test_empty_row(self):
        record = LogRecord(1, LogRecordType.DELETE, "t", make_rid(0, 0))
        decoded, __ = LogRecord.decode(record.encode(), 0)
        assert decoded.row_bytes == b""

    @pytest.mark.parametrize("rtype", list(LogRecordType))
    def test_every_type_roundtrips_to_a_log_record(self, rtype):
        rid = make_rid(2**31 - 1, 2**16 - 1)  # the wire format's limits
        record = LogRecord(2**40 + 3, rtype, "ORDER_LINE", rid, b"\x00row")
        prefix = b"\xff" * 5
        decoded, end = LogRecord.decode(prefix + record.encode(), len(prefix))
        assert decoded == record and end == len(prefix) + len(record.encode())
        assert type(decoded) is LogRecord and decoded.type is rtype
        assert type(decoded.rid) is int and split_rid(decoded.rid) == (2**31 - 1, 2**16 - 1)

    def test_unknown_type_byte_is_a_value_error(self):
        image = bytearray(LogRecord(1, LogRecordType.INSERT, "t", make_rid(0, 0), b"x").encode())
        image[8] = 0xEE
        with pytest.raises(ValueError, match="238"):
            LogRecord.decode(bytes(image), 0)


class TestWriteAheadLog:
    def test_appends_buffer_until_page_full(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        for i in range(3):
            wal.append(LogRecordType.INSERT, "t", make_rid(i, 0), b"x" * 20)
        assert wal.flushed_pages == 0  # still buffered
        wal.flush()
        assert wal.flushed_pages == 1

    def test_full_page_autoflushes(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        for i in range(100):
            wal.append(LogRecordType.INSERT, "t", make_rid(i, 0), b"x" * 40)
        assert wal.flushed_pages > 0

    def test_lsns_monotonic(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        lsns = [wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"")[0] for __ in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_oversized_record_rejected(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        with pytest.raises(WALError):
            wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"x" * 4096)
        # the largest record a page takes: header 2 + record 22 + row = 512
        wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"x" * 488)
        with pytest.raises(WALError, match="record of 511 bytes exceeds log page size 512"):
            wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"x" * 489)
        assert wal.next_lsn == 2 and wal.records_written == 1  # a refused record is not counted

    def test_pages_are_the_images_a_record_by_record_copy_builds(
        self, memory_backend, monkeypatch
    ):
        """The page writer joins the images ``append`` kept; the reference
        encodes every record again into a zeroed page, as the log did when
        it kept the records themselves."""
        encodes = []
        encode_record = wal_module._encode_record
        monkeypatch.setattr(
            wal_module,
            "_encode_record",
            lambda lsn, *fields: encodes.append(lsn) or encode_record(lsn, *fields),
        )

        def encode(record):  # the reference: the encoder itself, uncounted
            return encode_record(*record)

        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        rng = random.Random(11)
        pages, current, used = [], [], 2
        for lsn in range(1, 301):
            record = LogRecord(
                lsn,
                rng.choice(list(LogRecordType)),
                rng.choice(["", "t", "ORDERLINE", "t\u00e9"]),
                make_rid(rng.randrange(2**31), rng.randrange(2**16)),
                rng.randbytes(rng.choice([0, 1, 40, 200, 480])),
            )
            size = len(encode(record))
            if used + size > 512:
                pages.append(current)
                current, used = [], 2
            current.append(record)
            used += size
            assert wal.append(record.type, record.table, record.rid, record.row_bytes)[0] == lsn
        wal.flush()
        wal.flush()  # nothing buffered: no empty page
        pages.append(current)
        assert encodes == list(range(1, 301))  # each record encoded once, at append
        assert wal.flushed_pages == len(pages) > 50
        for page_no, records in enumerate(pages):
            image = bytearray(512)
            image[0:2] = len(records).to_bytes(2, "little")
            offset = 2
            for record in records:
                raw = encode(record)
                image[offset : offset + len(raw)] = raw
                offset += len(raw)
            assert memory_backend.pages[(sid, page_no)] == bytes(image)
        assert [r for r, __ in wal.records()] == [r for page in pages for r in page]

    def test_records_returns_only_persisted(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"a" * 200)
        wal.append(LogRecordType.INSERT, "t", make_rid(1, 0), b"b" * 200)
        wal.append(LogRecordType.INSERT, "t", make_rid(2, 0), b"c" * 200)  # page 1 flushed
        persisted = [r for r, __ in wal.records()]
        assert len(persisted) == 2  # the third is still buffered ("lost in crash")

    def test_checkpoint_forces_everything(self, memory_backend):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        wal.append(LogRecordType.INSERT, "t", make_rid(0, 0), b"x")
        wal.checkpoint()
        kinds = [r.type for r, __ in wal.records()]
        assert kinds == [LogRecordType.INSERT, LogRecordType.CHECKPOINT]


class TestTornTail:
    """:meth:`WriteAheadLog.for_recovery` ends the log at the first page
    that does not read back as a well-formed log page, keeps the pages
    before it, and continues the LSNs past the highest survivor."""

    TORN_PAGE = 3

    @staticmethod
    def unknown_type(image):
        image = bytearray(image)
        image[2 + 8] = 0xEE  # the first record's type byte
        return bytes(image)

    TEARS = {
        "unknown type byte": unknown_type,
        # cut inside the first record's body (header 11 + name 1 + 4 bytes)
        "truncated record": lambda image: image[: 2 + 11 + 1 + 4],
        "all-zero page": lambda image: bytes(len(image)),
        "unreadable page": None,
    }

    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_scan_ends_at_the_torn_page(self, memory_backend, tear):
        sid = memory_backend.create_space("wal")
        wal = WriteAheadLog(memory_backend, sid)
        for i in range(40):
            wal.append(LogRecordType.INSERT, "t", make_rid(i, 0), b"x" * 60)
        wal.commit()
        wal.flush()
        pages = [memory_backend.pages[(sid, n)] for n in range(wal.flushed_pages)]
        assert len(pages) > self.TORN_PAGE + 1
        kept = [r for r, __ in wal.records()][: 6 * self.TORN_PAGE]
        assert all(len(page) == 512 and page[:2] == b"\x06\x00" for page in pages[:-1])
        if self.TEARS[tear] is None:
            del memory_backend.pages[(sid, self.TORN_PAGE)]
        else:
            memory_backend.pages[(sid, self.TORN_PAGE)] = self.TEARS[tear](pages[self.TORN_PAGE])

        recovered = WriteAheadLog.for_recovery(memory_backend, sid)
        assert recovered.flushed_pages == self.TORN_PAGE
        assert [r for r, __ in recovered.records()] == kept
        assert recovered.next_lsn == kept[-1].lsn + 1 == 6 * self.TORN_PAGE + 1
        lsn, __ = recovered.append(LogRecordType.COMMIT, "", make_rid(0, 0))
        assert lsn == recovered.next_lsn - 1


class TestDatabaseIntegration:
    def schema_ddl(self, db):
        db.execute("CREATE TABLE t (a INT, b CHAR(12))")
        db.create_index("t_a", "t", ["a"], unique=True)

    def test_wal_created_on_demand(self):
        db = make_db(wal=True)
        assert db.wal is not None
        assert db.catalog.has_tablespace("ts_WAL")
        assert make_db().wal is None

    def test_mutations_append_records(self):
        db = make_db(wal=True)
        self.schema_ddl(db)
        table = db.table("t")
        rid, t = table.insert((1, "one"), 0.0)
        rid, t = table.update_columns(rid, {"b": "uno"}, t)
        t = table.delete(rid, t)
        assert db.wal.records_written == 3

    def test_logged_image_is_the_stored_image_encoded_once(self, monkeypatch):
        db = make_db(wal=True)
        self.schema_ddl(db)
        table = db.table("t")
        codec = table.info.heap.codec
        encoded = []
        encode = codec.encode
        monkeypatch.setattr(codec, "encode", lambda row: encoded.append(row) or encode(row))
        rid, t = table.insert((1, "one"), 0.0)
        rid, t = table.update(rid, (1, "uno"), t)  # whole row
        rid, t = table.update_columns(rid, {"b": "eins"}, t)  # rebuilt: CHAR column
        assert encoded == [(1, "one"), (1, "uno"), (1, "eins")]
        rid, t = table.update_columns(rid, {"a": 2}, t)  # patched: no row is encoded
        assert len(encoded) == 3
        stored, t = table.info.heap.read_record(rid, t)
        t = db.wal.flush(t)
        logged = [r.row_bytes for r, __ in db.wal.records()]
        assert logged == [encode(row) for row in [*encoded, (2, "eins")]]
        assert logged[-1] == stored

    def test_replay_reproduces_crashed_database(self):
        rng = random.Random(5)
        source = make_db(wal=True)
        self.schema_ddl(source)
        table = source.table("t")
        t = 0.0
        rids = []
        for i in range(120):
            action = rng.random()
            if action < 0.6 or not rids:
                rid, t = table.insert((i, f"v{i}"), t)
                rids.append(rid)
            elif action < 0.85:
                pick = rng.randrange(len(rids))
                rids[pick], t = table.update_columns(rids[pick], {"b": f"u{i}"}, t)
            else:
                pick = rng.randrange(len(rids))
                t = table.delete(rids.pop(pick), t)
        t = source.wal.flush(t)

        # "restore from backup": a fresh database with the same schema
        target = make_db()
        self.schema_ddl(target)
        applied, t = replay_log(target, source.wal, t)
        assert applied > 0

        source_rows = sorted(row for __, row, ___ in source.table("t").scan(t))
        target_rows = sorted(row for __, row, ___ in target.table("t").scan(t))
        assert source_rows == target_rows
        # indexes rebuilt identically too
        for a in (row[0] for row in source_rows):
            assert target.table("t").lookup("t_a", (a,), t)[0] is not None

    #: sha256 over the replayed database's page images (key, then bytes,
    #: in key order) as the replay built them when it re-encoded every
    #: logged row (commit 1b38de2)
    REPLAYED_IMAGES_SHA256 = "d36e68ab72c37011e9a1f9b8000a7ba6dbc1d50495b8c980aa2c3e02678cd310"

    def test_replay_stores_the_logged_images(self, monkeypatch):
        """INSERT and UPDATE records reach the pages as logged: nothing is
        encoded again, and every page (records that moved included) is the
        image the logged database and the re-encoding replay wrote."""
        schema = Schema([int_col("a"), varchar_col("b", 160)])

        def build():
            db = Database(MemoryBackend(), buffer_pages=8)  # pages are written back mid-run
            db.create_table("t", schema)
            db.create_index("t_a", "t", ["a"], unique=True)
            return db

        rng = random.Random(11)
        source = build()
        source.enable_wal()
        table = source.table("t")
        t, rids, moved = 0.0, {}, 0
        for i in range(300):
            action = rng.random()
            if action < 0.5 or not rids:
                rids[i], t = table.insert((i, "x" * rng.randrange(1, 40)), t)
            elif action < 0.85:
                a = rng.choice(sorted(rids))
                rid = rids[a]
                rids[a], t = table.update(rid, (a, "y" * rng.randrange(1, 160)), t)
                moved += rids[a] != rid
            else:
                t = table.delete(rids.pop(rng.choice(sorted(rids))), t)
        t = source.checkpoint(t)
        assert moved > 0

        target = build()
        codec = target.table("t").info.heap.codec
        monkeypatch.setattr(codec, "encode", lambda row: pytest.fail("replay encoded a row"))
        applied, t = replay_log(target, source.wal, t)
        target.checkpoint(t)
        assert applied == 300
        source_images, target_images = source.backend.images(), target.backend.images()
        assert all(source_images[key] == image for key, image in target_images.items())
        sha = hashlib.sha256()
        for key, image in sorted(target_images.items()):
            sha.update(repr(key).encode())
            sha.update(image)
        assert sha.hexdigest() == self.REPLAYED_IMAGES_SHA256

    def test_unflushed_tail_is_lost(self):
        source = make_db(wal=True)
        self.schema_ddl(source)
        table = source.table("t")
        rid, t = table.insert((1, "durable"), 0.0)
        t = source.wal.flush(t)
        table.insert((2, "lost"), t)  # never flushed

        target = make_db()
        self.schema_ddl(target)
        replay_log(target, source.wal, 0.0)
        rows = [row for __, row, ___ in target.table("t").scan(0.0)]
        assert rows == [(1, "durable")]

    def test_wal_routes_to_placement_region(self):
        db = Database.on_native_flash(
            geometry=tiny_geometry(),
            placement=figure2_placement(8),
            timing=instant_timing(),
            buffer_pages=64,
            wal=True,
        )
        ts = db.catalog.tablespace("ts_WAL")
        assert ts.region == "rgMeta"  # unplaced -> first spec fallback
