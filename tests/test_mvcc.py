"""MVCC snapshot isolation: Retrieves over versioned records.

Readers pin a commit epoch and never block on (or take) class locks;
writers stage logical pre-images that commit atomically at an epoch
bump.  These tests drive the full stack — ``Session`` snapshot
Retrieves over ``MapperStore`` version chains — plus the
``VersionManager`` GC behaviour directly.
"""

import gc
import threading
import time

import pytest

from repro import Database
from repro.engine.access import EntityAccessor
from repro.engine.expressions import ExpressionEvaluator
from repro.engine.sessions import Session
from repro.workloads import UNIVERSITY_DDL
from repro.workloads.generators import populate_scale, scale_schema


@pytest.fixture()
def db():
    database = Database(UNIVERSITY_DDL, constraint_mode="off")
    database.execute('Insert department(dept-nbr := 100, name := "Physics")')
    database.execute('Insert course(course-no := 101, title := "Algebra",'
                     ' credits := 3)')
    database.execute('Insert course(course-no := 102, title := "Calculus",'
                     ' credits := 4)')
    database.execute('Insert student(name := "John Doe",'
                     ' soc-sec-no := 456887766,'
                     ' courses-enrolled := course with (title = "Algebra"))')
    return database


def credits_of(session, title):
    return session.query(
        f'From course Retrieve credits Where title = "{title}"').scalar()


class TestSnapshotReads:
    def test_reader_sees_preimage_of_open_writer(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        # The writer's transaction is open: its new value is invisible.
        assert credits_of(reader, "Algebra") == 3
        writer.commit()
        assert credits_of(reader, "Algebra") == 9

    def test_reader_takes_no_locks_and_never_blocks(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        # Qualified single-class Modify locks at entity granularity now:
        # IX on the class, X on the one matching entity.
        assert writer.holdings() == {"course": "intention-exclusive"}
        assert list(writer.entity_holdings().values()) == ["exclusive"]
        started = time.monotonic()
        assert credits_of(reader, "Algebra") == 3
        assert time.monotonic() - started < 2.0
        assert reader.holdings() == {}
        writer.abort()

    def test_read_your_own_writes(self, db):
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        assert credits_of(writer, "Algebra") == 9
        writer.commit()

    def test_uncommitted_insert_invisible_to_others(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Insert course(course-no := 103, title := "Logic",'
                       ' credits := 2)')
        assert len(reader.query("From course Retrieve title").rows) == 2
        assert len(writer.query("From course Retrieve title").rows) == 3
        writer.commit()
        assert len(reader.query("From course Retrieve title").rows) == 3

    def test_uncommitted_delete_still_visible_to_others(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Delete course Where title = "Calculus"')
        rows = reader.query("From course Retrieve title").rows
        assert sorted(r[0] for r in rows) == ["Algebra", "Calculus"]
        assert credits_of(reader, "Calculus") == 4
        writer.commit()
        rows = reader.query("From course Retrieve title").rows
        assert [r[0] for r in rows] == ["Algebra"]

    def test_aborted_writes_never_visible(self, db):
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.execute('Insert course(course-no := 104, title := "Sets",'
                       ' credits := 1)')
        writer.abort()
        assert credits_of(reader, "Algebra") == 3
        assert credits_of(Session(db), "Algebra") == 3
        assert len(reader.query("From course Retrieve title").rows) == 2

    def test_mv_eva_fanout_snapshot(self, db):
        """Include on an MV EVA stages fanout pre-images on both sides:
        a concurrent reader sees neither the new membership nor the new
        inverse until commit."""
        writer = Session(db)
        reader = Session(db)
        writer.execute('Modify student(courses-enrolled := include course'
                       ' with (title = "Calculus"))'
                       ' Where name = "John Doe"')
        assert reader.query(
            'From student Retrieve count(courses-enrolled) of student'
            ' Where name = "John Doe"').scalar() == 1
        assert reader.query(
            'From course Retrieve count(students-enrolled) of course'
            ' Where title = "Calculus"').scalar() == 0
        # The writer sees its own fanout.
        assert writer.query(
            'From student Retrieve count(courses-enrolled) of student'
            ' Where name = "John Doe"').scalar() == 2
        writer.commit()
        assert reader.query(
            'From course Retrieve count(students-enrolled) of course'
            ' Where title = "Calculus"').scalar() == 1

    def test_snapshot_pins_epoch_across_concurrent_commit(self, db):
        """A snapshot opened before a commit keeps reading the old epoch
        even after the commit lands."""
        from repro.dml.parser import parse_dml
        store = db.store
        store.enable_mvcc()
        query = parse_dml('From course Retrieve credits'
                          ' Where title = "Algebra"')
        snap = store.begin_snapshot(None)
        try:
            writer = Session(db)
            writer.execute('Modify course(credits := 9)'
                           ' Where title = "Algebra"')
            writer.commit()
            with store.snapshot_scope(snap):
                result = db._run_retrieve(
                    query, executor=db._statement_executor())
            assert result.scalar() == 3
        finally:
            store.end_snapshot(snap)
        assert Session(db).query('From course Retrieve credits'
                                 ' Where title = "Algebra"').scalar() == 9


class TestVersionManager:
    def test_commit_bumps_epoch_once_per_transaction(self, db):
        store = db.store
        store.enable_mvcc()
        before = store.versions.statistics()["epoch"]
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.execute('Modify course(credits := 8) Where title = "Calculus"')
        writer.commit()
        after = store.versions.statistics()["epoch"]
        assert after == before + 1

    def test_chains_pruned_when_no_snapshot_is_active(self, db):
        store = db.store
        store.enable_mvcc()
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.commit()
        stats = store.versions.statistics()
        assert stats["active_snapshots"] == 0
        assert stats["chained_keys"] == 0

    def test_chains_retained_while_snapshot_is_pinned(self, db):
        store = db.store
        store.enable_mvcc()
        snap = store.begin_snapshot(None)
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        writer.commit()
        try:
            assert store.versions.statistics()["chained_keys"] > 0
            with store.snapshot_scope(snap):
                pass
        finally:
            store.end_snapshot(snap)
        # Releasing the last snapshot lets the next commit GC the chain.
        writer.execute('Modify course(credits := 7) Where title = "Algebra"')
        writer.commit()
        assert store.versions.statistics()["chained_keys"] == 0

    def test_reader_under_parallel_morsels_sees_snapshot(self, db):
        """Snapshot scope propagates to morsel worker threads."""
        for i in range(20):
            db.execute(f'Insert course(course-no := {200 + i},'
                       f' title := "C{i}", credits := 1)')
        db.executor.parallelism = 4
        writer = Session(db)
        reader = Session(db)
        writer.execute("Modify course(credits := 15) Where credits = 1")
        rows = reader.query("From course Retrieve credits"
                            " Where credits = 1").rows
        assert len(rows) == 20
        writer.commit()
        rows = reader.query("From course Retrieve credits"
                            " Where credits = 1").rows
        assert rows == []


class TestSnapshotReadPath:
    def test_fetch_many_probes_versions_twice_per_surrogate(self):
        """One pre/post version lookup pair brackets each record read;
        the role RID inside it is read physically, under the same key."""
        db = Database(scale_schema(3))
        surrogates = populate_scale(db, 200, chain_depth=3, seed=5)["tier2"]
        store = db.store
        store.read_cache.clear()
        lookup = store.versions.lookup
        calls = []

        def counting_lookup(snap, key):
            calls.append(key)
            return lookup(snap, key)

        store.versions.lookup = counting_lookup
        snap = store.begin_snapshot(None)
        try:
            with store.snapshot_scope(snap):
                records = store.fetch_many("tier2", surrogates)
        finally:
            store.end_snapshot(snap)
            del store.versions.lookup
        assert len(calls) == 2 * len(surrogates)
        expected = db.execute("From tier2 Retrieve key2, load2").rows
        got = [(values["key2"], values["load2"])
               for _, values in records.values()]
        assert sorted(got) == sorted(expected)

    def test_statement_memo_freed_without_collector(self, db):
        """A snapshot Retrieve's private executor state (accessor, memo,
        evaluator) is freed by reference counting when the statement
        ends, not left in a cycle for the garbage collector."""
        reader = Session(db)
        reader.query("From student Retrieve name")
        watched = (EntityAccessor, ExpressionEvaluator)
        gc.collect()
        before = [obj for obj in gc.get_objects()
                  if isinstance(obj, watched)]
        known = {id(obj) for obj in before}
        gc.disable()
        try:
            rows = reader.execute(
                "From student Retrieve name,"
                " sum(credits of courses-enrolled)").rows
            leaked = [obj for obj in gc.get_objects()
                      if isinstance(obj, watched) and id(obj) not in known]
        finally:
            gc.enable()
        assert rows == [("John Doe", 3)]
        assert leaked == []


class TestMixedWorkload:
    def test_many_readers_one_writer_no_blocking(self, db):
        """Eight snapshot readers run to completion while a writer holds
        the course class exclusively the whole time."""
        writer = Session(db)
        writer.execute('Modify course(credits := 9) Where title = "Algebra"')
        observed = []
        errors = []

        def read(_i):
            try:
                session = Session(db)
                observed.append(credits_of(session, "Algebra"))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert observed == [3] * 8
        writer.commit()
        assert credits_of(Session(db), "Algebra") == 9
