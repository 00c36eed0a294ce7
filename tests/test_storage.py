"""Storage substrate tests: disk, buffer pool, record files."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BufferPool, Disk, RecordFile, RecordFormat, RID
from repro.storage.faults import FaultInjector


def make_file(pool_capacity=16, block_size=256):
    disk = Disk()
    pool = BufferPool(disk, pool_capacity)
    record_file = RecordFile(1, "test", pool, block_size)
    record_file.register_format(RecordFormat(1, "row", {"k": 6, "v": 20}))
    return disk, pool, record_file


class TestBufferPool:
    def test_miss_then_hit(self):
        disk = Disk()
        pool = BufferPool(disk, 4)
        pool.get(1, 0)
        assert pool.stats.physical_reads == 1
        pool.get(1, 0)
        assert pool.stats.logical_reads == 2
        assert pool.stats.physical_reads == 1

    def test_lru_eviction_writes_back_dirty(self):
        disk = Disk()
        pool = BufferPool(disk, 2)
        block = pool.get(1, 0)
        block.slots.append((1, {"x": 1}))
        pool.mark_dirty(1, 0)
        pool.get(1, 1)
        pool.get(1, 2)  # evicts block 0 (dirty) -> physical write
        assert pool.stats.physical_writes == 1
        # Re-reading block 0 must see the written data.
        fetched = pool.get(1, 0)
        assert fetched.slots == [(1, {"x": 1})]

    def test_lru_order_respects_access(self):
        disk = Disk()
        pool = BufferPool(disk, 2)
        pool.get(1, 0)
        pool.get(1, 1)
        pool.get(1, 0)      # touch 0: 1 is now the LRU victim
        pool.get(1, 2)
        assert pool.resident_blocks == 2
        pool.get(1, 0)      # still resident -> no extra physical read
        assert pool.stats.physical_reads == 3

    def test_invalidate_forces_cold_reads(self):
        disk = Disk()
        pool = BufferPool(disk, 8)
        pool.get(1, 0)
        pool.invalidate()
        pool.get(1, 0)
        assert pool.stats.physical_reads == 2

    def test_dirty_unresident_rejected(self):
        pool = BufferPool(Disk(), 2)
        with pytest.raises(StorageError):
            pool.mark_dirty(9, 9)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(Disk(), 0)

    def test_stats_delta(self):
        pool = BufferPool(Disk(), 2)
        before = pool.stats.snapshot()
        pool.get(1, 0)
        delta = pool.stats.delta(before)
        assert (delta.logical_reads, delta.physical_reads) == (1, 1)


class TestRecordFile:
    def test_insert_read_roundtrip(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "hello"})
        fmt, values = record_file.read(rid)
        assert fmt == 1 and values == {"k": 1, "v": "hello"}

    def test_blocking_factor(self):
        _, _, record_file = make_file(block_size=256)
        # width = 4 header + 26 = 30 -> 8 records per 256-byte block
        assert record_file.blocking_factor(1) == 8

    def test_records_fill_blocks(self):
        _, _, record_file = make_file(block_size=256)
        for i in range(20):
            record_file.insert(1, {"k": i, "v": str(i)})
        assert record_file.block_count == 3   # ceil(20 / 8)
        assert record_file.record_count == 20

    def test_update_in_place(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "a"})
        record_file.update(rid, {"v": "b"})
        assert record_file.read(rid)[1]["v"] == "b"

    def test_update_unknown_field(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "a"})
        with pytest.raises(StorageError):
            record_file.update(rid, {"ghost": 1})

    def test_delete_and_undelete_same_rid(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "a"})
        values = record_file.delete(rid)
        assert not record_file.exists(rid)
        record_file.undelete(rid, 1, values)
        assert record_file.read(rid)[1]["v"] == "a"

    def test_undelete_occupied_slot_rejected(self):
        _, _, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "a"})
        with pytest.raises(StorageError):
            record_file.undelete(rid, 1, {"k": 2, "v": "b"})

    def test_deleted_space_reused(self):
        _, _, record_file = make_file(block_size=256)
        rids = [record_file.insert(1, {"k": i, "v": ""}) for i in range(8)]
        record_file.delete(rids[0])
        rid = record_file.insert(1, {"k": 99, "v": ""})
        assert rid.block == 0  # went into the freed space

    def test_clustered_insert_lands_near_anchor(self):
        _, _, record_file = make_file(block_size=256)
        anchor = record_file.insert(1, {"k": 0, "v": "anchor"})
        # Fill block 0 completely, spill into block 1, then free a slot in
        # block 0: a clustered insert should return there, an ordinary
        # insert prefers the tail block.
        fillers = [record_file.insert(1, {"k": i + 1, "v": "filler"})
                   for i in range(10)]
        record_file.delete(fillers[0])
        plain = record_file.insert(1, {"k": 99, "v": "plain"})
        assert plain.block != anchor.block
        rid = record_file.insert(1, {"k": 100, "v": "x"}, near=anchor)
        assert rid.block == anchor.block

    def test_clustering_falls_back_when_block_full(self):
        _, _, record_file = make_file(block_size=256)
        anchor = record_file.insert(1, {"k": 0, "v": ""})
        for i in range(7):
            record_file.insert(1, {"k": i, "v": ""})
        rid = record_file.insert(1, {"k": 100, "v": ""}, near=anchor)
        assert rid.block != anchor.block

    def test_scan_by_format(self):
        _, _, record_file = make_file()
        record_file.register_format(RecordFormat(2, "other", {"z": 8}))
        record_file.insert(1, {"k": 1, "v": "a"})
        record_file.insert(2, {"z": 9})
        record_file.insert(1, {"k": 2, "v": "b"})
        only_rows = [values for _, _, values in record_file.scan(1)]
        assert [row["k"] for row in only_rows] == [1, 2]
        everything = list(record_file.scan())
        assert len(everything) == 3

    def test_read_after_eviction_durable(self):
        disk, pool, record_file = make_file(pool_capacity=1, block_size=256)
        rids = [record_file.insert(1, {"k": i, "v": str(i)})
                for i in range(30)]
        pool.flush()
        for i, rid in enumerate(rids):
            assert record_file.read(rid)[1]["k"] == i

    def test_oversized_format_rejected(self):
        _, _, record_file = make_file(block_size=256)
        with pytest.raises(StorageError):
            record_file.register_format(RecordFormat(9, "big", {"x": 500}))

    def test_missing_record(self):
        _, _, record_file = make_file()
        with pytest.raises(StorageError):
            record_file.read(RID(0, 0))


class TestDeviceBoundary:
    """A buffered block and its disk image share slot entries but never
    a slot list: nothing written through the pool reaches the device
    before a flush, and nothing done to a block handed out by the device
    reaches its stored image."""

    def test_record_mutations_stay_off_disk_until_flush(self):
        disk, pool, record_file = make_file(pool_capacity=16)
        rids = [record_file.insert(1, {"k": i, "v": str(i)})
                for i in range(12)]
        record_file.delete(rids[3])
        pool.flush()
        flushed = disk.fingerprint()

        record_file.insert(1, {"k": 99, "v": "new"})
        assert disk.fingerprint() == flushed
        record_file.update(rids[0], {"v": "changed"})
        assert disk.fingerprint() == flushed
        record_file.delete(rids[1])
        assert disk.fingerprint() == flushed
        record_file.undelete(rids[3], 1, {"k": 3, "v": "back"})
        assert disk.fingerprint() == flushed

        pool.flush()
        assert disk.fingerprint() != flushed
        pool.invalidate()
        assert record_file.read(rids[0])[1] == {"k": 0, "v": "changed"}
        assert not record_file.exists(rids[1])
        assert record_file.read(rids[3])[1] == {"k": 3, "v": "back"}

    def test_mutating_a_read_block_leaves_the_image(self):
        disk = Disk()
        block = disk.read(1, 0)
        block.slots.append((1, {"x": 1}))
        block.used = 10
        disk.write(1, 0, block)
        stored = disk.fingerprint()

        fetched = disk.read(1, 0)
        fetched.slots.append((1, {"x": 2}))
        fetched.slots[0] = None
        fetched.used = 999
        assert disk.fingerprint() == stored
        assert disk.read(1, 0).slots == [(1, {"x": 1})]
        assert disk.read(1, 0).used == 10

    def test_read_and_scan_return_private_copies(self):
        disk, pool, record_file = make_file()
        rid = record_file.insert(1, {"k": 1, "v": "a"})
        pool.flush()
        stored = disk.fingerprint()

        _, values = record_file.read(rid)
        values["v"] = "mutated"
        for _, _, scanned in record_file.scan():
            scanned["v"] = "mutated"
            scanned["extra"] = 1
        assert record_file.read(rid)[1] == {"k": 1, "v": "a"}
        assert disk.fingerprint() == stored

    def test_torn_image_does_not_alias_the_buffered_block(self):
        disk, pool, record_file = make_file()
        for i in range(6):
            record_file.insert(1, {"k": i, "v": str(i)})
        block = pool.get(record_file.file_id, 0)
        injector = FaultInjector(seed=1)
        injector.torn_write(1, keep=0.5)
        torn = injector.on_write(record_file.file_id, 0, block)
        assert torn is not block and torn.slots is not block.slots
        assert torn.slots == block.slots[:3]
        torn.slots.append(None)
        assert len(block.slots) == 6
        block.slots.append(None)
        assert len(torn.slots) == 4


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)),
                min_size=1, max_size=60))
def test_file_matches_dict_model(operations):
    """Property: a RecordFile behaves like a dict under insert / delete /
    update, regardless of block boundaries and buffer pressure."""
    _, pool, record_file = make_file(pool_capacity=2, block_size=128)
    model = {}
    rids = {}
    for op, key in operations:
        if op == 0:  # insert (overwrite model entry under fresh rid)
            if key in rids:
                continue
            rids[key] = record_file.insert(1, {"k": key, "v": str(key)})
            model[key] = str(key)
        elif op == 1 and key in rids:  # delete
            record_file.delete(rids.pop(key))
            model.pop(key)
        elif op == 2 and key in rids:  # update
            record_file.update(rids[key], {"v": f"u{key}"})
            model[key] = f"u{key}"
    seen = {values["k"]: values["v"]
            for _, _, values in record_file.scan(1)}
    assert seen == model
