"""The Mapper runtime: entities, roles, attributes and relationships.

This is the operational half of the LUC Mapper (paper §5.1): it owns the
storage files built from a :class:`~repro.mapper.physical.PhysicalDesign`,
hands out surrogates, and implements the record-level operations the
engine uses — with *structural integrity* maintained here, exactly as the
paper assigns it: "when a record of a superclass LUC is deleted, the
Mapper will automatically delete corresponding subclass records and delete
instances of all EVAs the deleted records participate in."

All mutations register undo closures with the transaction manager, so a
statement or transaction abort restores records and indexes alike.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CatalogError, IntegrityError, UniquenessViolation
from repro.mapper.history import HistoryJournal
from repro.mapper.luc import LUCSchema
from repro.mapper.materialized import MaterializationManager
from repro.mapper.read_cache import MISSING, ReadCache
from repro.mapper.physical import EvaMapping, MvDvaMapping, PhysicalDesign
from repro.mapper.writes import ReadCacheSubscriber, WriteNotifier
from repro.mapper.translate import canonical_eva, translate_schema
from repro.mapper.versions import ABSENT, VersionManager
from repro.naming import canon
from repro.perf import PerfCounters
from repro.storage.latch import ranked_lock
from repro.schema.attribute import EntityValuedAttribute
from repro.schema.schema import Schema
from repro.storage.buffer import BufferPool, Disk
from repro.storage.faults import FaultInjector, RetryPolicy
from repro.storage.files import RecordFile
from repro.storage.index import HashIndex, make_index
from repro.storage.records import RID, RecordFormat, field_width_for_type
from repro.storage.transactions import TransactionManager
from repro.storage.wal import WriteAheadLog, undo_losers
from repro.types.tvl import NULL, is_null

_POINTER_WIDTH = 12
_SURROGATE_WIDTH = 6

#: returned by ``_staging_txn`` when pre-image staging must be skipped
#: (MVCC off, or the mutation is undo compensation during rollback)
_STAGE_SKIP = object()


def _in_range(value, low, high, include_low: bool, include_high: bool) -> bool:
    """Range-predicate semantics of the ordered-index path: NULL never
    matches; open bounds are None."""
    if is_null(value):
        return False
    if low is not None:
        if value < low or (value == low and not include_low):
            return False
    if high is not None:
        if value > high or (value == high and not include_high):
            return False
    return True


class _EvaInfo:
    """Runtime bookkeeping for one canonical EVA pair."""

    def __init__(self, canonical: EntityValuedAttribute, rel_id: int,
                 mapping: EvaMapping):
        self.canonical = canonical
        self.rel_id = rel_id
        self.mapping = mapping
        self.instance_count = 0
        # COMMON / DEDICATED / CLUSTERED:
        self.file: Optional[RecordFile] = None
        self.format_id: Optional[int] = None
        self.forward: Optional[HashIndex] = None   # surr1 -> rel-record RIDs
        self.reverse: Optional[HashIndex] = None   # surr2 -> rel-record RIDs
        # FOREIGN_KEY:
        self.fk_field: Optional[str] = None
        #: the EVA side whose owner record holds the key (the single-valued
        #: side; the canonical side for 1:1 pairs)
        self.fk_eva: Optional[EntityValuedAttribute] = None
        self.fk_reverse: Optional[HashIndex] = None  # target surr -> holder RID
        # POINTER:
        self.ptr_field: Optional[str] = None
        self.ptr_reverse: Optional[HashIndex] = None  # target surr -> owner surr

    @property
    def self_inverse(self) -> bool:
        return self.canonical.inverse is self.canonical


class MapperStore:
    """Entity-level storage over the block substrate.

    Parameters
    ----------
    schema:
        a resolved :class:`~repro.schema.schema.Schema`.
    design:
        a :class:`PhysicalDesign`; defaults to the paper's default rules.
    """

    def __init__(self, schema: Schema, design: Optional[PhysicalDesign] = None):
        if not schema.resolved:
            raise CatalogError("MapperStore needs a resolved schema")
        self.schema = schema
        self.design = design or PhysicalDesign(schema).finalize()
        self.luc_schema: LUCSchema = translate_schema(schema)
        self.disk = Disk()
        self.wal = WriteAheadLog()
        self.pool = BufferPool(self.disk, self.design.pool_capacity)
        self.pool.wal = self.wal
        self.transactions = TransactionManager(self.pool, wal=self.wal)
        #: read-path counters shared with the engine and the optimizer
        self.perf = PerfCounters()
        #: bounded retry-with-backoff for transient device faults; applied
        #: to every buffer-pool disk access, WAL force, and recovery I/O
        self.retry = RetryPolicy(perf=self.perf)
        self.pool.retry = self.retry
        self.wal.retry = self.retry
        #: optional fault injector (see install_faults)
        self.faults: Optional[FaultInjector] = None
        #: optional trace recorder (see repro.trace.attach_tracing); None
        #: by default so the hot-path guard is a single identity test
        self.trace = None
        #: decoded-record / role / EVA fan-out caches (see read_cache.py)
        self.read_cache = ReadCache(self.perf)
        #: the single write-event publication point (writes.py): every
        #: mutation is announced once and fanned out to the read cache,
        #: materializations, and any other registered subscriber.
        self.writes = WriteNotifier()
        self.writes.subscribe(ReadCacheSubscriber(self.read_cache))
        #: named materialized derived relations; attached lazily by the
        #: first declaration so undeclared stores pay one None test
        self.materialized: Optional[MaterializationManager] = None
        # Rollback surgery (abort or statement-level rollback_to) restores
        # state through raw file/index operations; the hook guarantees no
        # cached or materialized state survives it.
        self.transactions.invalidation_hooks.append(self.writes.rollback)
        #: MVCC version chains backing snapshot Retrieves (versions.py);
        #: staging stays off — zero overhead, zero extra I/O — until a
        #: Session calls enable_mvcc()
        self.versions = VersionManager()
        self.transactions.commit_hooks.append(self.versions.commit)
        self.transactions.abort_hooks.append(self.versions.abort)
        #: the commit critical section (rank 36): Session.commit takes
        #: this latch around commit_detached so the MVCC epoch bump
        #: (versions.commit), the data-page flush, and the WAL commit
        #: record publish atomically with respect to other commits.
        #: Statement execution does NOT take it — physical safety there
        #: comes from per-unit latches (``RecordFile.latch``, rank 42)
        #: held per mutating operation, plus the session lock protocol:
        #: statements whose unit sets could overlap hold conflicting
        #: class/entity locks and never run concurrently.
        self.commit_latch = ranked_lock("store.commit_latch")
        #: guards the surrogate counter (rank 38): concurrent inserts to
        #: unrelated classes are otherwise free to race the allocator.
        self._surrogate_mutex = ranked_lock("store.surrogates")
        # this thread's pinned Snapshot, if a snapshot Retrieve is running
        self._snapshots = threading.local()

        self._file_counter = 0
        self._format_counter = 0
        self._files: Dict[str, RecordFile] = {}

        self._class_file: Dict[str, RecordFile] = {}
        self._class_format: Dict[str, int] = {}
        self._surrogate_index: Dict[str, object] = {}
        self._unique_index: Dict[Tuple[str, str], HashIndex] = {}
        self._value_index: Dict[Tuple[str, str], HashIndex] = {}

        self._mvdva_file: Dict[Tuple[str, str], RecordFile] = {}
        self._mvdva_format: Dict[Tuple[str, str], int] = {}
        self._mvdva_index: Dict[Tuple[str, str], HashIndex] = {}
        self._mvdva_seq: Dict[Tuple[str, str, int], int] = {}

        self._eva_info: Dict[Tuple[str, str], _EvaInfo] = {}
        self._common_file: Optional[RecordFile] = None
        self._common_format: Optional[int] = None

        self._next_surrogate = 1
        self._rel_counter = 0
        #: optional temporal change journal (paper §6); see enable_history
        self.history: Optional[HistoryJournal] = None

        self._build_layout()

    # ------------------------------------------------------------------ layout

    def _new_file(self, name: str) -> RecordFile:
        self._file_counter += 1
        record_file = RecordFile(self._file_counter, name, self.pool,
                                 self.design.block_size)
        record_file.wal = self.wal
        record_file.txn_context = self.transactions.txn_context
        self._files[name] = record_file
        return record_file

    def _new_format(self, record_file: RecordFile, name: str,
                    fields: Dict[str, int]) -> int:
        self._format_counter += 1
        record_file.register_format(
            RecordFormat(self._format_counter, name, fields))
        return self._format_counter

    def _build_layout(self) -> None:
        # Storage units for classes.
        for base in self.schema.base_classes():
            shared_name = f"unit--{base.name}"
            shared_file = None
            for class_name in [base.name] + self.schema.graph.descendants(base.name):
                sim_class = self.schema.get_class(class_name)
                if self.design.class_in_shared_unit(class_name):
                    if shared_file is None:
                        shared_file = self._new_file(shared_name)
                    self._class_file[class_name] = shared_file
                else:
                    self._class_file[class_name] = self._new_file(
                        f"unit--{class_name}")

        # Record formats, MV DVA units, and per-class indexes.
        for sim_class in self.schema.classes():
            class_name = sim_class.name
            fields = {"surrogate": _SURROGATE_WIDTH}
            for attr in sim_class.immediate_attributes.values():
                if attr.is_eva or attr.is_subrole or attr.is_surrogate:
                    continue
                if attr.single_valued:
                    fields[attr.name] = field_width_for_type(attr.data_type)
                elif self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY:
                    elem = field_width_for_type(attr.data_type)
                    fields[attr.name] = elem * attr.options.max_cardinality
                else:
                    self._build_mvdva_unit(class_name, attr)
            # Foreign-key / pointer fields are added when EVAs are laid
            # out below, so the format is registered afterwards.
            sim_class._scratch_fields = fields

        # EVA structures (may add fields to class formats).
        seen = set()
        for sim_class in self.schema.classes():
            for eva in sim_class.immediate_evas():
                canonical = canonical_eva(eva)
                key = (canonical.owner_name, canonical.name)
                if key in seen:
                    continue
                seen.add(key)
                self._build_eva(canonical)

        # Now freeze class formats and create indexes.
        for sim_class in self.schema.classes():
            class_name = sim_class.name
            record_file = self._class_file[class_name]
            format_id = self._new_format(
                record_file, f"rec--{class_name}", sim_class._scratch_fields)
            self._class_format[class_name] = format_id
            del sim_class._scratch_fields

            kind = self.design.surrogate_key_kind.value
            self._surrogate_index[class_name] = make_index(
                kind if kind != "direct" else "direct",
                f"surr--{class_name}", unique=True)

            for attr in sim_class.immediate_attributes.values():
                if attr.is_eva or attr.is_subrole or attr.is_surrogate:
                    continue
                if attr.options.unique:
                    self._unique_index[(class_name, attr.name)] = HashIndex(
                        f"uniq--{class_name}--{attr.name}", unique=True)
        for class_name, attr_name in self.design.value_indexes():
            if (class_name, attr_name) not in self._unique_index:
                self._value_index[(class_name, attr_name)] = make_index(
                    self.design.value_index_kind(class_name, attr_name),
                    f"val--{class_name}--{attr_name}")

    def _build_mvdva_unit(self, class_name: str, attr) -> None:
        key = (class_name, attr.name)
        record_file = self._new_file(f"mv--{class_name}--{attr.name}")
        fields = {
            "owner": _SURROGATE_WIDTH,
            "seq": 4,
            "value": field_width_for_type(attr.data_type),
        }
        self._mvdva_file[key] = record_file
        self._mvdva_format[key] = self._new_format(
            record_file, f"mvrec--{class_name}--{attr.name}", fields)
        self._mvdva_index[key] = HashIndex(f"mvidx--{class_name}--{attr.name}")

    def _build_eva(self, canonical: EntityValuedAttribute) -> None:
        mapping = self.design.eva_mapping(canonical)
        self._rel_counter += 1
        info = _EvaInfo(canonical, self._rel_counter, mapping)
        owner_class = self.schema.get_class(canonical.owner_name)

        if mapping is EvaMapping.FOREIGN_KEY:
            # The key lives on a single-valued side (§5.2: 1:1 EVAs map to
            # foreign keys; a many:1 side may be chosen by override).
            holder = (canonical if canonical.single_valued
                      else canonical.inverse)
            info.fk_eva = holder
            info.fk_field = f"fk--{holder.name}"
            holder_class = self.schema.get_class(holder.owner_name)
            holder_class._scratch_fields[info.fk_field] = _SURROGATE_WIDTH
            info.fk_reverse = HashIndex(
                f"fkrev--{holder.owner_name}--{holder.name}")
        elif mapping is EvaMapping.POINTER:
            info.ptr_field = f"ptr--{canonical.name}"
            slots = canonical.options.max_cardinality or 8
            width = _POINTER_WIDTH * (slots if canonical.multi_valued else 1)
            owner_class._scratch_fields[info.ptr_field] = width
            info.ptr_reverse = HashIndex(
                f"ptrrev--{canonical.owner_name}--{canonical.name}")
        else:
            rel_fields = {"surr1": _SURROGATE_WIDTH, "rel": 2,
                          "surr2": _SURROGATE_WIDTH}
            if mapping is EvaMapping.COMMON:
                if self._common_file is None:
                    self._common_file = self._new_file("common-eva-structure")
                    self._common_format = self._new_format(
                        self._common_file, "common-eva", rel_fields)
                info.file = self._common_file
                info.format_id = self._common_format
            elif mapping is EvaMapping.DEDICATED:
                info.file = self._new_file(
                    f"eva--{canonical.owner_name}--{canonical.name}")
                info.format_id = self._new_format(info.file, "eva", rel_fields)
            elif mapping is EvaMapping.CLUSTERED:
                # Relationship records live in the domain class's own unit,
                # placed next to the domain entity's record; the unit holds
                # back part of each block so late-arriving relationship
                # records still fit next to their anchors.
                info.file = self._class_file[canonical.owner_name]
                info.file.cluster_reserve = max(info.file.cluster_reserve,
                                                0.35)
                info.format_id = self._new_format(
                    info.file, f"eva--{canonical.name}", rel_fields)
            prefix = f"{canonical.owner_name}--{canonical.name}"
            info.forward = HashIndex(f"fwd--{prefix}")
            info.reverse = HashIndex(f"rev--{prefix}")

        self._eva_info[(canonical.owner_name, canonical.name)] = info

    # ------------------------------------------------------------- identities

    def new_surrogate(self) -> int:
        """Allocate the next system surrogate (unique, never reused)."""
        with self._surrogate_mutex:
            surrogate = self._next_surrogate
            self._next_surrogate += 1
        self.transactions.record_undo(lambda: None)
        return surrogate

    def eva_info(self, eva: EntityValuedAttribute) -> _EvaInfo:
        canonical = canonical_eva(eva)
        return self._eva_info[(canonical.owner_name, canonical.name)]

    def class_file(self, class_name: str) -> RecordFile:
        return self._class_file[canon(class_name)]

    def enable_history(self) -> HistoryJournal:
        """Turn on the temporal change journal (paper §6)."""
        if self.history is None:
            self.history = HistoryJournal()
        return self.history

    # ---------------------------------------------------------- MVCC snapshots

    def enable_mvcc(self) -> None:
        """Start staging pre-images on every mutation so snapshot
        Retrieves can run lock-free.  One-way: turned on by the first
        MVCC :class:`~repro.engine.sessions.Session` on this store."""
        self.versions.enabled = True

    def begin_snapshot(self, txn_id: Optional[int] = None):
        """Pin a read view at the current commit epoch (enables MVCC on
        first use).  ``txn_id`` is the reader's own open transaction, so
        it sees its uncommitted writes."""
        self.enable_mvcc()
        return self.versions.begin_snapshot(txn_id)

    def end_snapshot(self, snap) -> None:
        self.versions.end_snapshot(snap)

    def current_snapshot(self):
        """The Snapshot pinned on this thread, or None (physical reads)."""
        return getattr(self._snapshots, "snap", None)

    @contextmanager
    def snapshot_scope(self, snap):
        """Route this thread's reads through ``snap`` for the duration of
        the block (nestable; morsel workers re-enter the query's scope)."""
        previous = getattr(self._snapshots, "snap", None)
        self._snapshots.snap = snap
        try:
            yield snap
        finally:
            self._snapshots.snap = previous

    # -- pre-image staging (writer side) -----------------------------------------
    #
    # Every mutator stages the logical read unit it is about to change
    # BEFORE touching it.  That ordering is what makes the lock-free
    # reader's double-check protocol sound: probe versions, read
    # physical, re-probe — a concurrent mutation is always visible to
    # the second probe.

    def _staging_txn(self):
        """The transaction id to stage under, or ``_STAGE_SKIP``.

        Skipped when MVCC is off, and during rollback: undo compensation
        restores exactly the physical state the pending pre-images
        describe, so staging it would be circular."""
        if not self.versions.enabled:
            return _STAGE_SKIP
        txn_id, rolling_back = self.transactions.txn_context()
        if rolling_back:
            return _STAGE_SKIP
        return txn_id

    def _stage_record(self, class_name: str, surrogate: int) -> None:
        txn_id = self._staging_txn()
        if txn_id is _STAGE_SKIP:
            return
        key = ("rec", class_name, surrogate)
        if self.versions.is_staged(key):
            return
        rid = self._surrogate_index[class_name].lookup_one(surrogate)
        if rid is None:
            pre = ABSENT
        else:
            _, values = self._class_file[class_name].read(rid)
            pre = (rid, dict(values))
        self.versions.stage(txn_id, key, pre, class_name)

    def _stage_member(self, class_name: str, surrogate: int,
                      adding: bool) -> None:
        txn_id = self._staging_txn()
        if txn_id is _STAGE_SKIP:
            return
        self.versions.stage_member(txn_id, class_name, surrogate, adding)

    def _stage_mv(self, class_name: str, attr_name: str,
                  surrogate: int) -> None:
        txn_id = self._staging_txn()
        if txn_id is _STAGE_SKIP:
            return
        key = ("mv", class_name, attr_name, surrogate)
        if self.versions.is_staged(key):
            return
        pre = tuple(self._mvdva_values_physical(surrogate, class_name,
                                                attr_name))
        self.versions.stage(txn_id, key, pre, class_name)

    def _stage_fan(self, info: _EvaInfo, domain_surr: int,
                   range_surr: int) -> None:
        """Stage the fan-out pre-images an include/exclude is about to
        change — one key per affected (side, surrogate)."""
        txn_id = self._staging_txn()
        if txn_id is _STAGE_SKIP:
            return
        canonical = info.canonical
        if info.self_inverse:
            # Self-inverse EVAs serve both directions from one cache side.
            for surr in {domain_surr, range_surr}:
                self._stage_one_fan(txn_id, info, True, surr,
                                    canonical.owner_name)
            return
        self._stage_one_fan(txn_id, info, True, domain_surr,
                            canonical.owner_name)
        self._stage_one_fan(txn_id, info, False, range_surr,
                            canonical.range_class_name)

    def _stage_one_fan(self, txn_id, info: _EvaInfo, side: bool,
                       surrogate: int, class_name: str) -> None:
        key = ("fan", info.rel_id, side, surrogate)
        if self.versions.is_staged(key):
            return
        try:
            if info.self_inverse:
                pre = tuple(self._traverse(info, surrogate, forward=True)
                            + self._traverse(info, surrogate, forward=False))
            else:
                pre = tuple(self._traverse(info, surrogate, forward=side))
        except IntegrityError:
            # The entity has no record on the side that holds the key
            # (e.g. EXCLUDE against a missing role): its fan cannot
            # change, so there is nothing to stage.
            return
        self.versions.stage(txn_id, key, pre, class_name)

    # ------------------------------------------------------------------- roles

    def has_role(self, surrogate: int, class_name: str) -> bool:
        return self._role_rid(surrogate, canon(class_name)) is not None

    def _role_rid(self, surrogate: int, class_name: str):
        """RID of the entity's role record (None when the role is absent),
        through the role cache.  ``class_name`` must be canonical."""
        snap = self.current_snapshot()
        if snap is not None:
            return self._role_rid_snapshot(snap, surrogate, class_name)
        rid = self.read_cache.get_role(class_name, surrogate)
        if rid is not MISSING:
            return rid
        rid = self._surrogate_index[class_name].lookup_one(surrogate)
        self.read_cache.put_role(class_name, surrogate, rid)
        return rid

    def _role_rid_snapshot(self, snap, surrogate: int, class_name: str):
        """Snapshot-correct role RID, lock-free.  The shared cache may be
        read (a version miss proves physical state IS snapshot state) but
        never written — a snapshot result must not outlive its epoch in a
        cache writers invalidate by physical state."""
        key = ("rec", class_name, surrogate)
        versions = self.versions
        hit, pre = versions.lookup(snap, key)
        if not hit:
            rid = error = None
            try:
                rid = self._physical_role_rid(surrogate, class_name)
            except Exception as exc:    # racing writer reshaped the index
                error = exc
            hit, pre = versions.lookup(snap, key)
            if not hit:
                if error is not None:
                    raise error
                return rid
        return None if pre is ABSENT else pre[0]

    def _physical_role_rid(self, surrogate: int, class_name: str):
        """The role RID as physically stored (read cache, else surrogate
        index), leaving the cache unwritten.  Snapshot readers call it
        between version lookups on ``("rec", class_name, surrogate)``."""
        rid = self.read_cache.get_role(class_name, surrogate)
        if rid is MISSING:
            rid = self._surrogate_index[class_name].lookup_one(surrogate)
        return rid

    def roles_of(self, surrogate: int, base_class: str) -> List[str]:
        """All classes in the hierarchy where the entity currently has a
        record, superclasses first."""
        base = canon(base_class)
        names = [base] + self.schema.graph.descendants(base)
        return [n for n in names if self.has_role(surrogate, n)]

    def add_role(self, surrogate: int, class_name: str,
                 values: Optional[Dict[str, object]] = None) -> RID:
        """Create the entity's record in ``class_name``'s LUC.

        ``values`` maps *immediate* single-valued DVA names (and array MV
        DVAs, as tuples) to values; unset fields are null.  Superclass
        roles must already exist (the engine inserts them in topological
        order).
        """
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        if self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} already has role {class_name!r}")
        for super_name in sim_class.superclass_names:
            if not self.has_role(surrogate, super_name):
                raise IntegrityError(
                    f"entity {surrogate} lacks superclass role {super_name!r}")
        self._stage_record(class_name, surrogate)   # pre-image: ABSENT
        self._stage_member(class_name, surrogate, adding=True)

        record_file = self._class_file[class_name]
        format_id = self._class_format[class_name]
        record = {name: NULL
                  for name in record_file.formats[format_id].fields}
        record["surrogate"] = surrogate
        for attr_name, value in (values or {}).items():
            attr_name = canon(attr_name)
            if attr_name not in record:
                raise CatalogError(
                    f"{class_name!r} record has no field {attr_name!r}")
            record[attr_name] = value

        near = self._cluster_anchor(surrogate, sim_class)
        with record_file.latch:
            rid = record_file.insert(format_id, record, near=near)
            index = self._surrogate_index[class_name]
            index.insert(surrogate, rid)
            # The role check above cached a negative membership; drop it
            # now, before the unique-index checks below can raise.
            self.writes.role_changed(class_name, surrogate)
            if self.history is not None:
                self.history.record_role(surrogate, class_name,
                                         acquired=True)
                # Initial DVA values arrive with the role record, not
                # through write_dva; journal them as NULL -> value.
                for field_name, value in (values or {}).items():
                    if field_name.startswith(("fk--", "ptr--")):
                        continue
                    if not is_null(value):
                        self.history.record_set(surrogate,
                                                canon(field_name),
                                                NULL, value)

            for (cls, attr_name), unique_index in self._unique_index.items():
                if cls != class_name:
                    continue
                value = record.get(attr_name)
                if not is_null(value):
                    self._unique_insert(unique_index, value, rid,
                                        class_name, attr_name)
            for (cls, attr_name), value_index in self._value_index.items():
                if cls != class_name:
                    continue
                value = record.get(attr_name)
                if not is_null(value):
                    value_index.insert(value, rid)

        def undo():
            self._drop_role_record(surrogate, class_name)
        self.transactions.record_undo(undo)
        return rid

    def _cluster_anchor(self, surrogate: int, sim_class) -> Optional[RID]:
        """When the class shares a unit with its superclass chain, place the
        new role record next to the entity's nearest existing record."""
        record_file = self._class_file[sim_class.name]
        current = sim_class
        while current.superclass_names:
            parent = self.schema.get_class(current.superclass_names[0])
            if self._class_file.get(parent.name) is not record_file:
                break
            rid = self._surrogate_index[parent.name].lookup_one(surrogate)
            if rid is not None:
                return rid
            current = parent
        return None

    def remove_role(self, surrogate: int, class_name: str) -> None:
        """Remove a role; cascades to subclass roles, EVA instances and MV
        DVA values (structural integrity, paper §5.1)."""
        class_name = canon(class_name)
        if not self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} has no role {class_name!r}")
        affected = [class_name] + [
            d for d in self.schema.graph.descendants(class_name)
            if self.has_role(surrogate, d)]
        # Subclasses first.
        for name in sorted(affected, key=lambda n: -self.schema.get_class(n).level):
            self._remove_single_role(surrogate, name)

    def _remove_single_role(self, surrogate: int, class_name: str) -> None:
        sim_class = self.schema.get_class(class_name)
        # Drop EVA instances where a removed role is either endpoint.
        for eva in sim_class.immediate_evas():
            for target in list(self.eva_targets(surrogate, eva)):
                self.eva_exclude(surrogate, eva, target)
        # Drop separate-unit MV DVA values.
        for attr in sim_class.immediate_attributes.values():
            if (not attr.is_eva and not attr.is_subrole and attr.multi_valued
                    and self.design.mv_dva_mapping(attr)
                    is MvDvaMapping.SEPARATE_UNIT):
                self._mvdva_clear(surrogate, class_name, attr.name)
        rid, format_id, record = self._drop_role_record(surrogate, class_name)
        if self.history is not None:
            self.history.record_role(surrogate, class_name, acquired=False)

        def undo():
            self._restore_role_record(surrogate, class_name, rid, format_id,
                                      record)
        self.transactions.record_undo(undo)

    def _drop_role_record(self, surrogate: int, class_name: str
                          ) -> Tuple[RID, int, Dict[str, object]]:
        self._stage_record(class_name, surrogate)
        self._stage_member(class_name, surrogate, adding=False)
        record_file = self._class_file[class_name]
        index = self._surrogate_index[class_name]
        with record_file.latch:
            rid = index.lookup_one(surrogate)
            if rid is None:
                raise IntegrityError(
                    f"entity {surrogate} has no role {class_name!r}")
            record = record_file.delete(rid)
            index.delete(surrogate, rid)
            self.writes.role_changed(class_name, surrogate)
            for (cls, attr_name), unique_index in self._unique_index.items():
                if cls == class_name and not is_null(record.get(attr_name)):
                    unique_index.delete(record[attr_name], rid)
            for (cls, attr_name), value_index in self._value_index.items():
                if cls == class_name and not is_null(record.get(attr_name)):
                    value_index.delete(record[attr_name], rid)
        return rid, self._class_format[class_name], record

    def _restore_role_record(self, surrogate: int, class_name: str, rid: RID,
                             format_id: int, record: Dict[str, object]) -> None:
        """Undo path: put a dropped role record back at its original RID so
        that RIDs held by indexes and undo closures stay valid."""
        record_file = self._class_file[class_name]
        with record_file.latch:
            record_file.undelete(rid, format_id, record)
            self._surrogate_index[class_name].insert(surrogate, rid)
            self.writes.role_changed(class_name, surrogate)
            for (cls, attr_name), unique_index in self._unique_index.items():
                if cls == class_name and not is_null(record.get(attr_name)):
                    unique_index.insert(record[attr_name], rid)
            for (cls, attr_name), value_index in self._value_index.items():
                if cls == class_name and not is_null(record.get(attr_name)):
                    value_index.insert(record[attr_name], rid)

    def insert_entity(self, class_name: str,
                      values: Optional[Dict[str, object]] = None) -> int:
        """Convenience: create a new entity with all roles from the base
        class down to ``class_name``, distributing ``values`` to the classes
        that declare them.  EVAs and engine-level checks are NOT handled
        here — this is the Mapper-level path used by tests and benchmarks;
        DML INSERT goes through the engine."""
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        base = sim_class.base_class_name
        chain = ([base] + list(self.schema.graph.insertion_path(
                     base, class_name))
                 if class_name != base else [base])
        by_class: Dict[str, Dict[str, object]] = {c: {} for c in chain}
        deferred_mv: List[Tuple[object, List[object]]] = []
        for attr_name, value in (values or {}).items():
            attr = sim_class.attribute(attr_name)
            if attr.is_eva:
                raise CatalogError(
                    "insert_entity handles DVAs only; use eva_include")
            owner = canon(attr.owner_name)
            if owner not in by_class:
                raise CatalogError(
                    f"attribute {attr_name!r} belongs to {owner!r}, outside "
                    f"the insertion chain {chain}")
            if (attr.multi_valued and self.design.mv_dva_mapping(attr)
                    is MvDvaMapping.SEPARATE_UNIT):
                deferred_mv.append((attr, list(value)))
            else:
                by_class[owner][attr.name] = self._encode_mv(attr, value)
        surrogate = self.new_surrogate()
        for name in chain:
            self.add_role(surrogate, name, by_class[name])
        for attr, items in deferred_mv:
            for item in items:
                self.mv_include(surrogate, attr, item)
        return surrogate

    def _encode_mv(self, attr, value):
        if (attr.multi_valued
                and self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY):
            return tuple(value)
        return value

    # ------------------------------------------------------------------ DVAs

    def record_of(self, surrogate: int, class_name: str
                  ) -> Tuple[RID, Dict[str, object]]:
        class_name = canon(class_name)
        snap = self.current_snapshot()
        if snap is not None:
            return self._record_of_snapshot(snap, surrogate, class_name)
        cached = self.read_cache.get_record(class_name, surrogate)
        if cached is not None:
            return cached
        rid = self._role_rid(surrogate, class_name)
        if rid is None:
            raise IntegrityError(
                f"entity {surrogate} has no role {class_name!r}")
        _, values = self._class_file[class_name].read(rid)
        self.perf.bump("records_decoded")
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.count("mapper.records_decoded")
            trace.count(f"mapper.decoded[{class_name}]")
        self.read_cache.put_record(class_name, surrogate, rid, values)
        return rid, values

    def _record_of_snapshot(self, snap, surrogate: int, class_name: str
                            ) -> Tuple[RID, Dict[str, object]]:
        """Snapshot-correct decoded record, lock-free (double-check
        protocol; see the staging section).  The returned dict is a copy
        when served from a version chain, so callers can't corrupt it."""
        key = ("rec", class_name, surrogate)
        versions = self.versions
        hit, pre = versions.lookup(snap, key)
        if not hit:
            result = error = None
            try:
                cached = self.read_cache.get_record(class_name, surrogate)
                if cached is not None:
                    result = cached
                else:
                    # The role shares this bracket's key, so the outer
                    # lookups already prove the physical role is the
                    # snapshot's.
                    rid = self._physical_role_rid(surrogate, class_name)
                    if rid is None:
                        error = IntegrityError(
                            f"entity {surrogate} has no role "
                            f"{class_name!r}")
                    else:
                        _, values = self._class_file[class_name].read(rid)
                        self.perf.bump("records_decoded")
                        result = (rid, values)
            except Exception as exc:    # racing writer moved the record
                error = exc
            hit, pre = versions.lookup(snap, key)
            if not hit:
                if error is not None:
                    raise error
                return result
        if pre is ABSENT:
            raise IntegrityError(
                f"entity {surrogate} has no role {class_name!r}")
        return pre[0], dict(pre[1])

    def fetch_many(self, class_name: str, surrogates
                   ) -> Dict[int, Tuple[RID, Dict[str, object]]]:
        """Batched :meth:`record_of`: decoded records for every surrogate
        (each must hold the role).  Cache traffic and decode counters
        match per-surrogate calls exactly, but the cache probe and the
        counter bumps aggregate over the whole batch — the operator
        algebra's amortized decode path."""
        class_name = canon(class_name)
        snap = self.current_snapshot()
        if snap is not None:
            return {surrogate: self._record_of_snapshot(snap, surrogate,
                                                        class_name)
                    for surrogate in surrogates}
        found, missing = self.read_cache.get_record_batch(class_name,
                                                          surrogates)
        if not missing:
            return found
        record_file = self._class_file[class_name]
        decoded = 0
        for surrogate in missing:
            if surrogate in found:      # duplicate within the batch
                continue
            rid = self._role_rid(surrogate, class_name)
            if rid is None:
                raise IntegrityError(
                    f"entity {surrogate} has no role {class_name!r}")
            _, values = record_file.read(rid)
            decoded += 1
            self.read_cache.put_record(class_name, surrogate, rid, values)
            found[surrogate] = (rid, values)
        if decoded:
            self.perf.bump("records_decoded", decoded)
            trace = self.trace
            if trace is not None and trace.enabled:
                trace.count("mapper.records_decoded", decoded)
                trace.count(f"mapper.decoded[{class_name}]", decoded)
        return found

    def read_dva(self, surrogate: int, attr):
        """Read a DVA (single value, or list for MV)."""
        owner = canon(attr.owner_name)
        if attr.is_subrole:
            return self._read_subrole(surrogate, attr)
        if attr.is_surrogate:
            return surrogate
        if attr.single_valued:
            _, record = self.record_of(surrogate, owner)
            return record.get(attr.name, NULL)
        if self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY:
            _, record = self.record_of(surrogate, owner)
            stored = record.get(attr.name, NULL)
            return [] if is_null(stored) else list(stored)
        return self._mvdva_values(surrogate, owner, attr.name)

    def _read_subrole(self, surrogate: int, attr):
        roles = [name for name in attr.subclass_names
                 if self.has_role(surrogate, canon(name))]
        if attr.multi_valued:
            return [canon(r) for r in roles]
        return canon(roles[0]) if roles else NULL

    def write_dva(self, surrogate: int, attr, value) -> None:
        """Write a single-valued DVA (or replace an array MV DVA)."""
        if attr.is_subrole or attr.is_surrogate:
            raise IntegrityError(
                f"attribute {attr.name!r} is system-maintained and read-only")
        owner = canon(attr.owner_name)
        if self.history is not None:
            old = self.read_dva(surrogate, attr)
            self.history.record_set(surrogate, attr.name, old, value)
        if attr.multi_valued:
            if self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY:
                self._write_field(surrogate, owner, attr.name,
                                  tuple(value) if not is_null(value) else NULL)
            else:
                self._mvdva_clear(surrogate, owner, attr.name)
                for item in (value or []):
                    self._mvdva_append(surrogate, owner, attr.name, item)
            return
        self._write_field(surrogate, owner, attr.name, value,
                          maintain_indexes=True)

    def _write_field(self, surrogate: int, class_name: str, field: str,
                     value, maintain_indexes: bool = False) -> None:
        with self._class_file[class_name].latch:
            self._stage_record(class_name, surrogate)
            rid, record = self.record_of(surrogate, class_name)
            old = record.get(field, NULL)
            if maintain_indexes:
                unique_index = self._unique_index.get((class_name, field))
                if unique_index is not None:
                    if not is_null(value):
                        existing = unique_index.lookup_one(value)
                        if existing is not None and existing != rid:
                            raise UniquenessViolation(
                                f"{class_name}.{field} = {value!r} "
                                f"already used")
                    if not is_null(old):
                        unique_index.delete(old, rid)
                    if not is_null(value):
                        unique_index.insert(value, rid)
                value_index = self._value_index.get((class_name, field))
                if value_index is not None:
                    if not is_null(old):
                        value_index.delete(old, rid)
                    if not is_null(value):
                        value_index.insert(value, rid)
            self._class_file[class_name].update(rid, {field: value})
            self.writes.record_changed(class_name, surrogate)

        def undo():
            self._write_field(surrogate, class_name, field, old,
                              maintain_indexes=maintain_indexes)
        self.transactions.record_undo(undo)

    def _unique_insert(self, index: HashIndex, value, rid: RID,
                       class_name: str, attr_name: str) -> None:
        if index.lookup_one(value) is not None:
            raise UniquenessViolation(
                f"{class_name}.{attr_name} = {value!r} already used")
        index.insert(value, rid)

    # -- separate-unit MV DVAs ---------------------------------------------------

    def _mvdva_values(self, surrogate: int, class_name: str,
                      attr_name: str) -> List[object]:
        snap = self.current_snapshot()
        if snap is None:
            return self._mvdva_values_physical(surrogate, class_name,
                                               attr_name)
        key = ("mv", class_name, attr_name, surrogate)
        versions = self.versions
        hit, pre = versions.lookup(snap, key)
        if not hit:
            values = error = None
            try:
                values = self._mvdva_values_physical(surrogate, class_name,
                                                     attr_name)
            except Exception as exc:    # racing writer reshaped the unit
                error = exc
            hit, pre = versions.lookup(snap, key)
            if not hit:
                if error is not None:
                    raise error
                return values
        return list(pre)

    def _mvdva_values_physical(self, surrogate: int, class_name: str,
                               attr_name: str) -> List[object]:
        key = (class_name, attr_name)
        record_file = self._mvdva_file[key]
        rows = []
        for rid in self._mvdva_index[key].lookup(surrogate):
            _, record = record_file.read(rid)
            rows.append((record["seq"], record["value"]))
        rows.sort(key=lambda pair: pair[0])
        return [value for _, value in rows]

    def mv_include(self, surrogate: int, attr, value) -> None:
        """INCLUDE one value into an MV DVA."""
        owner = canon(attr.owner_name)
        if self.history is not None:
            self.history.record_include(surrogate, attr.name, value)
        if self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY:
            current = self.read_dva(surrogate, attr)
            current.append(value)
            self._write_field(surrogate, owner, attr.name, tuple(current))
        else:
            self._mvdva_append(surrogate, owner, attr.name, value)

    def mv_exclude(self, surrogate: int, attr, value) -> bool:
        """EXCLUDE one occurrence of ``value``; returns True when found."""
        removed = self._mv_exclude_inner(surrogate, attr, value)
        if removed and self.history is not None:
            self.history.record_exclude(surrogate, attr.name, value)
        return removed

    def _mv_exclude_inner(self, surrogate: int, attr, value) -> bool:
        owner = canon(attr.owner_name)
        if self.design.mv_dva_mapping(attr) is MvDvaMapping.ARRAY:
            current = self.read_dva(surrogate, attr)
            if value not in current:
                return False
            current.remove(value)
            self._write_field(surrogate, owner, attr.name, tuple(current))
            return True
        key = (owner, attr.name)
        record_file = self._mvdva_file[key]
        with record_file.latch:
            self._stage_mv(owner, attr.name, surrogate)
            for rid in self._mvdva_index[key].lookup(surrogate):
                _, record = record_file.read(rid)
                if record["value"] == value:
                    record_file.delete(rid)
                    self._mvdva_index[key].delete(surrogate, rid)
                    seq = record["seq"]

                    def undo():
                        # Abort replay runs outside any statement-level
                        # latching, so the closure latches the unit itself.
                        with record_file.latch:
                            record_file.undelete(
                                rid, self._mvdva_format[key],
                                {"owner": surrogate, "seq": seq,
                                 "value": value})
                            self._mvdva_index[key].insert(surrogate, rid)
                    self.transactions.record_undo(undo)
                    self.writes.note_write()
                    return True
        return False

    def _mvdva_append(self, surrogate: int, class_name: str, attr_name: str,
                      value) -> None:
        key = (class_name, attr_name)
        record_file = self._mvdva_file[key]
        with record_file.latch:
            self._stage_mv(class_name, attr_name, surrogate)
            seq_key = (class_name, attr_name, surrogate)
            seq = self._mvdva_seq.get(seq_key, 0) + 1
            self._mvdva_seq[seq_key] = seq
            rid = record_file.insert(
                self._mvdva_format[key],
                {"owner": surrogate, "seq": seq, "value": value})
            self._mvdva_index[key].insert(surrogate, rid)

        def undo():
            with record_file.latch:
                record_file.delete(rid)
                self._mvdva_index[key].delete(surrogate, rid)
        self.transactions.record_undo(undo)
        # Separate-unit MV values are not cached here, but engine memos
        # validated against the epoch must still expire.
        self.writes.note_write()

    def _mvdva_clear(self, surrogate: int, class_name: str,
                     attr_name: str) -> None:
        key = (class_name, attr_name)
        self.writes.note_write()
        record_file = self._mvdva_file[key]
        with record_file.latch:
            self._stage_mv(class_name, attr_name, surrogate)
            for rid in list(self._mvdva_index[key].lookup(surrogate)):
                _, record = record_file.read(rid)
                record_file.delete(rid)
                self._mvdva_index[key].delete(surrogate, rid)
                seq, value = record["seq"], record["value"]

                def undo(rid=rid, seq=seq, value=value):
                    with record_file.latch:
                        record_file.undelete(
                            rid, self._mvdva_format[key],
                            {"owner": surrogate, "seq": seq, "value": value})
                        self._mvdva_index[key].insert(surrogate, rid)
                self.transactions.record_undo(undo)

    # ------------------------------------------- materialized derived relations

    def attach_materializations(self) -> MaterializationManager:
        """Return the store's materialization manager, creating it (and
        subscribing it to the write-event hub) on first use."""
        if self.materialized is None:
            self.materialized = MaterializationManager(self)
            self.writes.subscribe(self.materialized)
        return self.materialized

    # ------------------------------------------------------------------- EVAs

    def eva_targets(self, surrogate: int, eva: EntityValuedAttribute
                    ) -> List[int]:
        """Surrogates related to ``surrogate`` through ``eva``.

        Works from either side of the pair; the Mapper "assumes the
        responsibility of traversing a relationship, no matter how it is
        physically mapped" (§5.1).
        """
        info = self.eva_info(eva)
        canonical = info.canonical
        side = bool(info.self_inverse or eva is canonical)
        snap = self.current_snapshot()
        if snap is not None:
            return self._eva_targets_snapshot(snap, info, side, surrogate)
        cached = self.read_cache.get_fanout(info.rel_id, side, surrogate)
        if cached is not None:
            return list(cached)
        if self.materialized is not None:
            served = self.materialized.serve_eva(info.rel_id, side, surrogate)
            if served is not None:
                return list(served)
        if info.self_inverse:
            targets = (self._traverse(info, surrogate, forward=True)
                       + self._traverse(info, surrogate, forward=False))
        else:
            targets = self._traverse(info, surrogate, forward=side)
        self.read_cache.put_fanout(info.rel_id, side, surrogate,
                                   tuple(targets))
        return targets

    def _eva_targets_snapshot(self, snap, info: _EvaInfo, side: bool,
                              surrogate: int) -> List[int]:
        """Snapshot-correct fan-out, lock-free (double-check protocol)."""
        key = ("fan", info.rel_id, side, surrogate)
        versions = self.versions
        hit, pre = versions.lookup(snap, key)
        if not hit:
            targets = error = None
            try:
                cached = self.read_cache.get_fanout(info.rel_id, side,
                                                    surrogate)
                if cached is not None:
                    targets = list(cached)
                elif info.self_inverse:
                    targets = (self._traverse(info, surrogate, forward=True)
                               + self._traverse(info, surrogate,
                                                forward=False))
                else:
                    targets = self._traverse(info, surrogate, forward=side)
            except Exception as exc:    # racing writer reshaped the unit
                error = exc
            hit, pre = versions.lookup(snap, key)
            if not hit:
                if error is not None:
                    raise error
                return targets
        return list(pre)

    def traverse_eva_batch(self, surrogates, eva: EntityValuedAttribute
                           ) -> Dict[int, List[int]]:
        """Batched :meth:`eva_targets` for distinct ``surrogates``: one
        fan-out cache probe covers the whole batch, misses traverse the
        physical mapping individually.  Per-surrogate cache counters are
        identical to individual calls, aggregated into two bumps."""
        info = self.eva_info(eva)
        canonical = info.canonical
        side = bool(info.self_inverse or eva is canonical)
        snap = self.current_snapshot()
        if snap is not None:
            return {surrogate: self._eva_targets_snapshot(snap, info, side,
                                                          surrogate)
                    for surrogate in surrogates}
        found, missing = self.read_cache.get_fanout_batch(info.rel_id, side,
                                                          surrogates)
        results = {surrogate: list(targets)
                   for surrogate, targets in found.items()}
        mats = self.materialized
        for surrogate in missing:
            if surrogate in results:    # duplicate within the batch
                continue
            if mats is not None:
                served = mats.serve_eva(info.rel_id, side, surrogate)
                if served is not None:
                    results[surrogate] = list(served)
                    continue
            if info.self_inverse:
                targets = (self._traverse(info, surrogate, forward=True)
                           + self._traverse(info, surrogate, forward=False))
            else:
                targets = self._traverse(info, surrogate, forward=side)
            self.read_cache.put_fanout(info.rel_id, side, surrogate,
                                       tuple(targets))
            results[surrogate] = targets
        return results

    def _traverse(self, info: _EvaInfo, surrogate: int,
                  forward: bool) -> List[int]:
        mapping = info.mapping
        if mapping is EvaMapping.FOREIGN_KEY:
            # "forward" means the canonical direction; the key may be held
            # on either side.  Plain side-identity comparison would break
            # on self-inverse EVAs (SPOUSE), where both sides are the same
            # object: forward reads the field, reverse uses the index.
            reads_field = forward == (info.fk_eva is info.canonical)
            if reads_field:
                _, record = self.record_of(surrogate,
                                           info.fk_eva.owner_name)
                value = record.get(info.fk_field, NULL)
                return [] if is_null(value) else [value]
            return self._fk_owners(info, surrogate)
        if mapping is EvaMapping.POINTER:
            if forward:
                _, record = self.record_of(surrogate,
                                           info.canonical.owner_name)
                stored = record.get(info.ptr_field, NULL)
                if is_null(stored):
                    return []
                targets = []
                range_file = self._class_file[info.canonical.range_class_name]
                for target_surr, block, slot in stored:
                    # Absolute address: fetch the target block directly.
                    self.pool.get(range_file.file_id, block)
                    targets.append(target_surr)
                return targets
            return self._ptr_owners(info, surrogate)
        # Structure-based mappings.
        index = info.forward if forward else info.reverse
        out_field = "surr2" if forward else "surr1"
        results: List[int] = []
        for rid in index.lookup((info.rel_id, surrogate)):
            _, record = info.file.read(rid)
            results.append(record[out_field])
        return results

    def _fk_owners(self, info: _EvaInfo, target: int) -> List[int]:
        owners = []
        for rid in info.fk_reverse.lookup(target):
            _, record = self._class_file[info.fk_eva.owner_name].read(rid)
            owners.append(record["surrogate"])
        return owners

    def _ptr_owners(self, info: _EvaInfo, target: int) -> List[int]:
        owners = []
        for rid in info.ptr_reverse.lookup(target):
            _, record = self._class_file[info.canonical.owner_name].read(rid)
            owners.append(record["surrogate"])
        return owners

    def eva_include(self, surrogate: int, eva: EntityValuedAttribute,
                    target: int) -> None:
        """Add one relationship instance (from ``eva``'s side of the pair)."""
        info = self.eva_info(eva)
        canonical = info.canonical
        if eva is canonical or info.self_inverse:
            domain_surr, range_surr = surrogate, target
        else:
            domain_surr, range_surr = target, surrogate
        self._require_role(domain_surr, canonical.owner_name)
        self._require_role(range_surr, canonical.range_class_name)
        self._stage_fan(info, domain_surr, range_surr)

        mapping = info.mapping
        if mapping is EvaMapping.FOREIGN_KEY:
            if info.fk_eva is canonical:
                holder_surr, other_surr = domain_surr, range_surr
            else:
                holder_surr, other_surr = range_surr, domain_surr
            rid, record = self.record_of(holder_surr, info.fk_eva.owner_name)
            if not is_null(record.get(info.fk_field, NULL)):
                raise IntegrityError(
                    f"{info.fk_eva.owner_name}.{info.fk_eva.name} of entity "
                    f"{holder_surr} already set; exclude it first")
            self._write_field(holder_surr, info.fk_eva.owner_name,
                              info.fk_field, other_surr)
            info.fk_reverse.insert(other_surr, rid)
            self.transactions.record_undo(
                lambda: info.fk_reverse.delete(other_surr, rid))
        elif mapping is EvaMapping.POINTER:
            target_rid = self._surrogate_index[
                canonical.range_class_name].lookup_one(range_surr)
            owner_rid, record = self.record_of(domain_surr,
                                               canonical.owner_name)
            stored = record.get(info.ptr_field, NULL)
            pointers = [] if is_null(stored) else list(stored)
            pointers.append((range_surr, target_rid.block, target_rid.slot))
            self._write_field(domain_surr, canonical.owner_name,
                              info.ptr_field, tuple(pointers))
            info.ptr_reverse.insert(range_surr, owner_rid)
            self.transactions.record_undo(
                lambda: info.ptr_reverse.delete(range_surr, owner_rid))
        else:
            near = None
            if mapping is EvaMapping.CLUSTERED:
                near = self._surrogate_index[
                    canonical.owner_name].lookup_one(domain_surr)
            # The fan-record unit may be the COMMON file shared by every
            # relationship, so its latch is mandatory even when the
            # statements' class locks are disjoint.
            with info.file.latch:
                rid = info.file.insert(info.format_id,
                                       {"surr1": domain_surr,
                                        "rel": info.rel_id,
                                        "surr2": range_surr},
                                       near=near)
                info.forward.insert((info.rel_id, domain_surr), rid)
                info.reverse.insert((info.rel_id, range_surr), rid)

            def undo():
                with info.file.latch:
                    info.file.delete(rid)
                    info.forward.delete((info.rel_id, domain_surr), rid)
                    info.reverse.delete((info.rel_id, range_surr), rid)
                    info.instance_count -= 1
            self.transactions.record_undo(undo)
        info.instance_count += 1
        self.writes.eva_changed(info.rel_id, domain_surr, range_surr,
                                added=True)
        if self.history is not None:
            self.history.record_include(surrogate, eva.name, target)
            if eva.inverse is not eva:
                self.history.record_include(target, eva.inverse.name,
                                            surrogate)
            else:
                self.history.record_include(target, eva.name, surrogate)

    def eva_exclude(self, surrogate: int, eva: EntityValuedAttribute,
                    target: int) -> bool:
        """Remove one relationship instance; returns True when one existed."""
        info = self.eva_info(eva)
        canonical = info.canonical
        if eva is canonical or info.self_inverse:
            domain_surr, range_surr = surrogate, target
        else:
            domain_surr, range_surr = target, surrogate
        self._stage_fan(info, domain_surr, range_surr)
        if info.self_inverse:
            # Try both orientations.
            removed = (self._exclude_oriented(info, surrogate, target)
                       or self._exclude_oriented(info, target, surrogate))
        elif eva is canonical:
            removed = self._exclude_oriented(info, surrogate, target)
        else:
            removed = self._exclude_oriented(info, target, surrogate)
        if removed:
            self.writes.eva_changed(info.rel_id, domain_surr, range_surr,
                                    added=False)
        if removed and self.history is not None:
            self.history.record_exclude(surrogate, eva.name, target)
            if eva.inverse is not eva:
                self.history.record_exclude(target, eva.inverse.name,
                                            surrogate)
            else:
                self.history.record_exclude(target, eva.name, surrogate)
        return removed

    def _exclude_oriented(self, info: _EvaInfo, domain_surr: int,
                          range_surr: int) -> bool:
        canonical = info.canonical
        mapping = info.mapping
        if mapping is EvaMapping.FOREIGN_KEY:
            if info.fk_eva is canonical:
                holder_surr, other_surr = domain_surr, range_surr
            else:
                holder_surr, other_surr = range_surr, domain_surr
            try:
                rid, record = self.record_of(holder_surr,
                                             info.fk_eva.owner_name)
            except IntegrityError:
                return False
            if record.get(info.fk_field, NULL) != other_surr:
                return False
            self._write_field(holder_surr, info.fk_eva.owner_name,
                              info.fk_field, NULL)
            info.fk_reverse.delete(other_surr, rid)
            self.transactions.record_undo(
                lambda: info.fk_reverse.insert(other_surr, rid))
            info.instance_count -= 1
            return True
        if mapping is EvaMapping.POINTER:
            try:
                owner_rid, record = self.record_of(domain_surr,
                                                   canonical.owner_name)
            except IntegrityError:
                return False
            stored = record.get(info.ptr_field, NULL)
            if is_null(stored):
                return False
            pointers = list(stored)
            match = next((p for p in pointers if p[0] == range_surr), None)
            if match is None:
                return False
            pointers.remove(match)
            self._write_field(domain_surr, canonical.owner_name,
                              info.ptr_field,
                              tuple(pointers) if pointers else NULL)
            info.ptr_reverse.delete(range_surr, owner_rid)
            self.transactions.record_undo(
                lambda: info.ptr_reverse.insert(range_surr, owner_rid))
            info.instance_count -= 1
            return True
        with info.file.latch:
            for rid in info.forward.lookup((info.rel_id, domain_surr)):
                _, record = info.file.read(rid)
                if record["surr2"] != range_surr:
                    continue
                info.file.delete(rid)
                info.forward.delete((info.rel_id, domain_surr), rid)
                info.reverse.delete((info.rel_id, range_surr), rid)
                info.instance_count -= 1

                def undo():
                    # Restore at the SAME RID: a compensation that
                    # re-inserts elsewhere would duplicate the instance
                    # when crash recovery also restores the original slot
                    # from the log.
                    with info.file.latch:
                        info.file.undelete(rid, info.format_id,
                                           {"surr1": domain_surr,
                                            "rel": info.rel_id,
                                            "surr2": range_surr})
                        info.forward.insert((info.rel_id, domain_surr), rid)
                        info.reverse.insert((info.rel_id, range_surr), rid)
                        info.instance_count += 1
                self.transactions.record_undo(undo)
                return True
        return False

    def _require_role(self, surrogate: int, class_name: str) -> None:
        if not self.has_role(surrogate, class_name):
            raise IntegrityError(
                f"entity {surrogate} is not a member of {class_name!r}")

    # ------------------------------------------------------------------- scans

    def scan_class(self, class_name: str) -> Iterator[int]:
        """All surrogates with the given role, in block (physical) order.

        Note that scanning a class in a shared variable-format unit visits
        every block of the hierarchy's unit — the space/scan trade-off of
        the merged mapping.
        """
        class_name = canon(class_name)
        record_file = self._class_file[class_name]
        format_id = self._class_format[class_name]
        snap = self.current_snapshot()
        if snap is not None:
            # Scan physically FIRST, then fold the membership deltas:
            # writers stage before mutating, so any change racing the
            # scan is already in the fold when we capture it.
            try:
                physical = [record["surrogate"]
                            for _, _, record in record_file.scan(format_id)]
            except Exception:   # a racing writer reshaped the unit; retry
                physical = [record["surrogate"]
                            for _, _, record in record_file.scan(format_id)]
            for surrogate in self.versions.visible_members(snap, class_name,
                                                           physical):
                yield surrogate
            return
        for _, _, record in record_file.scan(format_id):
            yield record["surrogate"]

    def class_count(self, class_name: str) -> int:
        class_name = canon(class_name)
        snap = self.current_snapshot()
        if snap is not None \
                and not self.versions.class_clean(snap, (class_name,)):
            return sum(1 for _ in self.scan_class(class_name))
        return self._surrogate_index[class_name].entries

    def find_by_dva(self, class_name: str, attr_name: str, value
                    ) -> List[int]:
        """Entities of ``class_name`` whose DVA equals ``value``; uses a
        unique or value index when one exists, else scans the class."""
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        attr = sim_class.attribute(attr_name)
        owner = canon(attr.owner_name)
        snap = self.current_snapshot()
        if snap is not None:
            classes = ((owner,) if owner == class_name
                       else (owner, class_name))
            if self.versions.class_clean(snap, classes):
                # Index fast path with a post-hoc clean re-check: a writer
                # dirtying the class mid-probe forces the versioned scan.
                try:
                    result = self._find_by_dva_physical(class_name, owner,
                                                        attr, value)
                except Exception:
                    result = None
                if result is not None \
                        and self.versions.class_clean(snap, classes):
                    return result
            return [surrogate for surrogate in self.scan_class(class_name)
                    if self.read_dva(surrogate, attr) == value]
        return self._find_by_dva_physical(class_name, owner, attr, value)

    def _find_by_dva_physical(self, class_name: str, owner: str, attr,
                              value) -> List[int]:
        index = (self._unique_index.get((owner, attr.name))
                 or self._value_index.get((owner, attr.name)))
        if index is not None:
            record_file = self._class_file[owner]
            surrogates = []
            for rid in index.lookup(value):
                _, record = record_file.read(rid)
                surrogates.append(record["surrogate"])
            # Restrict to the queried class when it differs from the owner.
            if owner != class_name:
                surrogates = [s for s in surrogates
                              if self.has_role(s, class_name)]
            return surrogates
        results = []
        for surrogate in self.scan_class(class_name):
            if self.read_dva(surrogate, attr) == value:
                results.append(surrogate)
        return results

    def find_by_dva_range(self, class_name: str, attr_name: str,
                          low=None, high=None, include_low: bool = True,
                          include_high: bool = True) -> List[int]:
        """Entities of ``class_name`` whose DVA falls inside the given
        bounds, served by an *ordered* value index (NULLs never match a
        range; an open bound is None)."""
        class_name = canon(class_name)
        sim_class = self.schema.get_class(class_name)
        attr = sim_class.attribute(attr_name)
        owner = canon(attr.owner_name)
        index = self._value_index.get((owner, attr.name))
        if index is None or index.kind != "ordered":
            raise CatalogError(
                f"no ordered index on {class_name}.{attr_name}")
        snap = self.current_snapshot()
        if snap is not None:
            classes = ((owner,) if owner == class_name
                       else (owner, class_name))
            if self.versions.class_clean(snap, classes):
                try:
                    result = self._range_physical(class_name, owner, index,
                                                  low, high, include_low,
                                                  include_high)
                except Exception:
                    result = None
                if result is not None \
                        and self.versions.class_clean(snap, classes):
                    return result
            return [surrogate for surrogate in self.scan_class(class_name)
                    if _in_range(self.read_dva(surrogate, attr), low, high,
                                 include_low, include_high)]
        return self._range_physical(class_name, owner, index, low, high,
                                    include_low, include_high)

    def _range_physical(self, class_name: str, owner: str, index, low, high,
                        include_low: bool, include_high: bool) -> List[int]:
        record_file = self._class_file[owner]
        surrogates = []
        for _key, rid in index.range(low, high, include_low, include_high):
            _, record = record_file.read(rid)
            surrogates.append(record["surrogate"])
        if owner != class_name:
            surrogates = [s for s in surrogates
                          if self.has_role(s, class_name)]
        return surrogates

    def has_index_on(self, class_name: str, attr_name: str) -> bool:
        sim_class = self.schema.get_class(canon(class_name))
        attr = sim_class.attribute(attr_name)
        owner = canon(attr.owner_name)
        return ((owner, attr.name) in self._unique_index
                or (owner, attr.name) in self._value_index)

    def has_ordered_index_on(self, class_name: str, attr_name: str) -> bool:
        """True when an *ordered* value index can serve range predicates
        on this DVA (the ``select_entities`` range fast path)."""
        sim_class = self.schema.get_class(canon(class_name))
        attr = sim_class.attribute(attr_name)
        owner = canon(attr.owner_name)
        index = self._value_index.get((owner, attr.name))
        return index is not None and index.kind == "ordered"

    # -------------------------------------------------------------- statistics

    def relationship_cardinality(self, eva: EntityValuedAttribute) -> int:
        return self.eva_info(eva).instance_count

    def avg_fanout(self, eva: EntityValuedAttribute) -> float:
        """Average number of targets per source entity for this EVA side."""
        info = self.eva_info(eva)
        side_class = canon(eva.owner_name)
        population = max(1, self.class_count(side_class))
        return info.instance_count / population

    def blocking_factor(self, class_name: str) -> int:
        class_name = canon(class_name)
        return self._class_file[class_name].blocking_factor(
            self._class_format[class_name])

    def class_block_count(self, class_name: str) -> int:
        return self._class_file[canon(class_name)].block_count

    def io_stats(self):
        return self.pool.stats

    def reset_io_stats(self) -> None:
        self.pool.stats.reset()
        self.disk.stats.reset()

    def cold_cache(self) -> None:
        """Flush and invalidate the buffer pool and the read-path caches
        (for cold-run benchmarks and deterministic I/O accounting)."""
        self.pool.invalidate()
        self.read_cache.clear()

    # ------------------------------------------------------- fault injection

    def install_faults(self, injector: Optional[FaultInjector] = None,
                       seed: int = 0) -> FaultInjector:
        """Wire a :class:`FaultInjector` into the disk and the WAL.

        Pass an injector with an armed plan, or let this create a fresh
        seeded one to arm afterwards.  Returns the installed injector."""
        if injector is None:
            injector = FaultInjector(seed=seed)
        self.faults = injector
        self.disk.faults = injector
        self.wal.faults = injector
        return injector

    # --------------------------------------------------------- crash recovery

    def simulate_crash(self) -> dict:
        """Lose all volatile state (buffer pool, indexes, open transaction),
        then recover from the disk image and the durable log prefix.

        Returns recovery statistics.  Durability guarantees apply to
        transactional work: COMMIT flushes data pages and then forces a
        commit record, so committed statements survive; in-flight
        transactions are undone from the log's before-images;
        auto-committed Mapper-level calls that were never flushed are
        lost consistently.

        Re-runnable: if a fault injector kills the machine *during*
        recovery, calling this again reboots the device and re-runs the
        whole pass, which converges to the same disk image (undo applies
        absolute before-images in a fixed order, the rebuild is a pure
        function of the disk, and nothing appends to the log until the
        final checkpoint).
        """
        self.wal.crash()
        if self.faults is not None:
            self.faults.reboot()
        return self.recover()

    def recover(self) -> dict:
        """The recovery pass proper: undo losers, rebuild volatile state,
        then checkpoint the log.  Assumes ``wal.crash()`` has already
        established the durable prefix (``simulate_crash`` does both)."""
        formats_by_file = {f.file_id: f.formats for f in self._files.values()}
        undone = undo_losers(self.wal, self.disk, formats_by_file,
                             retry=self.retry)
        self._rebuild_volatile()
        checkpoint_lsn = self.wal.checkpoint()
        return {"undone_slots": undone, "checkpoint_lsn": checkpoint_lsn,
                "transient_retries": self.retry.retries}

    def _rebuild_volatile(self) -> None:
        """Reconstruct the buffer pool, file metadata, every index, the
        sequence counters and the surrogate generator from the disk image.
        (A real system checkpoints these; rebuilding by scan is the
        simulator's equivalent and also validates that the disk image is
        self-describing.)"""
        self.writes.rollback()
        self.pool = BufferPool(self.disk, self.design.pool_capacity)
        self.pool.wal = self.wal
        self.pool.retry = self.retry
        # Seed the fresh manager's id counter past any id the durable log
        # still mentions, so post-recovery transactions can't collide with
        # logged ones during the window before the checkpoint truncates.
        logged = [r.txn_id for r in self.wal.durable_records()
                  if r.txn_id is not None]
        self.transactions = TransactionManager(
            self.pool, wal=self.wal, start_after=max(logged, default=0))
        self.transactions.invalidation_hooks.append(self.writes.rollback)
        # Versions and snapshots are volatile; the epoch stays monotonic.
        self.versions.reset()
        self.transactions.commit_hooks.append(self.versions.commit)
        self.transactions.abort_hooks.append(self.versions.abort)
        for record_file in self._files.values():
            record_file.pool = self.pool
            record_file.txn_context = self.transactions.txn_context
            record_file.rebuild_metadata(self.disk, retry=self.retry)

        kind = self.design.surrogate_key_kind.value
        for class_name in self._surrogate_index:
            self._surrogate_index[class_name] = make_index(
                kind, f"surr--{class_name}", unique=True)
        for key in self._unique_index:
            self._unique_index[key] = HashIndex(
                f"uniq--{key[0]}--{key[1]}", unique=True)
        for key in self._value_index:
            self._value_index[key] = make_index(
                self.design.value_index_kind(key[0], key[1]),
                f"val--{key[0]}--{key[1]}")
        for key in self._mvdva_index:
            self._mvdva_index[key] = HashIndex(f"mvidx--{key[0]}--{key[1]}")
        self._mvdva_seq = {}
        for info in self._eva_info.values():
            info.instance_count = 0
            if info.forward is not None:
                info.forward = HashIndex(info.forward.name)
                info.reverse = HashIndex(info.reverse.name)
            if info.fk_reverse is not None:
                info.fk_reverse = HashIndex(info.fk_reverse.name)
            if info.ptr_reverse is not None:
                info.ptr_reverse = HashIndex(info.ptr_reverse.name)

        max_surrogate = 0
        for class_name, record_file in self._class_file.items():
            format_id = self._class_format[class_name]
            for rid, _, record in record_file.scan(format_id):
                surrogate = record["surrogate"]
                max_surrogate = max(max_surrogate, surrogate)
                self._surrogate_index[class_name].insert(surrogate, rid)
                for (cls, attr_name), index in self._unique_index.items():
                    if cls == class_name and not is_null(record.get(attr_name)):
                        index.insert(record[attr_name], rid)
                for (cls, attr_name), index in self._value_index.items():
                    if cls == class_name and not is_null(record.get(attr_name)):
                        index.insert(record[attr_name], rid)

        for info in self._eva_info.values():
            if info.fk_field is not None:
                holder = info.fk_eva.owner_name
                format_id = self._class_format[holder]
                for rid, _, record in self._class_file[holder].scan(format_id):
                    value = record.get(info.fk_field)
                    if not is_null(value):
                        info.fk_reverse.insert(value, rid)
                        info.instance_count += 1
            elif info.ptr_field is not None:
                owner = info.canonical.owner_name
                format_id = self._class_format[owner]
                for rid, _, record in self._class_file[owner].scan(format_id):
                    stored = record.get(info.ptr_field)
                    if is_null(stored):
                        continue
                    for target_surr, _block, _slot in stored:
                        info.ptr_reverse.insert(target_surr, rid)
                        info.instance_count += 1
            else:
                for rid, _, record in info.file.scan(info.format_id):
                    if record["rel"] != info.rel_id:
                        continue
                    info.forward.insert((info.rel_id, record["surr1"]), rid)
                    info.reverse.insert((info.rel_id, record["surr2"]), rid)
                    info.instance_count += 1

        for key, record_file in self._mvdva_file.items():
            format_id = self._mvdva_format[key]
            for rid, _, record in record_file.scan(format_id):
                owner = record["owner"]
                self._mvdva_index[key].insert(owner, rid)
                seq_key = (key[0], key[1], owner)
                self._mvdva_seq[seq_key] = max(
                    self._mvdva_seq.get(seq_key, 0), record["seq"])

        self._next_surrogate = max_surrogate + 1

    # ---------------------------------------------------------- consistency

    def check(self, constraints: bool = True):
        """Run the semantic consistency checker over the physical state;
        returns a :class:`repro.checker.CheckReport` (see that module)."""
        from repro.checker import check_store
        return check_store(self, constraints=constraints)

    def storage_statistics(self) -> dict:
        """Durability-side counters: WAL, retries, injected faults."""
        stats = {
            "wal_records": len(self.wal),
            "wal_forces": self.wal.forces,
            "wal_checkpoints": self.wal.checkpoints,
            "commits": self.transactions.commits,
            "aborts": self.transactions.aborts,
            "retry": self.retry.statistics(),
            "mvcc": self.versions.statistics(),
        }
        if self.faults is not None:
            stats["faults"] = self.faults.statistics()
        return stats

    def __repr__(self):
        return (f"<MapperStore {self.schema.name}: "
                f"{len(self._class_file)} class units, "
                f"{len(self._eva_info)} EVA pairs>")
