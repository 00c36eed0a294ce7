"""Simulated disk and LRU buffer pool with block-I/O accounting.

All physical I/O in the system flows through one :class:`BufferPool`; its
:class:`IOStats` are the measurements our benchmarks report.  This follows
the paper's own cost vocabulary (§5.1): "the I/O cost of accessing the
first instance of a relationship will be 0 if the relationship is
implemented by clustering and 1 block access if it is implemented by
absolute addresses".
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.storage.latch import ranked_lock


@dataclass
class IOStats:
    """Counters for one disk/buffer-pool pair."""

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.logical_reads, self.physical_reads,
                       self.physical_writes)

    def delta(self, earlier: "IOStats") -> "IOStats":
        return IOStats(self.logical_reads - earlier.logical_reads,
                       self.physical_reads - earlier.physical_reads,
                       self.physical_writes - earlier.physical_writes)

    def reset(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
        self.physical_writes = 0

    def __repr__(self):
        return (f"IOStats(logical={self.logical_reads}, "
                f"physical_reads={self.physical_reads}, "
                f"physical_writes={self.physical_writes})")


class Block:
    """One disk block: a list of record slots.

    ``slots[i]`` is ``None`` for a deleted record, otherwise a tuple
    ``(format_id, values_dict)``.  ``used`` tracks occupied width so files
    can decide whether another record fits.
    """

    __slots__ = ("slots", "used")

    def __init__(self):
        self.slots: List[Optional[tuple]] = []
        self.used: int = 0

    def copy(self) -> "Block":
        """A block with its own slot list and ``used`` header, sharing the
        slot entries.  Entries are immutable once placed: every mutation
        replaces the whole ``(format_id, values)`` tuple with a fresh
        dict, so sharing them with the disk image is safe."""
        clone = Block()
        clone.slots = list(self.slots)
        clone.used = self.used
        return clone


class Disk:
    """The simulated disk: a map from (file_id, block_no) to block images.

    Reading and writing a block each count one physical I/O.  Each
    crossing of the "device boundary" copies the block's slot list and
    ``used`` header, so a buffered block and its disk image are distinct
    blocks: un-flushed inserts, deletes and updates never reach the
    device.  The slot entries themselves (``(format_id, values)`` tuples)
    are shared, because nothing mutates a placed entry — writers replace
    it (see :meth:`Block.copy`).

    ``read_latency`` models the device's per-read service time in
    seconds (default 0.0: instantaneous, so every existing deterministic
    I/O-count measurement is unaffected).  The sleep happens outside any
    buffer-pool lock, so concurrent morsel workers overlap their reads
    exactly the way threads overlap real blocking I/O.
    """

    def __init__(self, read_latency: float = 0.0):
        self._blocks: Dict[Tuple[int, int], Block] = {}
        self.stats = IOStats()
        #: modeled per-read device service time, seconds (0.0 = off)
        self.read_latency = read_latency
        # Serializes the stats counters only: concurrent morsel workers
        # read through the buffer pool, and `n += 1` is not atomic.
        self._stats_lock = threading.Lock()
        #: optional :class:`~repro.storage.faults.FaultInjector`; consulted
        #: on every read and write (may raise, or tear the written image)
        self.faults = None

    def read(self, file_id: int, block_no: int) -> Block:
        key = (file_id, block_no)
        with self._stats_lock:
            self.stats.physical_reads += 1
        if self.faults is not None:
            self.faults.on_read(file_id, block_no)
        if self.read_latency > 0.0:
            time.sleep(self.read_latency)
        image = self._blocks.get(key)
        if image is None:
            return Block()
        return image.copy()

    def write(self, file_id: int, block_no: int, block: Block) -> None:
        with self._stats_lock:
            self.stats.physical_writes += 1
        if self.faults is not None:
            block = self.faults.on_write(file_id, block_no, block)
        self._blocks[(file_id, block_no)] = block.copy()

    def exists(self, file_id: int, block_no: int) -> bool:
        return (file_id, block_no) in self._blocks

    def block_count(self, file_id: int) -> int:
        return sum(1 for fid, _ in self._blocks if fid == file_id)

    def block_numbers(self, file_id: int) -> List[int]:
        """Sorted block numbers present on disk for one file — the public
        enumeration API recovery uses instead of touching ``_blocks``."""
        return sorted(no for fid, no in self._blocks if fid == file_id)

    def fingerprint(self) -> str:
        """A canonical rendering of the entire disk image, for asserting
        that two recovery paths converge to the same bytes."""
        parts = []
        for key in sorted(self._blocks):
            block = self._blocks[key]
            parts.append(f"{key}:used={block.used}:{block.slots!r}")
        return "\n".join(parts)


class BufferPool:
    """LRU cache of blocks in front of a :class:`Disk`.

    ``capacity`` is in blocks (minimum 1).  Cold-cache measurements call
    :meth:`invalidate` between runs instead of disabling buffering.

    Thread-safety: frame-map and dirty-set mutations run under one
    re-entrant lock, while actual device reads happen *outside* it —
    concurrent morsel workers therefore overlap their (possibly
    latency-modeled) misses instead of serializing on the pool.  A
    per-block single-flight table collapses a thundering herd of readers
    of the same block into one physical read.  Eviction is O(1): the
    frames are an :class:`~collections.OrderedDict` and the LRU victim
    pops from the cold end, regardless of pool size.
    """

    def __init__(self, disk: Disk, capacity: int = 256):
        if capacity < 1:
            raise StorageError(f"buffer pool capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        #: optional write-ahead log; forced before any data-block write
        self.wal = None
        #: optional :class:`~repro.storage.faults.RetryPolicy` applied to
        #: every disk access this pool makes (transient-fault absorption)
        self.retry = None
        #: optional trace recorder (repro.trace.attach_tracing)
        self.trace = None
        self._frames: "OrderedDict[Tuple[int,int], Block]" = OrderedDict()
        self._dirty: set = set()
        # Rank 10 — the leaf of the declared lock hierarchy
        # (analysis/lock_order.py): nothing else may be acquired while
        # this is held.
        self._lock = ranked_lock("storage.buffer")
        #: in-flight physical reads: key -> Event set once installed
        self._loading: Dict[Tuple[int, int], threading.Event] = {}
        self.stats = IOStats()

    # -- Device access (retry-wrapped) -------------------------------------------

    def _disk_read(self, file_id: int, block_no: int) -> Block:
        if self.retry is not None:
            return self.retry.call(self.disk.read, file_id, block_no)
        return self.disk.read(file_id, block_no)

    def _disk_write(self, file_id: int, block_no: int, block: Block) -> None:
        if self.retry is not None:
            self.retry.call(self.disk.write, file_id, block_no, block)
        else:
            self.disk.write(file_id, block_no, block)

    # -- Block access -----------------------------------------------------------

    def get(self, file_id: int, block_no: int) -> Block:
        """Fetch a block for reading or in-place mutation.

        The caller must call :meth:`mark_dirty` after mutating.

        On a miss, exactly one caller becomes the *loader* for the block
        and performs the device read outside the pool lock; every other
        concurrent caller waits on the loader's event and then re-probes
        the frame map (looping, because a tiny pool may have evicted the
        freshly installed block again before the waiter woke up).
        """
        key = (file_id, block_no)
        first_probe = True
        while True:
            with self._lock:
                if first_probe:
                    self.stats.logical_reads += 1
                    first_probe = False
                block = self._frames.get(key)
                if block is not None:
                    self._frames.move_to_end(key)
                    return block
                waiter = self._loading.get(key)
                if waiter is None:
                    waiter = threading.Event()
                    self._loading[key] = waiter
                    break               # this thread is the loader
            waiter.wait()
        try:
            block = self._disk_read(file_id, block_no)
        except BaseException:
            with self._lock:
                self._loading.pop(key, None)
            waiter.set()
            raise
        with self._lock:
            self.stats.physical_reads += 1
            trace = self.trace
            if trace is not None and trace.enabled:
                trace.count("storage.physical_reads")
            self._install(key, block)
            self._loading.pop(key, None)
        waiter.set()
        return block

    def mark_dirty(self, file_id: int, block_no: int,
                   block: Optional[Block] = None) -> None:
        """Flag a resident block as mutated.

        A writer's frame can be evicted by a concurrent reader between
        its ``get()`` and this call — the eviction would then write back
        the *pre-mutation* image and this method used to raise, losing
        the update.  Passing the mutated ``block`` closes that race: the
        caller's image is re-installed and dirtied.  Without ``block``
        a non-resident key still raises (the historical contract).
        """
        key = (file_id, block_no)
        with self._lock:
            if key not in self._frames:
                if block is None:
                    raise StorageError(
                        f"block {key} not resident; cannot dirty it")
                self._install(key, block)
            self._dirty.add(key)

    def _install(self, key: Tuple[int, int], block: Block) -> None:
        # Caller holds self._lock.
        self._frames[key] = block
        self._evict_down_to(self.capacity)

    def _evict_down_to(self, capacity: int) -> None:  # noqa: SIM303
        # Caller holds self._lock.
        while len(self._frames) > capacity:
            victim_key, victim = self._frames.popitem(last=False)
            if victim_key in self._dirty:
                if self.wal is not None:
                    self.wal.force()   # the WAL rule: log before data
                self._disk_write(*victim_key, victim)
                self.stats.physical_writes += 1
                trace = self.trace
                if trace is not None and trace.enabled:
                    trace.count("storage.physical_writes")
                self._dirty.discard(victim_key)

    # -- Maintenance --------------------------------------------------------------

    def flush(self) -> None:
        """Write all dirty blocks back to disk (keeps them resident)."""
        with self._lock:
            if self.wal is not None and self._dirty:
                # The WAL rule: log reaches disk before any data page it
                # covers.  Forcing under the pool lock is deliberate —
                # no page may be written (or redirtied) mid-force.
                self.wal.force()  # noqa: SIM302
            trace = self.trace
            tracing = trace is not None and trace.enabled
            for key in sorted(self._dirty):
                self._disk_write(*key, self._frames[key])
                self.stats.physical_writes += 1
                if tracing:
                    trace.count("storage.physical_writes")
                self._dirty.discard(key)

    def invalidate(self) -> None:
        """Drop every frame (flushing dirty ones) — a cold cache."""
        with self._lock:
            self.flush()
            self._frames.clear()

    def resize(self, capacity: int) -> None:
        if capacity < 1:
            raise StorageError(f"buffer pool capacity must be >= 1, got {capacity}")
        with self._lock:
            self.capacity = capacity
            self._evict_down_to(capacity)

    @property
    def resident_blocks(self) -> int:
        with self._lock:
            return len(self._frames)
