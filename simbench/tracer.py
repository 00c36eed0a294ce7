"""Timing wrappers installed around the program's layer boundaries.

The program is not edited: :class:`Tracer` replaces a public function or
method with a wrapper that records one span per call and restores the
original on :meth:`Tracer.uninstall`.  Each thread keeps a stack of open
frames, so a span knows its parent and a layer's *self* time is its
duration minus the time its wrapped children cover.

Per group (one group may wrap several functions of one layer) the tracer
keeps the call count, the *inclusive* time of outermost calls (a call
nested inside another call of the same group is not counted twice) and
the *self* time.  Spans are kept in memory, up to ``span_cap`` per
thread, and written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: (module, owner or None for a module function, attribute, group).  The
#: groups are the per-layer metric families of the benchmark's doc.
READ_LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.dml.parser", None, "parse_dml", "dml.parse"),
    ("repro.database", None, "parse_dml", "dml.parse"),
    ("repro.engine.sessions", None, "parse_dml", "dml.parse"),
    ("repro.dml.qualification", "Qualifier", "resolve_retrieve",
     "dml.qualify"),
    ("repro.analysis", None, "lint_retrieve", "analysis.lint"),
    ("repro.analysis", None, "lint_update", "analysis.lint"),
    ("repro.analysis", None, "verify_plan", "analysis.verify"),
    ("repro.optimizer.strategies", "Optimizer", "choose_plan",
     "optimizer.plan"),
    ("repro.optimizer.physical_plan", None, "lower_plan",
     "optimizer.lower"),
    ("repro.engine.executor", "QueryExecutor", "run", "executor"),
    ("repro.engine.access", "EntityAccessor", "dva", "access"),
    ("repro.engine.access", "EntityAccessor", "dva_batch", "access"),
    ("repro.engine.access", "EntityAccessor", "eva_targets", "access"),
    ("repro.engine.access", "EntityAccessor", "eva_targets_batch",
     "access"),
    ("repro.engine.access", "EntityAccessor", "node_domains_batch",
     "access"),
    ("repro.mapper.store", "MapperStore", "fetch_many", "mapper.read"),
    ("repro.mapper.store", "MapperStore", "record_of", "mapper.read"),
    ("repro.mapper.store", "MapperStore", "traverse_eva_batch",
     "mapper.read"),
    ("repro.mapper.store", "MapperStore", "eva_targets", "mapper.read"),
    ("repro.mapper.store", "MapperStore", "has_role", "mapper.read"),
    ("repro.mapper.store", "MapperStore", "read_dva", "mapper.read"),
    ("repro.mapper.store", "MapperStore", "scan_class", "mapper.read"),
    ("repro.mapper.versions", "VersionManager", "lookup",
     "versions.lookup"),
    ("repro.mapper.store", "MapperStore", "begin_snapshot",
     "versions.snapshot"),
    ("repro.mapper.store", "MapperStore", "end_snapshot",
     "versions.snapshot"),
    ("repro.storage.buffer", "BufferPool", "get", "buffer.get"),
    ("repro.storage.buffer", "Disk", "read", "disk.read"),
    ("repro.perf", "PerfCounters", "bump", "perf.bump"),
    ("repro.engine.lockdep", "RankedLock", "acquire", "latch.acquire"),
    ("repro.engine.lockdep", "RankedLock", "release", "latch.release"),
)

WRITE_LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.engine.updates", "UpdateEngine", "execute", "updates"),
    ("repro.engine.constraints", "ConstraintManager", "after_statement",
     "constraints.check"),
    ("repro.engine.constraints", "ConstraintManager", "before_commit",
     "constraints.check"),
    ("repro.mapper.store", "MapperStore", "write_dva", "mapper.write"),
    ("repro.mapper.store", "MapperStore", "insert_entity", "mapper.write"),
    ("repro.mapper.store", "MapperStore", "remove_role", "mapper.write"),
    ("repro.mapper.store", "MapperStore", "eva_include", "mapper.write"),
    ("repro.mapper.store", "MapperStore", "eva_exclude", "mapper.write"),
    ("repro.engine.sessions", "LockManager", "acquire", "locks.acquire"),
    ("repro.engine.sessions", "Session", "commit", "sessions.commit"),
    ("repro.storage.transactions", "TransactionManager",
     "commit_detached", "commit"),
    ("repro.storage.buffer", "BufferPool", "flush", "buffer.flush"),
    ("repro.storage.buffer", "Disk", "write", "disk.write"),
    ("repro.storage.wal", "WriteAheadLog", "force", "wal.force"),
)

LAYERS = READ_LAYERS + WRITE_LAYERS

#: in the server process the statement entry point is wrapped too: the
#: client's round trip minus these spans is the server's own overhead
SERVER_LAYERS = LAYERS + (
    ("repro.engine.sessions", "Session", "execute", "sessions.execute"),)

#: ``(inner, outer)``: count calls of ``inner`` made while ``outer`` is
#: open on the same thread (pages written by the commit path).
NESTED_COUNTS = (("disk.write", "commit"),)

OP = "op"


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: List[list] = []
        self.open: Dict[str, int] = {}
        self.registered = False
        self.op_id = -1


class Tracer:
    """Spans and per-group aggregates for one traced run."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        #: per-thread aggregates, merged by :meth:`totals`
        self._aggregates: List[Dict[str, List[int]]] = []
        self._nested: List[Dict[Tuple[str, str], int]] = []
        self._spans: List[list] = []
        self._dropped: List[List[int]] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, layers=LAYERS) -> "Tracer":
        for module_name, owner_name, attribute, group in layers:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, group))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def wrap(self, function, group: str):
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(function):
            # Time each resumption; the consumer's work between two
            # resumptions belongs to the consumer.
            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    frame = enter(group)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield item
            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = enter(group)
            try:
                return function(*args, **kwargs)
            finally:
                leave(frame)
        return traced

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = self._tls
        if not state.registered:
            state.registered = True
            state.aggregates = {}
            state.nested = {}
            state.spans = []
            state.dropped = [0]
            with self._lock:
                self._aggregates.append(state.aggregates)
                self._nested.append(state.nested)
                self._spans.append(state.spans)
                self._dropped.append(state.dropped)
        return state

    def _enter(self, group: str) -> list:
        state = self._state()
        stack = state.stack
        parent = stack[-1][0] if stack else 0
        opened = state.open
        opened[group] = opened.get(group, 0) + 1
        # [span id, group, start, child time, parent id]
        frame = [next(self._ids), group, 0, 0, parent]
        stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter_ns()
        state = self._tls
        stack = state.stack
        stack.pop()
        span_id, group, start, child, parent = frame
        duration = end - start
        opened = state.open
        depth = opened[group] - 1
        opened[group] = depth
        aggregate = state.aggregates.get(group)
        if aggregate is None:
            aggregate = state.aggregates[group] = [0, 0, 0]
        aggregate[0] += 1
        if depth == 0:
            aggregate[1] += duration
        aggregate[2] += duration - child
        if stack:
            stack[-1][3] += duration
        for inner, outer in NESTED_COUNTS:
            if group == inner and opened.get(outer):
                key = (inner, outer)
                state.nested[key] = state.nested.get(key, 0) + 1
        spans = state.spans
        if len(spans) < self.span_cap:
            spans.append((span_id, group, start, end, parent, state.op_id))
        else:
            state.dropped[0] += 1

    def op(self, op_id: int) -> "_OpScope":
        """The root span of one op: every span opened inside it on this
        thread carries ``op_id``."""
        return _OpScope(self, op_id)

    def add_op_span(self, op_id: int, start: int, end: int) -> None:
        """Record an op whose children ran in another process."""
        state = self._state()
        aggregate = state.aggregates.setdefault(OP, [0, 0, 0])
        aggregate[0] += 1
        aggregate[1] += end - start
        aggregate[2] += end - start
        if len(state.spans) < self.span_cap:
            state.spans.append((next(self._ids), OP, start, end, 0, op_id))
        else:
            state.dropped[0] += 1

    # -- results -------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Spans not kept because their thread reached ``span_cap``."""
        with self._lock:
            return sum(count[0] for count in self._dropped)

    def totals(self) -> Dict[str, Dict[str, int]]:
        """``group -> {"calls", "incl_ns", "self_ns"}`` over all threads."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            aggregates = list(self._aggregates)
        for aggregate in aggregates:
            for group, (calls, incl, self_ns) in list(aggregate.items()):
                total = merged.setdefault(group, [0, 0, 0])
                total[0] += calls
                total[1] += incl
                total[2] += self_ns
        return {group: {"calls": c, "incl_ns": i, "self_ns": s}
                for group, (c, i, s) in merged.items()}

    def nested_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        with self._lock:
            nested = list(self._nested)
        for counts in nested:
            for (inner, outer), count in list(counts.items()):
                key = f"{inner}@{outer}"
                merged[key] = merged.get(key, 0) + count
        return merged

    def write_spans(self, path: str, process: str) -> int:
        """Write every kept span as one JSON line; returns the count."""
        with self._lock:
            threads = list(self._spans)
        written = 0
        with open(path, "a", encoding="utf-8") as out:
            for spans in threads:
                for span_id, group, start, end, parent, op_id in spans:
                    out.write(json.dumps({
                        "process": process, "id": span_id, "name": group,
                        "start_ns": start, "end_ns": end,
                        "parent": parent, "op": op_id}) + "\n")
                    written += 1
        return written


class _OpScope:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        state = self.tracer._state()
        state.op_id = self.op_id
        self.frame = self.tracer._enter(OP)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._leave(self.frame)
        self.tracer._tls.op_id = -1
        return False


def since(totals: Dict[str, Dict[str, int]],
          baseline: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Per-group totals accumulated after ``baseline`` was taken."""
    result = {}
    for group, values in totals.items():
        base = baseline.get(group, {})
        result[group] = {key: value - base.get(key, 0)
                         for key, value in values.items()}
    return result
