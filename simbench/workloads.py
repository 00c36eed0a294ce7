"""The benchmark's three workloads and their output checks.

``university`` and ``scale`` run in the benchmark's own process: one
caller, closed loop, whole passes over a fixed statement list.
``server-rw`` drives a :class:`~repro.interfaces.server.SimServer` that
runs in its own process (``simbench/server_proc.py``) from two
:class:`~repro.interfaces.server.SimClient` connections.

Every workload takes a seed; the program sees only the data and the
statements generated from it.  Every run uses the program's default
knobs and ``Disk.read_latency = 0`` (pure CPU, no modeled device sleep).
Latencies and rates are in reference seconds (``simbench/hostspeed.py``).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.database import Database
from repro.errors import SimError
from repro.interfaces.server import SimClient
from repro.mapper.physical import PhysicalDesign
from repro.types.tvl import is_null
from repro.workloads.generators import (populate_scale, scale_queries,
                                        scale_schema)
from repro.workloads.university import (UNIVERSITY_DDL, UNIVERSITY_QUERIES,
                                        build_university,
                                        populate_university)
from simbench.hostspeed import HostSpeed, scale_now

HERE = os.path.dirname(os.path.abspath(__file__))

#: full and test sizes per workload (the tests run the tiny ones)
SIZES = {
    "university": {
        "full": dict(departments=4, instructors=25, students=200,
                     courses=24),
        "tiny": dict(departments=2, instructors=6, students=30, courses=8),
    },
    "scale": {
        "full": dict(entities=5000, pool_capacity=128),
        "tiny": dict(entities=400, pool_capacity=16),
    },
    "server-rw": {
        "full": dict(departments=8, instructors=100, students=800,
                     courses=80),
        "tiny": dict(departments=2, instructors=8, students=40, courses=10),
    },
}

SCALE_CHAIN_DEPTH = 3
CLIENTS = 2
#: server-rw rates are medians over slices of this many completed ops
SLICE_OPS = 50
#: first course number of the courses a server-rw client inserts and
#: later deletes; client ``c`` uses ``TEMP_COURSE_BASE[c] + 0..999``
TEMP_COURSE_BASE = (6000, 8000)


@dataclass
class RunStats:
    """What one measured phase produced.  Times are in reference seconds
    (see ``simbench/hostspeed.py``); ``raw_slices`` keeps the slices in
    wall-clock seconds."""

    latencies_ms: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    #: (seconds, ops completed, rows) per slice of the phase: a pass over
    #: the statement list in-process, ``SLICE_OPS`` completions for
    #: server-rw
    slices: List[Tuple[float, int, int]] = field(default_factory=list)
    raw_slices: List[Tuple[float, int, int]] = field(default_factory=list)
    #: the median time of the host-speed kernel over the phase
    kernel_s: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: rows seen per statement text (the traced/untraced agreement check)
    seen: Dict[str, Counter] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def ops_per_s(self, raw: bool = False) -> float:
        """Median over slices: a slice slowed by another tenant of the
        machine moves it less than it moves a whole-phase mean."""
        slices = self.raw_slices if raw else self.slices
        return statistics.median(ops / secs for secs, ops, _ in slices)

    def rows_per_s(self, raw: bool = False) -> float:
        """``ops_per_s`` times the phase's rows per completed op: how many
        rows a slice returns depends on which reads fell in it."""
        completed = sum(ops for _, ops, _ in self.slices)
        return self.ops_per_s(raw) * self.rows / max(1, completed)


def wire_value(value):
    """A result cell as the server's JSON wire format renders it."""
    if is_null(value):
        return None
    if isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def wire_rows(rows) -> Counter:
    return Counter(tuple(wire_value(v) for v in row) for row in rows)


# -- in-process workloads ------------------------------------------------------


class UniversityWorkload:
    """The 12 UNIVERSITY_QUERIES through ``Database.execute``; rows are
    checked against a reference database built from the same seed with
    the optimizer and the rewrite pass off."""

    name = "university"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.statements = list(UNIVERSITY_QUERIES)
        self.db: Optional[Database] = None
        self.expected: Dict[str, Counter] = {}

    def build(self) -> Database:
        db = build_university(seed=self.seed, **self.size)
        db.store.disk.read_latency = 0.0
        return db

    def setup(self) -> None:
        """The system's set-up: build, populate, one warm-up pass."""
        self.db = self.build()
        for text in self.statements:
            self.execute(text)

    def prepare_checks(self) -> None:
        reference = Database(UNIVERSITY_DDL, use_optimizer=False,
                             rewrite=False, constraint_mode="off")
        populate_university(reference, seed=self.seed, **self.size)
        self.expected = {text: Counter(reference.execute(text).rows)
                         for text in self.statements}

    def execute(self, text: str):
        return self.db.execute(text).rows

    def explain(self) -> List[str]:
        return [self.db.explain(text) for text in self.statements]

    def knobs(self) -> Dict[str, object]:
        return database_knobs(self.db, mvcc=False)

    def counters(self) -> Dict[str, int]:
        return store_counters(self.db)


class ScaleWorkload(UniversityWorkload):
    """The six ``scale_queries`` as MVCC snapshot Retrieves through one
    ``Session`` over a database about 3.3 times the buffer pool; rows
    are checked against the same statements run once through
    ``Database.execute`` on a second database built from the same
    seed."""

    name = "scale"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.statements = scale_queries(SCALE_CHAIN_DEPTH)
        self.session = None

    def build(self) -> Database:
        schema = scale_schema(SCALE_CHAIN_DEPTH)
        design = PhysicalDesign(schema,
                                pool_capacity=self.size["pool_capacity"])
        db = Database(schema, design=design.finalize())
        populate_scale(db, self.size["entities"],
                       chain_depth=SCALE_CHAIN_DEPTH, seed=self.seed)
        db.store.disk.read_latency = 0.0
        return db

    def setup(self) -> None:
        self.db = self.build()
        self.session = self.db.session()
        for text in self.statements:
            self.execute(text)

    def prepare_checks(self) -> None:
        # A separate database: reads through Database.execute would fill
        # the read cache that the measured snapshot reads only consult.
        reference = self.build()
        self.expected = {text: Counter(reference.execute(text).rows)
                         for text in self.statements}

    def execute(self, text: str):
        return self.session.execute(text).rows

    def knobs(self) -> Dict[str, object]:
        return database_knobs(self.db, mvcc=self.session.mvcc)


IN_PROCESS = {"university": UniversityWorkload, "scale": ScaleWorkload}


def database_knobs(db: Database, mvcc: bool) -> Dict[str, object]:
    return {"batch_size": db.executor.batch_size,
            "parallelism": db.executor.parallelism,
            "rewrite": db.rewrite,
            "use_optimizer": db.use_optimizer,
            "mvcc": mvcc,
            "constraint_mode": db.constraints.mode,
            "pool_capacity": db.design.pool_capacity,
            "read_latency": db.store.disk.read_latency}


def store_counters(db: Database) -> Dict[str, int]:
    """The program's own cumulative counters, read as deltas around a
    phase: read-path counters, buffer I/O, WAL and lock statistics."""
    counters = dict(db.perf.as_dict())
    io = db.io_stats
    counters["logical_reads"] = io.logical_reads
    counters["physical_reads"] = io.physical_reads
    counters["physical_writes"] = io.physical_writes
    counters["wal_forces"] = db.store.wal.forces
    counters["wal_records"] = db.store.wal.appended
    locks = db.statistics()["locks"]
    for key in ("waits", "deadlocks", "timeouts"):
        counters[f"lock_{key}"] = locks[key]
    return counters


def measure(workload: UniversityWorkload, seconds: float,
            tracer=None) -> RunStats:
    """Whole passes over the statement list until ``seconds`` elapse.

    A statement's latency runs from its text to its rows, scaled to
    reference seconds by the host-speed samples taken around it between
    statements; a pass's time is the sum of its statements'.  A
    statement that raises or returns rows other than the reference's is
    a failed op and contributes no latency sample."""
    stats = RunStats()
    statements = workload.statements
    execute = workload.execute
    expected = workload.expected
    speed = HostSpeed()
    speed.sample()
    #: (began, ended, rows) per completed statement, one list per pass
    passes: List[List[Tuple[float, float, int]]] = []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        done = []
        passes.append(done)
        for text in statements:
            op_id += 1
            stats.attempted += 1
            began = time.perf_counter()
            try:
                if tracer is None:
                    rows = execute(text)
                else:
                    with tracer.op(op_id):
                        rows = execute(text)
            except Exception as exc:  # an op that raised is a failed op
                stats.fail(f"{text!r}: {type(exc).__name__}: {exc}")
                continue
            ended = time.perf_counter()
            speed.maybe_sample()
            got = Counter(rows)
            stats.seen[text] = got
            if got != expected[text]:
                stats.fail(f"{text!r}: rows differ from the reference")
                continue
            done.append((began, ended, len(rows)))
        if time.perf_counter() >= deadline:
            break
    speed.sample()
    for done in passes:
        raw = scaled = 0.0
        for began, ended, rows in done:
            elapsed = ended - began
            elapsed_ref = elapsed * speed.scale(began, ended)
            raw += elapsed
            scaled += elapsed_ref
            stats.latencies_ms.append(elapsed_ref * 1e3)
            stats.kinds.append("read")
            stats.rows += rows
        if done:
            rows = sum(rows for _, _, rows in done)
            stats.slices.append((scaled, len(done), rows))
            stats.raw_slices.append((raw, len(done), rows))
    stats.kernel_s = speed.median_kernel_s()
    return stats


# -- server-rw ---------------------------------------------------------------------

#: (point read, the bulk query its answers are taken from: the key first)
READ_TEMPLATES = (
    ("From student Retrieve name, name of advisor Where soc-sec-no = {key}",
     "From student Retrieve soc-sec-no, name, name of advisor"),
    ("From instructor Retrieve name, name of assigned-department"
     " Where employee-nbr = {key}",
     "From instructor Retrieve employee-nbr, name,"
     " name of assigned-department"),
    ("From course Retrieve title, name of teachers Where course-no = {key}",
     "From course Retrieve course-no, title, name of teachers"),
)

#: the server-rw end state the written values are compared on
STATE_QUERIES = (
    "From instructor Retrieve employee-nbr, salary",
    "From student Retrieve soc-sec-no, course-no of courses-enrolled",
    "From course Retrieve course-no, title, credits",
)


def build_server_database(seed: int, size: Dict[str, int],
                          use_optimizer: bool = True) -> Database:
    """The server-rw database: UNIVERSITY with VERIFY enforcement on."""
    db = Database(UNIVERSITY_DDL, constraint_mode="immediate",
                  use_optimizer=use_optimizer, rewrite=use_optimizer)
    populate_university(db, seed=seed, **size)
    db.store.disk.read_latency = 0.0
    return db


class ServerModel:
    """The generator's view of the server-rw data, built at set-up from
    a reference database (optimizer and rewrite off) seeded like the
    server's: point-read answers, the keys each client may write, and
    every student's original enrollment."""

    def __init__(self, seed: int, size: Dict[str, int]):
        self.reference = build_server_database(seed, size,
                                               use_optimizer=False)
        self.answers: List[Dict[object, Counter]] = []
        for _template, bulk in READ_TEMPLATES:
            by_key: Dict[object, Counter] = {}
            for row in self.reference.execute(bulk).rows:
                cells = tuple(wire_value(v) for v in row)
                by_key.setdefault(cells[0], Counter())[cells[1:]] += 1
            self.answers.append(by_key)
        self.read_keys = [sorted(by_key) for by_key in self.answers]
        students = self.read_keys[0]
        self.course_nos = self.read_keys[2]
        # regular instructors only: teaching assistants carry the
        # 60001.. employee numbers and their own salary scale
        instructors = [k for k in self.read_keys[1] if k < 60001]
        self.enrolled: Dict[int, set] = {}
        for ssn, course_no in self.reference.execute(
                STATE_QUERIES[1]).rows:
            if not is_null(course_no):
                self.enrolled.setdefault(ssn, set()).add(course_no)
        # Each client writes only its own instructors and students, so
        # the two clients' commits commute and never wait on one entity.
        self.partitions = [
            {"instructors": instructors[c::CLIENTS],
             "students": students[c::CLIENTS]} for c in range(CLIENTS)]

    def expected_read(self, template: int, key) -> Counter:
        return self.answers[template].get(key, Counter())


#: the statement kinds of successive write transactions (0 a course
#: insert or delete, 1 an enrollment include or exclude, 2 a salary
#: Modify): every non-empty set, each of size 1 or 2 once and the full
#: one three times, as often as drawing a size of 1-3 and then that many
#: kinds would give them
WRITE_MIX = ((0, 1, 2), (0,), (1, 2), (0, 1, 2), (1,), (0, 2), (0, 1, 2),
             (2,), (0, 1))


class ClientGenerator:
    """One closed-loop client.  Its ops alternate between snapshot point
    Retrieves by a unique key that traverse an EVA (the templates in
    turn) and write transactions of 1-3 statements, committed at the end
    (the statement kinds in ``WRITE_MIX`` order); the keys and values
    are drawn from the seed.  A fixed mix keeps a run's work per op the
    same on every seed."""

    def __init__(self, model: ServerModel, client: int, seed: int):
        self.model = model
        self.client = client
        self.rng = random.Random(seed * 1000 + client)
        self.partition = model.partitions[client]
        self.extras: Dict[int, List[int]] = {}
        self.pending_course: Optional[int] = None
        self.course_counter = 0
        self.ops = 0
        # the clients start at different points of the write mix
        self.mix_start = client * len(WRITE_MIX) // CLIENTS
        #: acknowledged write transactions, in commit order
        self.acked: List[List[str]] = []

    def next_op(self):
        """``("read", text, template, key)`` or ``("write", statements,
        commit_effects)``."""
        rng = self.rng
        self.ops += 1
        if self.ops % 2:
            template = self.ops // 2 % len(READ_TEMPLATES)
            key = rng.choice(self.model.read_keys[template])
            text = READ_TEMPLATES[template][0].format(key=key)
            return ("read", text, template, key)
        kinds = WRITE_MIX[(self.mix_start + self.ops // 2) % len(WRITE_MIX)]
        statements, effects = [], []
        # Canonical statement order: every transaction that touches the
        # course class asks for it first, before it holds anything, so
        # two transactions never wait on each other in a cycle.
        for kind in kinds:
            if kind == 0:
                statement, effect = self._churn()
            elif kind == 1:
                statement, effect = self._enrollment()
            else:
                statement, effect = self._salary()
            statements.append(statement)
            effects.append(effect)
        return ("write", statements, effects)

    def _churn(self):
        """Insert a course, or delete the one inserted before, so the
        data size stays flat."""
        if self.pending_course is not None:
            course_no = self.pending_course
            return (f"Delete course Where course-no = {course_no}",
                    ("pending", None))
        course_no = (TEMP_COURSE_BASE[self.client]
                     + self.course_counter % 1000)
        return (f'Insert course(course-no := {course_no},'
                f' title := "Bench {course_no}", credits := 3)',
                ("pending", course_no))

    def _enrollment(self):
        """Include a course in a student's enrollment (an MV EVA with an
        inverse), or exclude one this client included earlier; VERIFY v1
        holds either way."""
        rng = self.rng
        ssn = rng.choice(self.partition["students"])
        extras = self.extras.get(ssn, [])
        taken = self.model.enrolled.get(ssn, set()) | set(extras)
        free = [c for c in self.model.course_nos if c not in taken]
        if extras and (not free or rng.random() < 0.5):
            course_no = extras[rng.randrange(len(extras))]
            op, effect = "exclude", ("exclude", ssn, course_no)
        else:
            course_no = rng.choice(free)
            op, effect = "include", ("include", ssn, course_no)
        return (f"Modify student(courses-enrolled := {op} course with"
                f" (course-no = {course_no})) Where soc-sec-no = {ssn}",
                effect)

    def _salary(self):
        """A Modify under VERIFY v2 (salary + bonus < 100000)."""
        rng = self.rng
        employee = rng.choice(self.partition["instructors"])
        salary = rng.randrange(300, 800) * 100
        return (f"Modify instructor(salary := {salary})"
                f" Where employee-nbr = {employee}", ("salary",))

    def committed(self, statements: List[str], effects) -> None:
        """Advance the model past an acknowledged commit."""
        self.acked.append(statements)
        for effect in effects:
            if effect[0] == "pending":
                self.pending_course = effect[1]
                if effect[1] is not None:
                    self.course_counter += 1
            elif effect[0] == "include":
                self.extras.setdefault(effect[1], []).append(effect[2])
            elif effect[0] == "exclude":
                self.extras[effect[1]].remove(effect[2])


class ServerProcess:
    """The benchmark's server launcher, driven over its stdin/stdout."""

    def __init__(self, root: str, seed: int, size: str):
        before = scale_now()
        self.began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_proc.py"),
             "--seed", str(seed), "--size", size],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            self.ready = self._reply()
        except BaseException:
            self.kill()
            raise
        #: from spawning to ready, in wall-clock and reference seconds
        self.setup_wall_s = time.perf_counter() - self.began
        self.setup_s = self.setup_wall_s * (before + scale_now()) / 2
        self.port = self.ready["port"]

    def _reply(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server process exited without replying")
        return json.loads(line)

    def command(self, **request) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        return self._reply()

    def stop(self, spans_path: Optional[str] = None) -> dict:
        try:
            report = self.command(cmd="stop", spans=spans_path)
            self.process.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


class OpGate:
    """Holds server-rw ops back while a host-speed sample runs, so the
    kernel has the CPU to itself: the sample waits until no op is in
    flight, and an op waits until no sample is running.  ``pauses`` are
    the samples' intervals, which slices leave out of their time."""

    def __init__(self):
        self._cond = threading.Condition()
        self._sampling = False
        self._active = 0
        self.pauses: List[Tuple[float, float]] = []

    @contextmanager
    def op(self):
        with self._cond:
            while self._sampling:
                self._cond.wait()
            self._active += 1
        try:
            yield
        finally:
            with self._cond:
                self._active -= 1
                self._cond.notify_all()

    @contextmanager
    def quiet(self):
        with self._cond:
            self._sampling = True
            while self._active:
                self._cond.wait()
        began = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            with self._cond:
                self._sampling = False
                self.pauses.append((began, ended))
                self._cond.notify_all()

    def paused(self, begin: float, end: float) -> float:
        """Seconds of ``[begin, end]`` that samples held the ops back."""
        return sum(max(0.0, min(end, stop) - max(begin, start))
                   for start, stop in self.pauses)


def drive_clients(port: int, generators: List[ClientGenerator],
                  seconds: float, tracer=None) -> RunStats:
    """Run every generator on its own connection until ``seconds``
    elapse.  A write transaction is one op, timed from its first
    statement to the commit acknowledgement; a read's rows must be its
    key's rows.  Host-speed samples are taken in a thread of their own,
    between ops, and scale every latency and slice to reference
    seconds."""
    stats = RunStats()
    lock = threading.Lock()
    gate = OpGate()
    speed = HostSpeed().start(gate.quiet)
    start = time.perf_counter_ns()
    deadline = start / 1e9 + seconds
    errors: List[BaseException] = []
    done: List[Tuple[int, int, int, str]] = []  # (ended, began, rows, kind)

    def loop(generator: ClientGenerator) -> None:
        local = RunStats()
        finished = []
        client = SimClient("127.0.0.1", port)
        try:
            op_id = generator.client
            while time.perf_counter() < deadline:
                op = generator.next_op()
                op_id += CLIENTS
                local.attempted += 1
                with gate.op():
                    began = time.perf_counter_ns()
                    try:
                        if op[0] == "read":
                            rows = client.query(op[1]).rows
                        else:
                            for statement in op[1]:
                                client.execute(statement)
                            client.commit()
                            rows = ()
                    except Exception as exc:  # raised or shed: failed
                        local.fail(
                            f"{op[1]!r}: {type(exc).__name__}: {exc}")
                        try:
                            client.abort()
                        except Exception:
                            pass
                        continue
                    ended = time.perf_counter_ns()
                if op[0] == "read":
                    got = wire_rows(rows)
                    if got != generator.model.expected_read(op[2], op[3]):
                        local.fail(f"{op[1]!r}: wrong rows {sorted(got)}")
                        continue
                else:
                    generator.committed(op[1], op[2])
                finished.append((ended, began, len(rows), op[0]))
                if tracer is not None:
                    tracer.add_op_span(op_id, began, ended)
        except BaseException as exc:
            errors.append(exc)
        finally:
            client.close()
            with lock:
                done.extend(finished)
                stats.attempted += local.attempted
                stats.failed += local.failed
                stats.failures.extend(local.failures[:5])

    threads = [threading.Thread(target=loop, args=(g,),
                                name=f"simbench-client-{g.client}")
               for g in generators]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
    finally:
        speed.stop()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a server-rw client did not finish")
    if errors:
        raise errors[0]
    done.sort()
    for ended, began, rows, kind in done:
        elapsed = (ended - began) / 1e9
        stats.latencies_ms.append(
            elapsed * speed.scale(began / 1e9, ended / 1e9) * 1e3)
        stats.kinds.append(kind)
        stats.rows += rows
    size = min(SLICE_OPS, len(done)) or 1
    previous = start
    for first in range(0, len(done) - size + 1, size):
        group = done[first:first + size]
        ended = group[-1][0]
        raw = ((ended - previous) / 1e9
               - gate.paused(previous / 1e9, ended / 1e9))
        rows = sum(rows for _, _, rows, _ in group)
        stats.raw_slices.append((raw, size, rows))
        stats.slices.append(
            (raw * speed.scale(previous / 1e9, ended / 1e9), size, rows))
        previous = ended
    stats.kernel_s = speed.median_kernel_s()
    return stats


def check_server_state(model: ServerModel,
                       generators: List[ClientGenerator],
                       observed: List[Counter]) -> List[str]:
    """Replay every acknowledged commit on the reference database and
    compare the written values with the server's.  The clients' commits
    touch disjoint keys, so replaying client by client is a valid
    commit order.  Returns one message per mismatching query."""
    reference = model.reference
    problems = []
    for generator in generators:
        for statements in generator.acked:
            for statement in statements:
                try:
                    reference.execute(statement)
                except SimError as exc:
                    problems.append(f"replay of {statement!r} failed: "
                                    f"{type(exc).__name__}: {exc}")
    for text, got in zip(STATE_QUERIES, observed):
        want = wire_rows(reference.execute(text).rows)
        if got != want:
            missing = sorted((want - got).items())[:3]
            extra = sorted((got - want).items())[:3]
            problems.append(f"{text!r}: missing {missing}, extra {extra}")
    return problems


def read_server_state(port: int) -> List[Counter]:
    with SimClient("127.0.0.1", port) as client:
        return [wire_rows(client.query(text).rows)
                for text in STATE_QUERIES]
