"""The server-rw database process: builds the database, serves it with a
``SimServer`` and answers the benchmark's commands on stdin.

Run by ``simbench/run.py``; not meant to be started by hand::

    python3 simbench/server_proc.py --seed 1 --size full

It prints one JSON line when it is ready (``{"port", "knobs"}``), then reads
one JSON command per line and answers each with one JSON line:

* ``{"cmd": "counters"}`` - the program's cumulative counters and,
  once tracing is on, the per-layer aggregates since it was turned on;
* ``{"cmd": "trace", "statements": [...]}`` - install the timing
  wrappers; the reply says whether ``Database.explain`` gave the same
  text for each statement before and after;
* ``{"cmd": "stop", "spans": path-or-null}`` - stop the server, run
  ``Database.check()``, report counters and peak RSS, write the spans,
  and exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from repro.engine.sessions import Session
    from simbench.tracer import SERVER_LAYERS, Tracer, since
    from simbench.workloads import (READ_TEMPLATES, SIZES,
                                    build_server_database, database_knobs,
                                    store_counters)

    # The benchmark's registry of server sessions, for their deadlock
    # retry counts; wraps the public constructor, changes nothing else.
    sessions = []
    original_init = Session.__init__

    def registering_init(self, *a, **kw):
        original_init(self, *a, **kw)
        sessions.append(self)
    Session.__init__ = registering_init

    db = build_server_database(args.seed, SIZES["server-rw"][args.size])
    warm = db.session()
    for template, bulk in READ_TEMPLATES:
        for row in db.execute(bulk).rows[:4]:
            warm.execute(template.format(key=row[0]))
    server = db.serve(port=0)

    def counters():
        values = store_counters(db)
        stats = server.statistics()
        values["shed"] = stats["shed"]
        values["queued_peak"] = stats["queued_peak"]
        values["deadlock_retries"] = sum(s.deadlock_retries
                                         for s in list(sessions))
        return values

    def reply(message) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"port": server.port, "knobs": database_knobs(db, mvcc=True)})
    tracer = None
    baseline = {}
    try:
        for line in sys.stdin:
            request = json.loads(line)
            cmd = request["cmd"]
            if cmd == "counters":
                message = {"counters": counters()}
                if tracer is not None:
                    message["totals"] = since(tracer.totals(), baseline)
                    message["nested"] = tracer.nested_counts()
                reply(message)
            elif cmd == "trace":
                statements = request["statements"]
                before = [db.explain(text) for text in statements]
                tracer = Tracer().install(SERVER_LAYERS)
                after = [db.explain(text) for text in statements]
                baseline = tracer.totals()
                reply({"explain_same": before == after,
                       "counters": counters()})
            elif cmd == "stop":
                server.stop()
                if tracer is not None:
                    tracer.uninstall()
                message = {
                    "counters": counters(),
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }
                report = db.check()
                message["check_ok"] = report.ok
                message["check"] = "" if report.ok else str(report)[:2000]
                if tracer is not None:
                    message["spans_dropped"] = tracer.dropped
                    if request.get("spans"):
                        message["spans_written"] = tracer.write_spans(
                            request["spans"], "server")
                reply(message)
                return 0
            else:
                reply({"error": f"unknown command {cmd!r}"})
    finally:
        server.stop(drain_timeout=1.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
