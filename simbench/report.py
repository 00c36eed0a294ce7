"""Metric names, units and the arithmetic that turns a run into them."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from typing import Dict, List, Optional

#: end-to-end metrics every workload reports with tracing off; these are
#: the ones BENCHMARK.json lists and bounds
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: end-to-end metrics reported where they apply: a percentile needs ten
#: samples beyond it, read/write medians need both kinds of op, and the
#: failed fraction is zero on a clean run; the two rates in wall-clock
#: seconds and the host-speed kernel's median time show what the
#: reference-second rates were scaled from
END_TO_END_EXTRA = {
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "read_p50_ms": "ms",
    "write_p50_ms": "ms",
    "ops_failed_frac": "ratio",
    "wall_ops_per_s": "1/s",
    "wall_rows_per_s": "1/s",
    "host_kernel_ms": "ms",
}

#: per-layer metrics of the traced run: name -> (unit, listed), where
#: ``listed`` marks the ones every workload reports and BENCHMARK.json
#: names.  The others time a layer that some workload never enters.
PER_LAYER = {
    "dml.parse_ms": ("ms", True),
    "dml.qualify_ms": ("ms", True),
    "analysis.lint_ms": ("ms", True),
    "analysis.verify_ms": ("ms", True),
    "optimizer.plan_ms": ("ms", True),
    "optimizer.lower_ms": ("ms", True),
    "optimizer.rewrites": ("count/op", True),
    "executor.self_ms": ("ms", True),
    "executor.batches": ("count/op", True),
    "executor.batch_rows": ("count/op", True),
    "access.self_ms": ("ms", True),
    "access.memo_hits": ("count/op", True),
    "access.memo_misses": ("count/op", True),
    "access.memo_hit_ratio": ("ratio", True),
    "mapper.read_ms": ("ms", True),
    "mapper.records_decoded": ("count/op", True),
    "mapper.read_cache_hit_ratio": ("ratio", True),
    "versions.lookups": ("count/op", True),
    "versions.lookup_ms": ("ms", False),
    "versions.snapshot_ms": ("ms", False),
    "buffer.logical_reads": ("count/op", True),
    "buffer.physical_reads": ("count/op", True),
    "buffer.hit_ratio": ("ratio", True),
    "buffer.get_ms": ("ms", True),
    "disk.read_ms": ("ms", False),
    "perf.bumps": ("count/op", True),
    "perf.bump_ms": ("ms", True),
    "latch.acquires": ("count/op", True),
    "latch.ms": ("ms", True),
    "updates.self_ms": ("ms", False),
    "constraints.check_ms": ("ms", False),
    "mapper.write_ms": ("ms", False),
    "locks.acquires": ("count/op", True),
    "locks.wait_ms": ("ms", False),
    "locks.waits": ("count", True),
    "locks.deadlocks": ("count", True),
    "locks.timeouts": ("count", True),
    "sessions.deadlock_retries": ("count", True),
    "commit.ms": ("ms", False),
    "commit.pages_flushed": ("count/op", True),
    "disk.write_ms": ("ms", False),
    "wal.forces": ("count/op", True),
    "wal.records": ("count/op", True),
    "wal.force_ms": ("ms", False),
    "server.overhead_ms": ("ms", False),
    "server.shed": ("count", True),
    "server.queued_peak": ("count", True),
    "untraced_ms": ("ms", True),
    "trace.overhead_frac": ("ratio", True),
}

REWRITE_COUNTERS = ("rewrite_subclass_prunes", "rewrite_empty_extents",
                    "rewrite_eva_flips", "rewrite_exists_reorders",
                    "rewrite_traversal_factorings")


def percentile(values: List[float], pct: int) -> Optional[float]:
    """The ``pct``-th percentile, or None unless at least ten samples
    lie beyond it."""
    count = len(values)
    if count * (100 - pct) / 100.0 < 10:
        return None
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(stats, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric that applies to one untraced phase."""
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": stats.ops_per_s(),
        "rows_per_s": stats.rows_per_s(),
        "peak_rss_mb": peak_rss_mb,
        "ops_failed_frac": stats.failed / max(1, stats.attempted),
        "wall_ops_per_s": stats.ops_per_s(raw=True),
        "wall_rows_per_s": stats.rows_per_s(raw=True),
        "host_kernel_ms": stats.kernel_s * 1e3,
    }
    for pct in (50, 90, 99):
        value = percentile(stats.latencies_ms, pct)
        if value is not None:
            metrics[f"latency_p{pct}_ms"] = value
    kinds = set(stats.kinds)
    if kinds == {"read", "write"}:
        for kind in ("read", "write"):
            value = percentile([ms for ms, k in zip(stats.latencies_ms,
                                                    stats.kinds)
                                if k == kind], 50)
            if value is not None:
                metrics[f"{kind}_p50_ms"] = value
    return metrics


def layer_metrics(totals: Dict[str, Dict[str, int]], nested: Dict[str, int],
                  delta: Dict[str, int], ops: int, op_ns: int,
                  covered_ns: int, overhead_frac: float) -> Dict[str, float]:
    """Per-layer metrics of one traced phase, per op.

    ``totals`` are the tracer's per-group aggregates in the database
    process, ``delta`` the program's counters over the phase, ``op_ns``
    the ops' total wall time and ``covered_ns`` the part of it spent in
    the database's own entry points (zero in-process, where the op's
    children are the layers themselves)."""
    ops = max(1, ops)

    def group(name: str, key: str) -> int:
        return totals.get(name, {}).get(key, 0)

    def incl_ms(name: str) -> float:
        return group(name, "incl_ns") / 1e6 / ops

    def self_ms(name: str) -> float:
        return group(name, "self_ns") / 1e6 / ops

    def calls(name: str) -> float:
        return group(name, "calls") / ops

    def per_op(key: str) -> float:
        return delta.get(key, 0) / ops

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    logical = delta.get("logical_reads", 0)
    physical = delta.get("physical_reads", 0)
    if covered_ns:
        untraced = (op_ns - covered_ns) / 1e6 / ops
    else:
        untraced = self_ms("op")
    return {
        "dml.parse_ms": incl_ms("dml.parse"),
        "dml.qualify_ms": incl_ms("dml.qualify"),
        "analysis.lint_ms": incl_ms("analysis.lint"),
        "analysis.verify_ms": incl_ms("analysis.verify"),
        "optimizer.plan_ms": incl_ms("optimizer.plan"),
        "optimizer.lower_ms": incl_ms("optimizer.lower"),
        "optimizer.rewrites": sum(delta.get(k, 0)
                                  for k in REWRITE_COUNTERS) / ops,
        "executor.self_ms": self_ms("executor"),
        "executor.batches": per_op("batches_dispatched"),
        "executor.batch_rows": per_op("batch_rows"),
        "access.self_ms": self_ms("access"),
        "access.memo_hits": per_op("memo_hits"),
        "access.memo_misses": per_op("memo_misses"),
        "access.memo_hit_ratio": ratio(delta.get("memo_hits", 0),
                                       delta.get("memo_misses", 0)),
        "mapper.read_ms": incl_ms("mapper.read"),
        "mapper.records_decoded": per_op("records_decoded"),
        "mapper.read_cache_hit_ratio": ratio(
            delta.get("record_cache_hits", 0)
            + delta.get("fanout_cache_hits", 0),
            delta.get("record_cache_misses", 0)
            + delta.get("fanout_cache_misses", 0)),
        "versions.lookups": calls("versions.lookup"),
        "versions.lookup_ms": incl_ms("versions.lookup"),
        "versions.snapshot_ms": incl_ms("versions.snapshot"),
        "buffer.logical_reads": logical / ops,
        "buffer.physical_reads": physical / ops,
        "buffer.hit_ratio": 1.0 - physical / logical if logical else 0.0,
        "buffer.get_ms": incl_ms("buffer.get"),
        "disk.read_ms": incl_ms("disk.read"),
        "perf.bumps": calls("perf.bump"),
        "perf.bump_ms": incl_ms("perf.bump"),
        "latch.acquires": calls("latch.acquire"),
        "latch.ms": incl_ms("latch.acquire") + incl_ms("latch.release"),
        "updates.self_ms": self_ms("updates"),
        "constraints.check_ms": incl_ms("constraints.check"),
        "mapper.write_ms": incl_ms("mapper.write"),
        "locks.acquires": calls("locks.acquire"),
        "locks.wait_ms": incl_ms("locks.acquire"),
        "locks.waits": delta.get("lock_waits", 0),
        "locks.deadlocks": delta.get("lock_deadlocks", 0),
        "locks.timeouts": delta.get("lock_timeouts", 0),
        "sessions.deadlock_retries": delta.get("deadlock_retries", 0),
        "commit.ms": incl_ms("commit"),
        "commit.pages_flushed": nested.get("disk.write@commit", 0) / ops,
        "disk.write_ms": incl_ms("disk.write"),
        "wal.forces": per_op("wal_forces"),
        "wal.records": per_op("wal_records"),
        "wal.force_ms": incl_ms("wal.force"),
        "server.overhead_ms": ((op_ns - covered_ns) / 1e6 / ops
                               if covered_ns else 0.0),
        "server.shed": delta.get("shed", 0),
        "server.queued_peak": delta.get("queued_peak", 0),
        "untraced_ms": untraced,
        "trace.overhead_frac": overhead_frac,
    }


def counter_delta(after: Dict[str, int], before: Dict[str, int]
                  ) -> Dict[str, int]:
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    # a peak is a level, not an amount
    if "queued_peak" in after:
        delta["queued_peak"] = after["queued_peak"]
    return delta


def metadata(root: str, seed: int, heldout: bool, traced: bool,
             knobs: Dict[str, object]) -> Dict[str, object]:
    """What a result needs to be compared with another."""
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "seed": seed,
        "heldout": heldout,
        "traced": traced,
        "knobs": knobs,
        "REPRO_LOCKDEP": os.environ.get("REPRO_LOCKDEP"),
    }


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources, paths included, so a
    result names the code it measured where no git metadata exists."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()
