"""Run one workload of the repository's benchmark and print its metrics.

From the root of a checkout::

    python3 simbench/run.py --workload university --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, half the time each, and reports the
per-layer metrics and the tracing overhead.  ``--heldout`` replaces ``--seed`` with the
held-out seed, which tuning must never use.

Every metric is printed as ``name value unit``; then one JSON line with
the run's metadata and every metric (``{"detail": ...}``); the last
line is ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics BENCHMARK.json names.  The exit code is 0 when every output
check passed, 1 when one failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("university", "scale", "server-rw")
#: fresh set-ups per run; setup_s is their median
SETUP_REPEATS = 3
HELDOUT_SEED = 104729
OUT_DIR = os.path.join(ROOT, ".simbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--heldout", action="store_true",
                        help=f"use the held-out seed {HELDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the test size")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int, size: str) -> Tuple[float, float]:
    """Seconds from spawning a fresh process to its database being built,
    populated and warmed by one pass (interpreter start and imports
    included), in reference and in wall-clock seconds."""
    from simbench.hostspeed import scale_now
    before = scale_now()
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--size", size],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - began
        process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed * (before + scale_now()) / 2, elapsed


def spans_path(workload: str, seed: int, fresh: bool = True) -> str:
    """Where a traced run writes its spans; ``fresh`` empties it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    if fresh and os.path.exists(path):
        os.remove(path)
    return path


def run_in_process(name: str, seed: int, seconds: float, traced: bool,
                   size: str) -> dict:
    from simbench.report import counter_delta, end_to_end, layer_metrics
    from simbench.tracer import LAYERS, Tracer, since
    from simbench.workloads import IN_PROCESS, measure

    setups = [probe_setup(name, seed, size) for _ in range(SETUP_REPEATS)]
    workload = IN_PROCESS[name](seed, size)
    workload.prepare_checks()
    began = time.perf_counter()
    workload.setup()
    in_process_setup = time.perf_counter() - began
    seconds = phase_seconds(seconds, traced)
    untraced = measure(workload, seconds)
    outcome = {
        "phases": [untraced],
        "metrics": end_to_end(untraced,
                              statistics.median(ref for ref, _ in setups),
                              peak_rss_mb()),
        "knobs": workload.knobs(),
        "problems": [],
        "extra": {"setup_samples_s": [ref for ref, _ in setups],
                  "setup_wall_samples_s": [wall for _, wall in setups],
                  "setup_in_process_s": in_process_setup},
    }
    if not traced:
        return outcome
    before = workload.explain()
    tracer = Tracer().install(LAYERS)
    try:
        after = workload.explain()
        base_totals = tracer.totals()
        base_counters = workload.counters()
        traced_stats = measure(workload, seconds, tracer)
        totals = since(tracer.totals(), base_totals)
        delta = counter_delta(workload.counters(), base_counters)
    finally:
        tracer.uninstall()
    outcome["phases"].append(traced_stats)
    outcome["problems"] += agreement(before, after, untraced, traced_stats)
    path = spans_path(name, seed)
    outcome["extra"]["spans_written"] = tracer.write_spans(path, "bench")
    outcome["extra"]["spans_dropped"] = tracer.dropped
    outcome["layers"] = layer_metrics(
        totals, tracer.nested_counts(), delta, traced_stats.attempted,
        totals["op"]["incl_ns"], 0, overhead(untraced, traced_stats))
    return outcome


def run_server(seed: int, seconds: float, traced: bool, size: str) -> dict:
    from simbench.report import counter_delta, end_to_end, layer_metrics
    from simbench.tracer import Tracer
    from simbench.workloads import (CLIENTS, READ_TEMPLATES, SIZES,
                                    ClientGenerator, ServerModel,
                                    ServerProcess, check_server_state,
                                    drive_clients, read_server_state)

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        probe = ServerProcess(ROOT, seed, size)
        setups.append((probe.setup_s, probe.setup_wall_s))
        probe.stop()
    model = ServerModel(seed, SIZES["server-rw"][size])
    generators = [ClientGenerator(model, client, seed)
                  for client in range(CLIENTS)]
    server = ServerProcess(ROOT, seed, size)
    setups.append((server.setup_s, server.setup_wall_s))
    outcome = {"problems": [], "knobs": None,
               "extra": {"setup_samples_s": [ref for ref, _ in setups],
                         "setup_wall_samples_s": [w for _, w in setups]}}
    seconds = phase_seconds(seconds, traced)
    try:
        untraced = drive_clients(server.port, generators, seconds)
        outcome["phases"] = [untraced]
        if traced:
            statements = [template.format(key=keys[0]) for (template, _),
                          keys in zip(READ_TEMPLATES, model.read_keys)]
            reply = server.command(cmd="trace", statements=statements)
            if not reply["explain_same"]:
                outcome["problems"].append(
                    "Database.explain differs with tracing on")
            tracer = Tracer()
            traced_stats = drive_clients(server.port, generators, seconds,
                                         tracer)
            outcome["phases"].append(traced_stats)
            after = server.command(cmd="counters")
        observed = read_server_state(server.port)
        report = server.stop(spans_path("server-rw", seed) if traced
                             else None)
    finally:
        server.kill()
    outcome["knobs"] = server.ready["knobs"]
    outcome["metrics"] = end_to_end(
        untraced, statistics.median(outcome["extra"]["setup_samples_s"]),
        report["peak_rss_mb"])
    outcome["problems"] += check_server_state(model, generators, observed)
    if not report["check_ok"]:
        outcome["problems"].append(f"Database.check failed: "
                                   f"{report['check']}")
    if traced:
        totals = after["totals"]
        op_ns = tracer.totals()["op"]["incl_ns"]
        covered = (totals.get("sessions.execute", {}).get("incl_ns", 0)
                   + totals.get("sessions.commit", {}).get("incl_ns", 0))
        outcome["extra"]["spans_dropped"] = report["spans_dropped"]
        outcome["extra"]["spans_written"] = (
            report.get("spans_written", 0)
            + tracer.write_spans(spans_path("server-rw", seed, fresh=False),
                                 "bench"))
        outcome["layers"] = layer_metrics(
            totals, after["nested"],
            counter_delta(after["counters"], reply["counters"]),
            traced_stats.attempted, op_ns, covered,
            overhead(untraced, traced_stats))
    return outcome


def phase_seconds(seconds: float, traced: bool) -> float:
    """A traced run splits its time between the untraced and the traced
    phase, so every run measures for ``--seconds``."""
    return seconds / 2 if traced else seconds


def agreement(before, after, untraced, traced) -> list:
    """Observing must not change behaviour: same plans, same rows."""
    problems = []
    if before != after:
        problems.append("Database.explain differs with tracing on")
    for text, rows in traced.seen.items():
        if untraced.seen.get(text) != rows:
            problems.append(f"{text!r}: traced rows differ from untraced")
    return problems


def overhead(untraced, traced) -> float:
    """The share of untraced throughput the traced run loses."""
    plain = untraced.ops_per_s()
    with_spans = traced.ops_per_s()
    return 1.0 - with_spans / plain if plain else 0.0


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str = "full", heldout: bool = False) -> dict:
    """One run: the result line's fields plus a ``detail`` record."""
    from simbench.report import (END_TO_END, END_TO_END_EXTRA, PER_LAYER,
                                 metadata)
    if workload == "server-rw":
        outcome = run_server(seed, seconds, traced, size)
    else:
        outcome = run_in_process(workload, seed, seconds, traced, size)
    phases = outcome["phases"]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    problems = outcome["problems"]
    correct = failed == 0 and not problems
    metrics = outcome["metrics"]
    units = dict(END_TO_END, **END_TO_END_EXTRA)
    all_metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in metrics.items()}
    if traced:
        layers = outcome["layers"]
        all_metrics.update({name: {"value": value,
                                   "unit": PER_LAYER[name][0]}
                            for name, value in layers.items()})
        names = [name for name, (_unit, keep) in PER_LAYER.items() if keep]
    else:
        names = list(END_TO_END)
    # a phase whose every op failed has no latency to report
    listed = {name: all_metrics[name] for name in names
              if name in all_metrics}
    detail = metadata(ROOT, seed, heldout, traced, outcome["knobs"])
    detail.update(workload=workload, seconds=seconds, size=size,
                  metrics=all_metrics, problems=problems[:20],
                  failures=[f for phase in phases
                            for f in phase.failures][:20],
                  ops=[len(phase.latencies_ms) for phase in phases],
                  **outcome["extra"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": listed, "detail": detail}


def setup_probe(workload: str, seed: int, size: str) -> int:
    from simbench.workloads import IN_PROCESS
    IN_PROCESS[workload](seed, size).setup()
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("simbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # Everything a run starts shares one CPU (children inherit it).  On a
    # virtual machine a round trip between processes on two vCPUs waits
    # for the host to run both, which made server-rw's throughput swing
    # by 2x between runs; on one CPU it is a plain context switch.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.size)
    seed = HELDOUT_SEED if args.heldout else args.seed
    try:
        result = run_workload(args.workload, seed, args.seconds,
                              bool(args.trace), args.size, args.heldout)
    except Exception:
        traceback.print_exc()
        return 2
    for name, metric in sorted(result["detail"]["metrics"].items()):
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in result["detail"]["problems"]:
        print(f"check failed: {problem}")
    for failure in result["detail"]["failures"]:
        print(f"op failed: {failure}")
    print(json.dumps({"detail": result.pop("detail")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
