"""Tests of the benchmark itself, at the tiny sizes.

    python3 -m pytest simbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from simbench import hostspeed, run  # noqa: E402
from simbench.hostspeed import HostSpeed  # noqa: E402
from simbench.report import END_TO_END, PER_LAYER  # noqa: E402
from simbench.workloads import (CLIENTS, SIZES, ClientGenerator,  # noqa: E402
                                OpGate, ServerModel, ServerProcess,
                                UniversityWorkload, check_server_state,
                                drive_clients, measure, read_server_state)

WORKLOADS = ("university", "scale", "server-rw")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.run_workload(name, seed=3, seconds=1.0, traced=True,
                                   size="tiny")
            for name in WORKLOADS}


def test_benchmark_json_names_the_emitted_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, listed) in PER_LAYER.items() if listed}


def test_untraced_run_emits_every_end_to_end_metric():
    result = run.run_workload("university", seed=3, seconds=0.5,
                              traced=False, size="tiny")
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == END_TO_END
    detail = result["detail"]
    for key in ("git_sha", "src_sha256", "python", "nproc", "cpus_used", "seed",
                "knobs", "REPRO_LOCKDEP", "traced"):
        assert key in detail
    assert detail["knobs"]["read_latency"] == 0.0
    assert detail["knobs"]["parallelism"] == 1
    assert detail["knobs"]["rewrite"] is True


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_metric_with_its_unit(traced_runs, name):
    result = traced_runs[name]
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0
    listed = {n: unit for n, (unit, keep) in PER_LAYER.items() if keep}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == listed
    emitted = result["detail"]["metrics"]
    for metric, (unit, _listed) in PER_LAYER.items():
        assert emitted[metric]["unit"] == unit
    for metric, unit in END_TO_END.items():
        assert emitted[metric]["unit"] == unit
    if name == "server-rw":
        for metric in ("read_p50_ms", "write_p50_ms", "commit.ms",
                       "wal.force_ms", "server.overhead_ms"):
            assert emitted[metric]["value"] > 0, metric
    else:
        assert emitted["executor.self_ms"]["value"] > 0


def test_traced_and_untraced_runs_agree_on_rows():
    workload = UniversityWorkload(seed=5, size="tiny")
    workload.prepare_checks()
    workload.setup()
    untraced = measure(workload, 0.2)
    from simbench.tracer import LAYERS, Tracer
    tracer = Tracer().install(LAYERS)
    try:
        traced = measure(workload, 0.2, tracer)
    finally:
        tracer.uninstall()
    assert traced.seen == untraced.seen
    assert set(traced.seen) == set(workload.statements)
    assert run.agreement(["plan"], ["plan"], untraced, traced) == []
    traced.seen[workload.statements[0]] = Counter()
    assert run.agreement(["plan"], ["other"], untraced, traced) == [
        "Database.explain differs with tracing on",
        f"{workload.statements[0]!r}: traced rows differ from untraced"]


def test_output_check_rejects_a_planted_wrong_row():
    workload = UniversityWorkload(seed=5, size="tiny")
    workload.prepare_checks()
    workload.setup()
    text = workload.statements[1]
    wrong = Counter(workload.expected[text])
    row, count = next(iter(wrong.items()))
    wrong[row[:-1] + ("planted",)] += 1
    workload.expected[text] = wrong
    stats = measure(workload, 0.1)
    assert stats.failed >= 1
    assert all(text in failure for failure in stats.failures)


def test_output_check_rejects_a_planted_wrong_committed_value():
    seed = 4
    model = ServerModel(seed, SIZES["server-rw"]["tiny"])
    generators = [ClientGenerator(model, client, seed)
                  for client in range(CLIENTS)]
    server = ServerProcess(ROOT, seed, "tiny")
    try:
        stats = drive_clients(server.port, generators, 1.0)
        observed = read_server_state(server.port)
        report = server.stop()
    finally:
        server.kill()
    assert stats.failed == 0 and report["check_ok"]
    salaries = [(g, i) for g in generators
                for i, statements in enumerate(g.acked)
                if any("salary :=" in s for s in statements)]
    assert salaries, "the run committed no salary write"
    # the honest replay matches ...
    honest = ServerModel(seed, SIZES["server-rw"]["tiny"])
    assert check_server_state(honest, generators, observed) == []
    # ... and one committed value changed in the log does not
    generator, index = salaries[-1]
    generator.acked[index] = [
        re.sub(r"salary := (\d+)",
               lambda m: f"salary := {int(m.group(1)) + 100}", s)
        for s in generator.acked[index]]
    problems = check_server_state(model, generators, observed)
    assert len(problems) == 1 and "salary" in problems[0]


def test_host_speed_scales_by_the_samples_around_an_interval():
    speed = HostSpeed()
    speed.times = [1.0, 2.0, 3.0, 4.0]
    speed.kernel_s = [0.001, 0.002, 0.004, 0.008]
    ref = hostspeed.REFERENCE_KERNEL_S
    # the last sample by 2.5 and the first after 2.9: 0.002 and 0.004
    assert speed.scale(2.5, 2.9) == pytest.approx(ref / 0.003)
    assert speed.scale(2.0, 4.0) == pytest.approx(ref / 0.004)
    # before the first or after the last sample: the nearest one
    assert speed.scale(0.0, 0.5) == pytest.approx(ref / 0.001)
    assert speed.scale(9.0, 9.5) == pytest.approx(ref / 0.008)
    assert hostspeed.time_kernel() > 0


def test_op_gate_holds_ops_back_while_a_sample_runs():
    gate = OpGate()
    with gate.op():
        pass
    with gate.quiet():
        started = threading.Event()

        def op():
            with gate.op():
                started.set()

        thread = threading.Thread(target=op)
        thread.start()
        assert not started.wait(0.1)
    thread.join(5)
    assert started.is_set()
    (begin, end), = gate.pauses
    assert gate.paused(begin - 1, end + 1) == pytest.approx(end - begin)
    assert gate.paused(end, end + 1) == 0


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "simbench"), tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "university",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
