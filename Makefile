PYTHONPATH := src
export PYTHONPATH

.PHONY: test torture chaos lockdep bench bench-recovery bench-read-path \
	bench-lint bench-trace bench-batch bench-scale bench-concurrency \
	bench-concurrency-smoke bench-lockdep bench-rewrite lint typecheck \
	simcheck simbench-test

test:
	python -m pytest -x -q

# The repository benchmark's own tests (tiny sizes; simbench/ is outside
# the tier-1 testpaths).
simbench-test:
	python -m pytest simbench -q

# Static analysis lanes.  ruff adds style checks when installed
# (configured in pyproject.toml); tools/dev_lint.py (AST hygiene +
# SIM3xx concurrency lint) and the standalone concurrency gate always
# run — they are dependency-free.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro tools; \
	fi
	python tools/dev_lint.py src/repro tools
	python -m repro lint --concurrency --strict

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; falling back to compileall"; \
		python -m compileall -q src/repro; \
	fi

# simcheck over the UNIVERSITY schema (the repo's own dogfood lane).
simcheck:
	python -c "from repro.workloads import UNIVERSITY_DDL; \
	open('/tmp/university.ddl', 'w').write(UNIVERSITY_DDL)"
	python -m repro lint /tmp/university.ddl --strict

# The seeded fault-injection crash-torture lane (fixed seed, ~200+ crash
# points; see tests/test_torture.py).
torture:
	python -m pytest -q -m torture tests/test_torture.py

# The multi-session contention/fault chaos lane (seeded writer fleets,
# deadlock-prone mixes, committed-prefix oracle; see tests/test_chaos.py).
# Runs with runtime lockdep on: any lock-order violation fails the lane.
chaos:
	REPRO_LOCKDEP=1 python -m pytest -q -m chaos tests/test_chaos.py

# Runtime lock-order validation lane: lockdep unit tests plus the
# lock-heavy suites (sessions/mvcc/server) under REPRO_LOCKDEP=1.
lockdep:
	REPRO_LOCKDEP=1 python -m pytest -q tests/test_lockdep.py \
		tests/test_sessions.py tests/test_mvcc.py tests/test_server.py

bench:
	python -m pytest -q benchmarks/ --benchmark-only

bench-recovery:
	python benchmarks/make_report.py --recovery

bench-read-path:
	python benchmarks/make_report.py --read-path

bench-lint:
	python benchmarks/make_report.py --lint

# E16: tracing-overhead gate (fails if dormant tracing costs > 5%).
bench-trace:
	python benchmarks/make_report.py --trace

# E17: batched-execution gate (fails below 2x on traversal queries or on
# any row mismatch against the tuple-at-a-time interpreter).
bench-batch:
	python benchmarks/make_report.py --batch

# E18: morsel-parallelism gate at 10^5 entities (fails below 2x aggregate
# speedup at 4 workers on traversal-heavy queries, or on any row drift
# between parallel and serial execution).
bench-scale:
	python benchmarks/make_report.py --scale

# E19: multi-session concurrency gate (fails on row drift between
# concurrent snapshot reads and serial execution, on a committed-prefix
# oracle violation under contention, below 1.3x read throughput at
# 4 sessions, or below 2x disjoint-entity write throughput at 8
# sessions vs the class-granularity baseline).
bench-concurrency:
	python benchmarks/make_report.py --concurrency

# The reduced E19 lane CI runs: row identity + both committed-prefix
# oracles + the disjoint-entity >=2x gate, no read-throughput bound.
bench-concurrency-smoke:
	python benchmarks/make_report.py --concurrency-smoke

# E20: lockdep instrumentation-overhead gate (fails if runtime lock-order
# checking costs >10% on the E19 contended-write cell, or if any
# violation is recorded during the measurement).
bench-lockdep:
	python benchmarks/make_report.py --lockdep

# E21: semantic-rewrite gate (fails below 2x on the subclass-pruned ISA
# cell or the closure-materialization cell, on any row drift against the
# rewrite-off reference, or if either cell fails to exercise its
# rewrite/materialization).
bench-rewrite:
	python benchmarks/make_report.py --rewrite
