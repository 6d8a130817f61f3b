# Convenience targets; all assume the package is installed (see README).

.PHONY: test check check-update-golden bench bench-fast bench-batch bench-crowd bench-backend bench-ab smoke-telemetry reach validate calibrate examples all

test:
	pytest tests/

# Correctness harness: differential pairings + runtime invariants +
# golden regression over the whole catalog (see docs/testing.md).
check:
	repro-bench check

check-update-golden:
	repro-bench check --update-golden

bench:
	pytest benchmarks/ --benchmark-only

# Simulator throughput + parallel speedup + metrics overhead (minutes,
# not hours); writes BENCH_campaign.json and BENCH_metrics.json.
bench-fast:
	pytest benchmarks/test_perf_campaign.py -q -s

# Batched fleet engine A/B: 32-unit speedup, batch-size scaling sweep,
# and the heterogeneous (2-model) mixed-fleet sweep at N in {8,32,128};
# writes BENCH_batch.json.
bench-batch:
	pytest benchmarks/test_perf_batch.py -q -s

# Streaming crowd campaign: streamed-vs-serial A/B at N=256, O(cohort)
# memory check, 10^5-user headline (REPRO_BENCH_CROWD_USERS to shrink,
# REPRO_BENCH_CROWD_FULL=1 for the 10^6 run); writes BENCH_crowd.json.
bench-crowd:
	pytest benchmarks/test_perf_crowd.py -q -s

# Execution backend transport: in-process vs shared-memory pool on a
# traced fleet (result parity gated, wall times recorded), pickled-byte
# reduction against the same payloads pickled whole, and crowd memory
# flatness on the pool; writes BENCH_backend.json.
bench-backend:
	pytest benchmarks/test_perf_backend.py -q -s

# A/B this checkout against a local commit on perfbench: interleaved pairs
# of perfbench/run.py in a temporary git worktree of BASE and in this tree,
# then perfbench/compare.py; e.g. `make bench-ab BASE=main~1 PAIRS=10`.
BASE ?= HEAD
WORKLOAD ?= table2-default
PAIRS ?= 10
RUN_SECONDS ?= 4
SEED ?= 1
bench-ab:
	python scripts/bench_ab.py $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) --seconds $(RUN_SECONDS) --seed $(SEED)

# Live-telemetry smoke: a streamed crowd run scraped over HTTP mid-run;
# asserts advancing /status, parseable /metrics, round-tripping manifest.
smoke-telemetry:
	python scripts/telemetry_smoke.py

# Which src functions no command, paper bench, example or perfbench
# workload enters (a few minutes); writes the never-entered list to
# reach.json.
reach:
	python scripts/reachability.py --out reach.json

validate:
	repro-bench validate --scale 0.5 --iterations 2 --no-thermabox

calibrate:
	python scripts/calibrate.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null || exit 1; done

all: test check bench
