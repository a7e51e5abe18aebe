# Developer entry points.  `make test` is the tier-1 gate; `make smoke`
# reruns one Table 1 benchmark block as an end-to-end sanity check;
# `make cache-smoke` is the cold-then-warm persistent-cache gate used in CI;
# `make answer-smoke` answers one workload end-to-end on both execution
# backends and fails on any disagreement; `make fuzz-smoke` runs a bounded
# differential-fuzzing pass (generated triples through the
# chase/backend/determinism oracles); `make chaos-smoke` runs a bounded
# seeded fault-injection pass against the serving stack (deadline,
# warm-path and recovery invariants).  `make strategy-smoke`,
# `serve-smoke`, `subscribe-smoke` and `perf-smoke` each run one gate of
# benchmarks/smoke.py, which prints one line per check and exits 1 if
# any failed (its docstring lists every check).  `make perfbench-smoke`
# runs each perfbench workload briefly, for its answer checks.

PYTHON ?= python
PYTEST  = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest
REPRO   = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro
CACHE_DIR ?= .cache-smoke

.PHONY: test smoke cache-smoke answer-smoke strategy-smoke fuzz-smoke serve-smoke subscribe-smoke chaos-smoke perf-smoke perfbench-smoke bench bench-json table1

test:
	$(PYTEST) -x -q

smoke:
	$(PYTEST) -q benchmarks/bench_table1_stockexchange.py

cache-smoke:
	rm -rf $(CACHE_DIR)
	$(REPRO) compile --workload S --cache $(CACHE_DIR) --stats
	$(REPRO) compile --workload S --cache $(CACHE_DIR) --stats --fail-on-miss
	rm -rf $(CACHE_DIR)

# End-to-end answering gate: the in-memory evaluator and the SQLite
# backend must return identical answer sets (exit 3 on disagreement), and
# the repeated executions must be served from the per-epoch answer cache.
answer-smoke:
	$(REPRO) answer --workload S --backend both --repeat 2

# Strategy-equality gate: the StockExchange rewritings must be identical
# (sizes + canonical keys + members) expanded sequentially and through a
# threaded strategy passed to each run (rewrite(query, strategy=s)).
strategy-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/smoke.py strategy

# Bounded differential-fuzzing gate (seconds, not minutes): a fixed-seed
# window of generated linear/sticky/sticky-join triples must satisfy all
# the oracles — rewrite-vs-chase, backend agreement, byte-identical
# rewritings across scheduling strategies + a store round-trip, and the
# maintenance oracle, which drives each case through 30 seeded
# insert/delete steps and requires the maintained answer set to equal
# full re-evaluation after every one.  The nightly CI job runs the same
# command with a date-derived seed and a much larger case count.
fuzz-smoke:
	$(REPRO) fuzz --seed 0 --cases 5 --mutations 30 --quiet

# Serving gate: over a real socket, a workload-S tenant must answer
# `q(A) :- FinantialInstrument(A)` (11 CQs through the TBox)
# byte-identically to the in-process path, compile a 50-request cold herd
# of `q(A) :- Person(A)` exactly once (single-flight coalescing) and
# serve the warm repeat from the answer cache on the event loop (the
# tenant's `answered_on_loop` count in /stats moves by exactly one).
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/smoke.py serve

# Standing-query gate: subscribe over a real socket, mutate the tenant's
# facts, poll the cursor (query-string style) and require the returned
# answer delta to compose — byte-identically — to a fresh /answer of the
# same query; then unsubscribe and require stale polls to 404.
subscribe-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/smoke.py subscribe

# Chaos gate (seconds, not minutes): a fixed-seed window of
# fault-injection cases — compile stalls, mid-compile kills, backend
# errors, store/checkpoint write failures — against the full serving
# stack.  Invariants: no response outlives its deadline (+epsilon), warm
# traffic is never starved, every disturbance maps to a classified
# error, and the service converges back to byte-identical answers once
# the faults stop.  The nightly CI job runs the same command with a
# date-derived seed and a larger case count.
chaos-smoke:
	$(REPRO) chaos --seed 0 --cases 6 --quiet

# Perf gate (seconds, not minutes), nine checks: (1) the running example
# rewritten through an auto strategy passed to each run
# (rewrite(query, strategy=auto)) gives the sequential bytes; (2) the
# tuple-encoded canonical-key kernel gives the reference's keys and
# executes no more bytecode than the reference (counted, not timed);
# (3) P5 under TGD-rewrite*, on the per-CQ reference kernel, compiles to
# the same rewritings with memoisation on and off, within a pinned count
# of coverage chain searches; (4) 20 seeded single-fact mutations of workload S on SQLite
# give exactly 1 full + 20 incremental snapshot loads and maintainer
# refreshes, poll() agreeing with execute(); (5) 20 seeded churn rounds
# on the Vicodi ABox, polled on q1-q4, join-order exactly the pinned
# number of delta rules (one per body position and one rederive rule per
# factored join), with maintained answers equal to re-evaluation;
# (6) the 25 Table 1 rewritings factor into exactly the pinned number of
# joins over predicate unions, and on a seeded ABox execute() and each
# join answer as their disjuncts do one at a time; (7) 20 seeded
# single-fact mutations of workload U, each followed by is_consistent(),
# give a fresh system's verdict every time, and the negative constraints'
# maintained answer sets refresh exactly 2 times in full and 40 times
# incrementally (consistency re-checks stay incremental); (8) the 25 Table
# 1 compiles expand exactly the pinned number of union-CQs over renaming
# closures and equal the per-CQ kernel's rewritings as sets, as does a
# Vicodi query whose union NC pruning must split; (9) the same 25 compiles
# make exactly the pinned number of MGU calls, with one system per
# ontology and with a fresh system per query, and rewrite alike (one
# unification per candidate set).  Every check runs even after one fails.
# The exhaustive hot-path benchmark is benchmarks/bench_hotpaths.py under
# `make bench-json`.
perf-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/smoke.py perf

# Benchmark correctness gate: two seconds of each perfbench workload
# (cold, warm, churn) at seed 1.  perfbench/run.py exits non-zero unless
# every served answer equals its oracle's (the resolution baseline's
# rewriting executed on SQLite); the timings of so short a run are not
# read.
perfbench-smoke:
	for workload in cold warm churn; do \
	    $(PYTHON) perfbench/run.py --workload $$workload --seed 1 \
	        --seconds 2 || exit 1; \
	done

bench:
	$(PYTEST) -q benchmarks

# Machine-readable perf tracking (see docs/BENCHMARKS.md).  Non-gating in
# CI; the JSONs are uploaded as artifacts: compilation (cold sequential vs
# cold parallel vs intra-query chunked vs warm) and end-to-end answering
# on both backends.
bench-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/bench_parallel_compile.py --output BENCH_parallel.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/bench_answering.py --output BENCH_answering.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/bench_scaling.py --output BENCH_scaling.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/bench_serving.py --output BENCH_serving.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/bench_hotpaths.py --output BENCH_hotpaths.json

table1:
	$(REPRO) table1
