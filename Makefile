# Developer entry points.  `make test` is the tier-1 gate; `make smoke`
# reruns one Table 1 benchmark block as an end-to-end sanity check;
# `make cache-smoke` is the cold-then-warm persistent-cache gate used in CI;
# `make answer-smoke` answers one workload end-to-end on both execution
# backends and fails on any disagreement; `make strategy-smoke` pins the
# frontier kernel's strategy-independence (sequential vs threaded);
# `make fuzz-smoke` runs a bounded differential-fuzzing pass (generated
# triples through the chase/backend/determinism oracles); `make
# serve-smoke` boots the HTTP serving front end on a real socket and
# checks byte-identical answers, single-compile coalescing and warm
# answer caching; `make subscribe-smoke` drives the standing-query
# lifecycle (subscribe, mutate, poll, verify the answer delta) over a
# real socket; `make chaos-smoke` runs a bounded seeded
# fault-injection pass against the serving stack (deadline, warm-path
# and recovery invariants); `make perf-smoke` pins the hot-path floor
# (auto-strategy rewritings byte-identical to sequential on the running
# example, flat canonical-key kernel never slower than the reference,
# coverage-memo chain searches on P5 under a pinned ceiling, SQLite
# snapshot loads and maintainer refreshes pinned over 20 mutations,
# delta-rule plans of Vicodi q1-q4 pinned over 20 churn rounds).

PYTHON ?= python
PYTEST  = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest
REPRO   = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro
CACHE_DIR ?= .cache-smoke

.PHONY: test smoke cache-smoke answer-smoke strategy-smoke fuzz-smoke serve-smoke subscribe-smoke chaos-smoke perf-smoke bench bench-json table1

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
# (sizes + canonical keys + members) under sequential and threaded
# frontier scheduling; exits non-zero on any divergence.
strategy-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/strategy_smoke.py

# Bounded differential-fuzzing gate (seconds, not minutes): a fixed-seed
# window of generated linear/sticky/sticky-join triples must satisfy all
# three oracles — rewrite-vs-chase, backend agreement, and byte-identical
# rewritings across scheduling strategies + a store round-trip.  The
# nightly CI job runs the same command with a date-derived seed and a
# much larger case count.
fuzz-smoke:
	$(REPRO) fuzz --seed 0 --cases 5 --quiet

# Serving gate: the multi-tenant HTTP front end over a real socket must
# return answers byte-identical to the in-process path, compile a
# 50-request cold herd exactly once (single-flight coalescing) and serve
# the warm repeat from the answer cache.
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/serve_smoke.py

# Standing-query gate: subscribe over a real socket, mutate the tenant's
# facts, poll the cursor (query-string style) and require the returned
# answer delta to compose — byte-identically — to a fresh /answer of the
# same query; then unsubscribe and require stale polls to 404.
subscribe-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/subscribe_smoke.py

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

# Perf gate (seconds, not minutes): strategy="auto" must produce
# byte-identical rewritings to the sequential baseline on the paper's
# running example, the tuple-encoded canonical-key kernel must not be
# slower than the object-walking reference it replaced, and a TGD-rewrite*
# compile of P5 must give the same members with memoisation on and off
# while the memoised engine stays under a pinned count of coverage chain
# searches (a work counter, not a timing), and 20 seeded single-fact
# mutations of workload S on the SQLite backend must be patched in by
# both change-log consumers: exactly 1 full and 20 incremental snapshot
# loads and maintainer refreshes, with poll() answers equal to
# execute() answers after every step, and 20 seeded rounds of 4 deletes +
# 4 inserts on the Vicodi sample ABox, each followed by a poll of q1-q4,
# must join-order exactly the pinned number of delta rules (at most one
# plan per rule of the four rewritings), with the maintained answers
# equal to re-evaluation at the end.  The exhaustive
# hot-path benchmark (all Table 1 workloads + generated triples,
# homomorphism and MGU paths, the autotuner epsilon invariant) is
# benchmarks/bench_hotpaths.py under `make bench-json`.
perf-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) \
	    benchmarks/perf_smoke.py

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
