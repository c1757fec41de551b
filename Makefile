PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test smoke scenarios chaos serve-smoke traces-smoke profile-smoke perfbench-smoke scale-gates

# $(call no-traceback,CMD): run CMD, replay its stderr, and fail if CMD
# fails or a Python traceback reached its stderr.  A pool worker that
# dies loudly leaves the sweep's own exit status at 0, so the status
# alone does not show it.
no-traceback = err=$$(mktemp) && { $(1); } 2> "$$err"; status=$$?; \
	cat "$$err" >&2; traced=$$(grep -c Traceback "$$err"); rm -f "$$err"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if [ $$traced -ne 0 ]; then echo "$$traced Traceback(s) on stderr" >&2; exit 1; fi

# Static invariant lint: determinism boundary, atomic writes, serve
# thread-safety, defense hook contracts, broad-except justification.
# `$(PYTHON) -m repro lint --list-rules` prints the rule catalog and
# `--explain RULE` the full rationale for any rule.  CI runs this as
# the fail-fast step before the test matrix; a tier-1 test asserts the
# same clean verdict, so `make test` catches violations too.
lint:
	$(PYTHON) -m repro lint src benchmarks scripts

test:
	$(PYTHON) -m pytest -x -q

# The CI smoke run: quick Figure 8 sweep through the parallel executor.
smoke:
	$(call no-traceback,$(PYTHON) -m repro figure8 --quick --jobs 2)

# Scenario-catalog smoke: every catalog scenario under every defense at
# small scale (deterministic metrics JSON lands in results/).
scenarios:
	$(call no-traceback,$(PYTHON) -m repro scenarios run --all --quick --jobs 2)

# Chaos smoke: the fault-tolerant sweep runtime under deterministic
# injected faults -- a worker crash (pool rebuild), an injected
# exception (retry), a hang that outlives the per-point timeout (pool
# teardown + retry) and a slowed point.  Must exit 0: every point
# recovers within its retry budget and no completed row is lost.  The
# crash can break the pool while point 3's first attempt is in flight,
# which charges that attempt, so the hang fires on attempts 1-2: at
# least one attempt of point 3 hangs and only the 10 s timeout's
# teardown (a second pool rebuild) frees it.  The check after the run
# fails unless results/scenarios.json records >= 2 pool rebuilds and
# no failures.
# The crash, raise and hang are injected in workers, so their
# tracebacks would only show up as stray worker output; none may reach
# stderr.
chaos:
	$(call no-traceback,$(PYTHON) -m repro scenarios run flash-crowd --quick --jobs 4 \
		--max-retries 3 --point-timeout 10 \
		--fault-spec "crash@0;raise@2;hang@3:300x2;slow@4:0.2")
	$(PYTHON) -c 'import json, sys; r = json.load(open("results/scenarios.json")); \
		print("pool_rebuilds:", r["pool_rebuilds"], "retries:", r["retries"], \
		"failures:", len(r["failures"])); \
		sys.exit(r["pool_rebuilds"] < 2 or len(r["failures"]) > 0)'

# Service smoke: boot `repro serve` on an ephemeral port, submit a
# catalog job with an injected worker crash (crash@0), poll it to
# `succeeded`, check /healthz + /metrics, then SIGTERM -- the service
# must drain and exit 0.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Trace-subsystem smoke: registry listing, offline synthetic-generator
# fetch + streamed stats, byte-identical generation in two processes
# (two caches, compared with cmp), packaged-fixture stats, a convert
# round trip (gzip copy in a temp dir whose stats must match the
# source's), and a streamed replay scenario across the defense suite.
# No network, ever.
traces-smoke:
	$(PYTHON) -m repro traces list
	$(PYTHON) -m repro traces fetch synthetic-flap-ci --force
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	REPRO_TRACE_DIR="$$tmp/a" $(PYTHON) -m repro traces fetch synthetic-flap-ci --force && \
	REPRO_TRACE_DIR="$$tmp/b" $(PYTHON) -m repro traces fetch synthetic-flap-ci --force && \
	cmp "$$tmp"/a/synthetic-flap-ci-*.csv.gz "$$tmp"/b/synthetic-flap-ci-*.csv.gz
	$(PYTHON) -m repro traces stats synthetic-flap-ci
	$(PYTHON) -m repro traces stats tor-relay-flap
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(PYTHON) -m repro traces convert synthetic-flap-ci "$$tmp/flap.csv.gz" && \
	$(PYTHON) -m repro traces stats "$$tmp/flap.csv.gz" > "$$tmp/copy.txt" && \
	$(PYTHON) -m repro traces stats synthetic-flap-ci > "$$tmp/src.txt" && \
	cat "$$tmp/copy.txt" && \
	sed 1d "$$tmp/src.txt" > "$$tmp/src.body" && \
	sed 1d "$$tmp/copy.txt" > "$$tmp/copy.body" && \
	cmp "$$tmp/src.body" "$$tmp/copy.body"
	$(call no-traceback,$(PYTHON) -m repro scenarios run consensus-flap tor-relay-replay --quick --jobs 2)

# Cost-attribution smoke: profile the acceptance point (flash-crowd
# under ERGO) and a baseline (SybilControl), prove byte-identical
# metrics with profiling off (--check), and write a schema-validated
# speedscope export.  Exits nonzero if any span table is empty, the
# export fails validation, any metric diverges, or a traceback reaches
# stderr.
profile-smoke:
	$(call no-traceback,$(PYTHON) -m repro profile flash-crowd --defense ergo --quick --check \
		--json results/profile_smoke.json \
		--speedscope results/profile_smoke.speedscope.json)
	$(call no-traceback,$(PYTHON) -m repro profile flash-crowd --defense sybilcontrol --quick --check --top 10)

# Repository-benchmark smoke: a 1 s flash-xl run and a 1 s traced
# trace-replay run at seed 7.  Seed 7 has no recorded digests, so this
# gates on determinism across calls, the fast-path share and >=90%
# traced coverage -- a rename that breaks a method perfbench/layers.py
# wraps fails here.  catalog-service is left out (its 100-job floor
# alone takes ~45 s).
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload flash-xl --seconds 1 --seed 7
	$(PYTHON) perfbench/run.py --workload trace-replay --seconds 1 --seed 7 --trace 1

# Scale gates: 10^5- and 10^6-join flash crowds and a streamed
# 10^6-event trace replay within their wall budgets, >=95% of joins on
# the fast path, the replay under 64 MB of tracemalloc peak, and
# checkpoint/snapshot overheads under 5%/3% of wall.  Kept out of
# tier-1 (the file is not named test_*.py): it takes minutes, and wall
# budgets need a box that runs nothing else.
scale-gates:
	$(PYTHON) -m pytest -q benchmarks/scale_gates.py
