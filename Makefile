# Build/verify targets for the dynaspam reproduction. Everything is plain
# `go` — no external tools — so each target also works as a bare command.

GO ?= go

.PHONY: all build test race vet lint fuzz-smoke bench-smoke bench bench-compare perfbench-selftest perf-profile perf-ab figures trace-smoke explain-smoke jobs-smoke check

# Benchmarks `make bench-compare` runs on both sides: the hot-loop
# micro-benchmarks (the OOO step on a saturated register loop and with the
# reservation station full, CPI-stack accounting, fabric invocation and the
# span tracer) plus the pipeline benchmarks. BENCH_4.json lists each with
# the most allocations per op it may make. Anchored, so a name that merely
# contains one of these (in either tree) does not run.
BENCH_GATE = ^(BenchmarkCPUStep|BenchmarkCPUStepFullRS|BenchmarkCPIStackOverhead|BenchmarkFabricInvokeOnPath|BenchmarkBaselinePipeline|BenchmarkFastForwardPipeline|BenchmarkSampledPipeline|BenchmarkTraceOverhead|BenchmarkSpanOverhead)$$

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel sweep engine makes data-race freedom a correctness property;
# run the whole suite under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# dynalint enforces the simulator's determinism/isolation invariants and
# the service planes' concurrency/doc contracts (seven analyzers;
# `go run ./cmd/dynalint -list` prints the suite, README "Static
# invariants" has the rationale). Wall time is printed and budgeted: the
# suite must stay interactive, under 60 seconds.
lint:
	@start=$$(date +%s); $(GO) run ./cmd/dynalint ./...; status=$$?; \
	end=$$(date +%s); echo "lint: $$((end-start))s wall"; exit $$status

# Ten seconds of native fuzzing per target. The differential targets check
# a structure against a reference model kept in its test file (the page
# directory against a byte map, the indexed T-Cache against the map-based
# table it replaced, the interpreter's Exec loop and the branch, load and
# store events it reports against the one-instruction Step it replaced, on
# generated programs) or a reference walk (the trace key formed from the
# next-stop table against walkTrace's, on generated programs); the reader
# targets check that a run journal and a job file read back what was
# written, torn tail and all, and that no input makes them panic; the spec
# target checks that no job spec makes Spec.Resolve panic and that an
# accepted one has a trace length the fabric can hold, a fabric count the
# configuration cache can use and non-negative sampling geometry; the
# submit-body target checks that no POST /jobs body makes its decode
# panic, that an accepted body is refused with data after it, and that its
# spec re-encodes to itself and is refused with an unknown field; the
# exposition target checks that no page makes the /metrics linter panic
# and that every page a server renders lints clean; the two trace targets
# check that no input makes the Konata parser or the Chrome trace linter
# panic, and that what each exporter writes for generated event runs
# parses back or lints clean. Their seed corpora also
# run under plain `go test`. Minimizing each new corpus entry for up to the
# default minute would spend the whole ten seconds on one input, so
# minimizing stops after one.
fuzz-smoke:
	$(GO) test ./internal/mem -run '^$$' -fuzz '^FuzzMemory$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/tcache -run '^$$' -fuzz '^FuzzTCache$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/interp -run '^$$' -fuzz '^FuzzExec$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzTraceKey$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/runner -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/jobs -run '^$$' -fuzz '^FuzzParseJobFile$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/jobs -run '^$$' -fuzz '^FuzzSpecResolve$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/jobs -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/probe -run '^$$' -fuzz '^FuzzParsePipeView$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/probe -run '^$$' -fuzz '^FuzzLintChromeTrace$$' -fuzztime 10s -fuzzminimizetime 1s

# One iteration of every benchmark (each regenerates a paper figure) as a
# smoke test; full statistics come from `make bench`.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Self-test of the end-to-end benchmark (perfbench/, see BENCHMARK.json):
# every workload at its smallest size, traced. perfbench is a nested module
# that imports core, experiments, runner, spans and workloads, and it sits
# outside `./...`, so `make test` alone would not notice an internal API
# change that breaks it.
perfbench-selftest:
	cd perfbench && $(GO) test ./...

# Where host time goes on one end-to-end benchmark workload: a traced
# perfbench run (its CPU profiles land in .bench_build/out/traces/), then
# pprof's top functions over that run's profiles. Profile shares quoted in
# ROADMAP.md come from this command.
WORKLOAD ?= fig8
perf-profile:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed 1 --seconds 12 --trace 1
	$(GO) tool pprof -top -nodecount=25 .bench_build/out/traces/$(WORKLOAD)-seed1-child*.cpu.pprof

# BASE's committed tree, exported once under .bench_build/ab/<commit> (a
# dot-directory, so outside both `./...` and perfbench's source digest);
# the recipe leaves its path in the shell variable tree. Both paired
# comparisons below run the parent from it.
BASE ?=
PAIRS ?= 10
define export-base
rev=$$(git rev-parse --verify "$(BASE)^{commit}"); tree=.bench_build/ab/$$rev; \
if [ ! -d "$$tree" ]; then \
  rm -rf "$$tree.tmp" && mkdir -p "$$tree.tmp" && git archive "$$rev" | tar -x -C "$$tree.tmp" && mv "$$tree.tmp" "$$tree"; \
fi
endef

# Benchmark regression gate, a CI step (BASE=HEAD~1): BASE's tree and the
# checkout each build their test binary once (-trimpath, so the same
# source gives the same binary whichever directory it sits in), then run
# this checkout's BENCH_GATE benchmarks PAIRS times in alternation (odd
# pairs BASE first), because the host drifts over minutes and run order
# within a pair can shift a benchmark one way for a whole comparison.
# benchdiff then compares the two sides: a benchmark fails on ns/op only
# when BASE would claim a gain over the change (9 of 10 pairs slower and a
# median gap wider than BASE's IQR), and on allocs/op when any run exceeds
# its BENCH_4.json count. Every run's output stays in
# .bench_build/ab/out/bench-compare/.
#
#   make bench-compare BASE=HEAD~1 [PAIRS=10]
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [PAIRS=10]" >&2; exit 2; }
	@set -e; $(export-base); \
	out=$(CURDIR)/.bench_build/ab/out/bench-compare; rm -rf "$$out" && mkdir -p "$$out"; \
	(cd "$$tree" && $(GO) test -c -trimpath -o "$$out/base.test" .); \
	$(GO) test -c -trimpath -o "$$out/change.test" .; \
	run() { \
	  (cd "$$1" && "$$out/$$2.test" -test.run '^$$' -test.bench '$(BENCH_GATE)' -test.benchmem -test.timeout 10m) >>"$$out/$$2.runs" 2>&1 || \
	    echo "bench-compare: $$2 run $$3 exited non-zero, see $$out/$$2.runs" >&2; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) -eq 1 ]; then run "$$tree" base $$i; run . change $$i; \
	  else run . change $$i; run "$$tree" base $$i; fi; \
	  echo "bench-compare: pair $$i/$(PAIRS) done"; \
	done; \
	$(GO) run ./cmd/benchdiff "$$out/base.runs" "$$out/change.runs"

# Paired end-to-end comparison with another revision, the protocol behind
# every performance claim: perfbench/run.sh runs PAIRS times in BASE's tree
# and in the checkout, alternating (odd pairs run BASE first), because the
# host drifts over minutes. benchdiff then judges every BENCHMARK.json
# end-to-end metric: medians, quartiles, wins, the gap against BASE's IQR,
# and a verdict. Each run's full output stays in .bench_build/ab/out/.
#
#   make perf-ab BASE=HEAD~1 WORKLOAD=scaled-sampled PAIRS=10 SEED=1
SEED ?= 1
perf-ab:
	@test -n "$(BASE)" || { echo "usage: make perf-ab BASE=<rev> WORKLOAD=<w> [PAIRS=10] [SEED=1]" >&2; exit 2; }
	@set -e; $(export-base); \
	out=.bench_build/ab/out/$(WORKLOAD)-seed$(SEED); rm -rf "$$out" && mkdir -p "$$out"; \
	run() { \
	  bash "$$1/perfbench/run.sh" --workload $(WORKLOAD) --seed $(SEED) --seconds 12 --trace 0 >"$$out/$$2-$$3.txt" 2>&1 || \
	    echo "perf-ab: $$2 run $$3 exited non-zero, see $$out/$$2-$$3.txt" >&2; \
	  grep -E '^(digest |\{)' "$$out/$$2-$$3.txt" >>"$$out/$$2.runs" || true; \
	}; \
	for i in $$(seq 1 $(PAIRS)); do \
	  if [ $$((i % 2)) -eq 1 ]; then run "$$tree" base $$i; run . change $$i; \
	  else run . change $$i; run "$$tree" base $$i; fi; \
	  echo "perf-ab: $(WORKLOAD) seed $(SEED): pair $$i/$(PAIRS) done"; \
	done; \
	$(GO) run ./cmd/benchdiff "$$out/base.runs" "$$out/change.runs"

figures:
	$(GO) run ./cmd/dynaspam figures

# End-to-end observability smoke test: export a small sweep's Chrome trace
# and pipeline view twice, require byte-identical files (determinism is a
# hard contract, see ARCHITECTURE.md "Observability"), validate the JSON
# shape, and re-parse the pipeline view with the strict `dynaspam pipeview`
# reader.
# Then bring up `dynaspam serve`, run one job, and require its span trace
# (GET /jobs/{id}/trace) to be stable across fetches and pass lint-trace.
trace-smoke:
	@set -e; dir=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/dynaspam" ./cmd/dynaspam; \
	"$$dir/dynaspam" -bench BP,NW -j 2 -trace "$$dir/a.json" -pipeview "$$dir/a.kanata" >/dev/null; \
	"$$dir/dynaspam" -bench BP,NW -j 1 -trace "$$dir/b.json" -pipeview "$$dir/b.kanata" >/dev/null; \
	cmp "$$dir/a.json" "$$dir/b.json" && cmp "$$dir/a.kanata" "$$dir/b.kanata"; \
	grep -q '^{"traceEvents":\[$$' "$$dir/a.json"; \
	grep -q '"name":"cpi_stack"' "$$dir/a.json" || { echo "trace lacks cpi_stack counter track"; exit 1; }; \
	grep -q '"name":"stripe_occupancy"' "$$dir/a.json" || { echo "trace lacks stripe_occupancy counter track"; exit 1; }; \
	"$$dir/dynaspam" lint-trace "$$dir/a.json" >/dev/null; \
	"$$dir/dynaspam" pipeview -validate "$$dir/a.kanata"; \
	"$$dir/dynaspam" tracedump -bench NW -n 2 -validate >/dev/null; \
	"$$dir/dynaspam" serve -addr 127.0.0.1:0 -state "$$dir/state" 2>"$$dir/serve.log" & pid=$$!; \
	addr=; for i in $$(seq 1 100); do \
	  addr=$$(sed -n 's/.*msg="telemetry listening".*addr=\([0-9.:]*\).*/\1/p' "$$dir/serve.log"); \
	  [ -n "$$addr" ] && break; sleep 0.1; \
	done; \
	[ -n "$$addr" ] || { echo "serve never bound:"; cat "$$dir/serve.log"; exit 1; }; \
	curl -sf -X POST -d '{"bench":"BP,PF"}' "http://$$addr/jobs" | grep -q job-000001; \
	for i in $$(seq 1 600); do \
	  curl -sf "http://$$addr/jobs/job-000001" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "http://$$addr/jobs/job-000001/trace" >"$$dir/job.json"; \
	curl -sf "http://$$addr/jobs/job-000001/trace" >"$$dir/job2.json"; \
	cmp "$$dir/job.json" "$$dir/job2.json"; \
	"$$dir/dynaspam" lint-trace "$$dir/job.json" >/dev/null; \
	grep -q '"name":"journal-flush"' "$$dir/job.json" || { echo "job trace lacks lifecycle spans:"; cat "$$dir/job.json"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "trace-smoke OK"

# Cycle-accounting smoke test: run `dynaspam explain` on the BFS
# baseline-vs-accel pair twice, require byte-identical output (the stacks
# are deterministic), an internally sum-exact stack (explain exits non-zero
# on any violation), and a nonzero fabric share on the accelerated run.
explain-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/dynaspam" ./cmd/dynaspam; \
	"$$dir/dynaspam" explain -bench BFS >"$$dir/a.txt"; \
	"$$dir/dynaspam" explain -bench BFS >"$$dir/b.txt"; \
	cmp "$$dir/a.txt" "$$dir/b.txt"; \
	grep -q 'fabric_eval' "$$dir/a.txt" || { echo "explain output lacks fabric_eval attribution:"; cat "$$dir/a.txt"; exit 1; }; \
	"$$dir/dynaspam" explain -bench BFS -json >"$$dir/a.json"; \
	grep -q '"top_regressing_cause"' "$$dir/a.json"; \
	echo "explain-smoke OK"

# Durable job plane smoke test: submit two jobs, SIGKILL the server
# mid-run, restart over the same state directory, require both jobs to
# resume and complete, then resubmit the first spec and require every
# cell to come from the memo cache (no re-simulation). Finally submit the
# second spec at sampled fidelity: its cells must be fresh runs (the memo
# cache key includes the simulation policy, so full-detail results are
# never served for a sampled request) and a resubmission must then hit
# the cache.
jobs-smoke:
	@set -e; dir=$$(mktemp -d); trap 'kill -9 $$pid 2>/dev/null || true; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/dynaspam" ./cmd/dynaspam; \
	start_serve() { \
	  : >"$$dir/serve.log"; \
	  "$$dir/dynaspam" serve -addr 127.0.0.1:0 -state "$$dir/state" -max-jobs 1 -j 1 2>"$$dir/serve.log" & pid=$$!; \
	  addr=; for i in $$(seq 1 100); do \
	    addr=$$(sed -n 's/.*msg="telemetry listening".*addr=\([0-9.:]*\).*/\1/p' "$$dir/serve.log"); \
	    [ -n "$$addr" ] && break; sleep 0.1; \
	  done; \
	  [ -n "$$addr" ] || { echo "serve never bound:"; cat "$$dir/serve.log"; exit 1; }; \
	}; \
	start_serve; \
	curl -sf -X POST -d '{"bench":"all"}' "http://$$addr/jobs" | grep -q job-000001; \
	curl -sf -X POST -d '{"bench":"BP,PF"}' "http://$$addr/jobs" | grep -q job-000002; \
	for i in $$(seq 1 200); do \
	  curl -sf "http://$$addr/jobs/job-000001" | grep -Eq '"done": [1-9]' && break; sleep 0.05; \
	done; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	! grep -q '"terminal"' "$$dir/state/job-000001.runs.jsonl" || { echo "job 1 finished before the kill; smoke window missed"; exit 1; }; \
	start_serve; \
	for i in $$(seq 1 600); do \
	  curl -sf "http://$$addr/jobs/job-000001" | grep -q '"state": "done"' && \
	  curl -sf "http://$$addr/jobs/job-000002" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "http://$$addr/jobs/job-000001" | grep -q '"state": "done"' || { echo "job 1 never resumed to done"; curl -s "http://$$addr/jobs/job-000001"; exit 1; }; \
	curl -sf "http://$$addr/jobs/job-000001" | grep -q '"source": "journal"' || { echo "job 1 shows no journal-restored cells; resume did not happen"; exit 1; }; \
	curl -sf -X POST -d '{"bench":"all"}' "http://$$addr/jobs" | grep -q job-000003; \
	for i in $$(seq 1 600); do \
	  curl -sf "http://$$addr/jobs/job-000003" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "http://$$addr/jobs/job-000003" >"$$dir/job3.json"; \
	grep -q '"state": "done"' "$$dir/job3.json"; \
	grep -q '"source": "cache"' "$$dir/job3.json" || { echo "resubmitted job was re-simulated:"; cat "$$dir/job3.json"; exit 1; }; \
	! grep -q '"source": "run"' "$$dir/job3.json" || { echo "resubmitted job re-simulated some cells:"; cat "$$dir/job3.json"; exit 1; }; \
	curl -sf -X POST -d '{"bench":"BP,PF","sim_policy":"sampled"}' "http://$$addr/jobs" | grep -q job-000004; \
	for i in $$(seq 1 600); do \
	  curl -sf "http://$$addr/jobs/job-000004" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "http://$$addr/jobs/job-000004" >"$$dir/job4.json"; \
	grep -q '"state": "done"' "$$dir/job4.json"; \
	grep -q '"sim_policy": "sampled"' "$$dir/job4.json"; \
	grep -q '"source": "run"' "$$dir/job4.json" || { echo "sampled job hit the full-detail cache; keys are not fidelity-aware:"; cat "$$dir/job4.json"; exit 1; }; \
	curl -sf -X POST -d '{"bench":"BP,PF","sim_policy":"sampled"}' "http://$$addr/jobs" | grep -q job-000005; \
	for i in $$(seq 1 600); do \
	  curl -sf "http://$$addr/jobs/job-000005" | grep -q '"state": "done"' && break; sleep 0.1; \
	done; \
	curl -sf "http://$$addr/jobs/job-000005" >"$$dir/job5.json"; \
	grep -q '"source": "cache"' "$$dir/job5.json" || { echo "resubmitted sampled job was re-simulated:"; cat "$$dir/job5.json"; exit 1; }; \
	curl -sf "http://$$addr/metrics" >"$$dir/metrics.prom"; \
	"$$dir/dynaspam" lint-metrics "$$dir/metrics.prom" >/dev/null; \
	grep -Eq 'dynaspam_job_cache_hits_total [1-9]' "$$dir/metrics.prom"; \
	grep -q 'dynaspam_sim_insts_per_second' "$$dir/metrics.prom" || { echo "metrics lack dynaspam_sim_insts_per_second"; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "jobs-smoke OK"

check: build vet lint test race
