# Build/test entry points for the sketchsp reproduction. `make ci` is the
# PR gate: vet, the tier-1 suite, and a race-detector pass over the
# packages that exercise the persistent worker pool.

GO ?= go

.PHONY: ci build test vet race bench bench-json fuzz-smoke test-shard-faults check-run-patterns

ci: vet check-run-patterns test race test-shard-faults fuzz-smoke

build:
	$(GO) build ./...

# -shuffle=on randomises test (and subtest-parent) execution order every
# run, so inter-test state leaks can't hide behind a lucky fixed order.
test: build
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The planner/executor worker pool and the solvers that reuse plans are the
# concurrency-sensitive surface; race-check them on every PR. The service
# suite (plan cache, single-flight, eviction/cancellation hammers) runs
# twice so a lucky interleaving on the first pass doesn't mask a race. The
# obs registry's scrape-while-incrementing suite and the server's /metrics
# e2e reconcile ride the same gate: metric counters sit on every hot path.
race:
	$(GO) test -race ./internal/core/... ./internal/solver/...
	$(GO) test -race -count=2 ./internal/service/...
	$(GO) test -race ./internal/obs/... ./internal/server/...
	$(GO) test -race ./internal/shard/...
	$(GO) test -race -count=2 ./internal/store/...
	$(GO) test -race -count=2 ./internal/jobs/...

# `go test -run X` passes when X matches no test, so every -run pattern in
# this Makefile and in .github/workflows/ci.yml must still name a test —
# a renamed test must not turn a gate into a silent no-op.
check-run-patterns:
	GO=$(GO) bash scripts/check-run-patterns.sh

# The coordinator fault suite: hedging (fires/wins/loser-cancelled/
# duplicate-rejected), dynamic membership mid-fan-out, churn under load,
# ring movement properties, and batch fan-out — twice under the race
# detector, because every one of these paths is timer-vs-response
# concurrency and a lucky first interleaving must not green the gate.
test-shard-faults:
	$(GO) test -race -count=2 -run 'TestHedge|TestDuplicate|TestMembership|TestWatchPeers|TestBatch|TestRing' ./internal/shard/

# Short coverage-guided runs of the wire fuzzer (every message type) and
# the HTTP handler fuzzer (sketch, put and patch bodies against a live
# service); the committed corpus seeds always replay, this adds a few
# seconds of mutation on top as a PR smoke.
fuzz-smoke:
	$(GO) test ./internal/wire -run FuzzWireRoundtrip -fuzz FuzzWireRoundtrip -fuzztime 5s
	$(GO) test ./internal/server -run FuzzSketchHandler -fuzz FuzzSketchHandler -fuzztime 5s

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Scheduler A/B on skewed sparsity; records (benchmark name, ns/op, GFlops,
# measured imbalance ratio) per scheduler into BENCH_PR2.json. The PR5
# record repeats the HTTP replay with -scrape, folding the /metrics series
# (cache traffic, shed, stage latency sums) into the JSON. The PR6 record
# replays the same mix through a shard coordinator over 1/2/4 loopback
# sketchd worker processes and writes the scaling curve. The PR8 record is
# the content-addressed A/B: repeat sketches of one ~2 MB matrix inline vs
# by fingerprint, plus the incremental ΔA patch, with bit-identity checks.
# The PR9 record is the solve-surface A/B: direct SAP-QR vs served cold vs
# served warm preconditioner cache, plus an async job round-trip.
bench-json:
	$(GO) run ./cmd/spmmbench -skew -scale 0.05 -json BENCH_PR2.json
	$(GO) test -run - -bench BenchmarkServiceHit -benchtime 100x .
	$(GO) run ./cmd/spmmbench -serve -scale 0.05 -json BENCH_PR3.json
	$(GO) run ./cmd/spmmbench -serve-http -scale 0.05 -json BENCH_PR4.json
	$(GO) run ./cmd/spmmbench -serve-http -scrape -scale 0.05 -json BENCH_PR5.json
	$(GO) run ./cmd/spmmbench -serve-shard -json BENCH_PR6.json
	$(GO) run ./cmd/spmmbench -skew -scale 0.05 -json BENCH_PR7.json
	$(GO) run ./cmd/spmmbench -byref -requests 200 -json BENCH_PR8.json
	$(GO) run ./cmd/spmmbench -serve-solve -json BENCH_PR9.json
	$(GO) run ./cmd/spmmbench -serve-shard-faults -json BENCH_PR10.json
