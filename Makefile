GO ?= go

.PHONY: build test race lint ppclint lint-selftest benchpairs-selftest vet fmt-check cross ci bench bench-handoff bench-selftest bench-smoke bench-openloop chaos synctest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race and chaos suites run on at least two Ps wherever they run:
# the protocols they defend are races between processors (admission
# against a kill's drain, release against a recycle, the scavenger
# against a completing call), and on one P those interleave only at
# preemption points. More Ps than the host has CPUs is fine; fewer than
# two is not.

# Race detector over the concurrency-sensitive packages (CI matrix),
# then the whole rt package at 1, 2 and 4 Ps: its call paths and
# handoffs have one shape on every P count, and -cpu overrides the
# GOMAXPROCS pin for that run.
race: export GOMAXPROCS = 2
race:
	$(GO) test -race ./rt ./internal/core ./internal/lrpc ./internal/locks ./internal/workload
	$(GO) test -cpu 1,2,4 -count=2 ./rt

# The fake-clock twins (rt/*_synctest_test.go): inside a synctest
# bubble time moves only when every goroutine is blocked, so a clock-
# driven result is exact and repeatable. They compile only under the
# synctest experiment.
synctest:
	GOEXPERIMENT=synctest $(GO) test -count=20 -run Synctest ./rt

vet:
	$(GO) vet ./...

# rt on targets the host build does not compile: a 32-bit GOARCH, where
# the descriptor-stripe legs stay atomic (leg_atomic.go, build-constrained),
# another 64-bit architecture, and another OS.
cross:
	GOARCH=386 $(GO) vet ./rt
	GOARCH=arm64 $(GO) vet ./rt
	GOOS=darwin $(GO) vet ./rt

# gofmt over every Go file of the tree, bench/ and tools/ included, must
# change nothing. The analyzers' testdata fixtures are exempt: some are
# malformed on purpose.
fmt-check:
	@out=$$(gofmt -l . | grep -v /testdata/ || true); \
	if [ -n "$$out" ]; then echo "gofmt -l is not empty:"; echo "$$out"; exit 1; fi

# ppclint's own unit and golden-fixture tests (the linter lints itself
# before it lints the tree).
lint-selftest:
	cd tools/ppclint && $(GO) test ./...

# tools/benchpairs' unit tests (its statistics and verdict rules). The
# tool itself runs bench/run.sh as alternating pairs of two commits:
# go run ./tools/benchpairs -a <parent> -b <change> -workload sync_held
benchpairs-selftest:
	cd tools/benchpairs && $(GO) test ./...

# ppclint enforces the paper's hot-path invariants; see docs/INVARIANTS.md.
ppclint: lint-selftest
	$(GO) run ./tools/ppclint ./...

lint: vet ppclint

# Chaos/soak suite: deterministic fault injection (handler panics and
# stalls, delayed ring publishes, sustained backpressure, the arena
# storm, and the domain-death storm — clients abandoned mid-call and
# mid-hold under injected scavenge stalls) with convergence assertions
# after each storm. `go test ./rt` runs it once; this soaks it, with
# TestRingSubmitCloseKillStress (a producer stalled between its ticket
# and its publish when Close arrives) taken along.
chaos: export GOMAXPROCS = 2
chaos:
	$(GO) test -run 'Chaos|RingSubmitClose' -count=5 ./rt/...
	$(GO) test -race -run 'Chaos|RingSubmitClose' -count=2 ./rt/...

# The repository's benchmark (bench/, registered in BENCHMARK.json):
# every workload, untraced. bench/README.md lists run.sh's flags.
bench:
	bash bench/run.sh

# The four workloads a goroutine handoff is on the path of (deadline
# executor: deadline_call; async worker: async_single, async_batch,
# lanes_overload), for a quick before/after of a scheduling change.
bench-handoff:
	for w in deadline_call async_single async_batch lanes_overload; do \
		bash bench/run.sh --workload $$w || exit 1; \
	done

# The benchmark's own unit tests and a 50 ms smoke round of every
# workload. bench/ is a module of its own, outside go.work, so the root
# `go test ./...` does not reach it.
bench-selftest:
	cd bench && GOWORK=off $(GO) test ./...

# One iteration of every benchmark — Track A's, rt's own and
# internal/rtbench's tables — catches bit-rot in bench bodies without
# measuring anything. rt's BenchmarkDeadlineTickPopulation (the tick
# over idle clients and over calls in flight, E25) asserts its
# populations as it sets them up.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./rt ./internal/rtbench

# The open-loop tail-latency sweep alone (no microbenchmarks;
# internal/rtbench/openloop_test.go, the window per load point its one
# knob): calibrates capacity, then drives Poisson load at 0.2/0.7/1.4x and
# prints per-lane p50/p99/p999. Pass OPENLOOP_DUR=300ms for a quick
# pass; the default 2s window per point takes ~25s total.
OPENLOOP_DUR ?= 2s
bench-openloop:
	$(GO) test -run TestOpenLoopSweepReport -v -count=1 ./internal/rtbench -openloop-dur $(OPENLOOP_DUR)

ci: fmt-check build cross lint test race synctest chaos bench-smoke bench-selftest benchpairs-selftest
