GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt-check examples test race bench bench-suite bench-smoke bench-check fuzz quick

all: build vet fmt-check examples test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (CI runs it; use
# `gofmt -w .` to fix).
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# examples compiles every example binary explicitly. The examples are plain
# `package main` directories that only the facade API keeps honest, so they
# get their own gate against silent drift during API churn.
examples:
	@for d in examples/*/; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null ./$$d || exit 1; \
	done

test:
	$(GO) test ./...

# race runs the harness, facade, rank-scheduler, batch-scheduler, sharded
# engine/fabric and cmd tests under the race detector (the full experiment
# suite under -race is slow; CI runs it, locally target the pool, the facade
# the pool reuses systems through, the concurrent multi-job path, and the
# parallel horizon windows of the sharded engine).
race:
	$(GO) test -race ./internal/arrival/... ./internal/harness/... ./internal/mpi/... \
		./internal/sched/... ./internal/sim/... ./internal/network/... . ./cmd/...

# bench runs the root package's benchmark suite (one testing.B per paper
# figure/table, the serial/parallel executor pair and the machine-scale runs)
# with -benchmem and stores the raw `go test -json` stream as
# BENCH_$(BENCH_LABEL).json (ignored by git). The benchmark result lines
# inside are standard Go benchmark format; extract them for benchstat, or for
# appending a before/after pair to BENCH_history.txt, with:
#   jq -j 'select(.Action=="output") | .Output' BENCH_a.json | grep '^Benchmark' > a.txt
#   benchstat a.txt b.txt
# See EXPERIMENTS.md "Benchmarking & regression methodology".
BENCH_LABEL ?= local
BENCH_PATTERN ?= .
BENCH_COUNT ?= 1
# (Direct redirection, not a tee pipeline: the target must fail — and not
# leave a half-written artifact looking authoritative — when the run fails.)
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x \
		-count $(BENCH_COUNT) -timeout 60m -json . > BENCH_$(BENCH_LABEL).json \
		|| { rm -f BENCH_$(BENCH_LABEL).json; exit 1; }
	@tail -n 5 BENCH_$(BENCH_LABEL).json

# bench-suite is the quick serial-vs-parallel executor comparison.
bench-suite:
	$(GO) test -bench Suite -benchtime 1x -run '^$$' .

# bench-smoke runs one benchmark per row of BENCH_budget.txt and fails when
# its allocs/op exceeds the row's budget by more than the row's slack. CI runs
# it; after an intentional allocation change, update the row with the new
# allocs/op value and justify it in the PR.
bench-smoke:
	./scripts/bench_smoke.sh

# bench-check vets and short-tests the repository benchmark. bench/ is a Go
# module of its own, so the root `go build/vet/test ./...` never compile it,
# although it calls a dozen internal packages; CI runs this so an API change
# cannot leave the benchmark unbuildable.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# fuzz smoke-runs each native Go fuzz target for a short window (seed corpora
# are checked in under testdata/fuzz). CI runs it; raise FUZZTIME locally for
# a longer hunt, e.g. `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRouting$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseGeometry$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseShards$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseDecisionTrace$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/alloc

# quick is the fastest end-to-end smoke: build plus one tiny experiment.
quick: build
	$(GO) run ./cmd/experiments -exp fig3 -quick -iterations 2
