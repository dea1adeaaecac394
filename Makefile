GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmt-check examples test race bench bench-suite bench-smoke bench-check fuzz golden-cli golden-examples loc quick

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

# race runs the harness, facade, rank-scheduler, batch-scheduler, engine,
# fabric and cmd tests under the race detector (the full experiment suite
# under -race is slow; CI runs it, locally target the pool, the facade the
# pool reuses systems through, and the concurrent multi-job path).
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
	$(GO) test -run '^$$' -fuzz '^FuzzParseDecisionTrace$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParseArrival$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME) ./internal/alloc
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzCandidates$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzMatch$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzCollectives$$' -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzSchedule$$' -fuzztime $(FUZZTIME) ./internal/sched

# golden-cli pins the whole CLI quick suite: the stdout of
# `experiments -exp all -quick -parallel 2` must hash to GOLDEN_CLI_SHA256.
# The golden tests in internal/experiments run QuickOptions() (16 nodes);
# the CLI's -quick runs 48 nodes with its own caps, so only this target
# covers that scale. The output is the same at every -parallel setting. CI
# runs it (~35 s on 2 cores); after an intended output change, re-pin the
# hash and say why in the change.
GOLDEN_CLI_SHA256 := 45b2008007c8c9ffa9a9ba136752904241e238128ef5e415889ce3e883834c11
golden-cli:
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/experiments -exp all -quick -parallel 2 > "$$out" || exit 1; \
	got="$$(sha256sum < "$$out" | cut -d' ' -f1)"; \
	if [ "$$got" != "$(GOLDEN_CLI_SHA256)" ]; then \
		echo "golden-cli: sha256 $$got, want $(GOLDEN_CLI_SHA256)"; exit 1; fi; \
	echo "golden-cli: ok"

# golden-examples pins what every example prints: the sha256 of the stdout of
# each examples/<name> must equal its entry in GOLDEN_EXAMPLES, and an example
# without an entry fails the target. CI runs it (~30 s on 2 cores); after an
# intended output change, re-pin the entry and say why in the change.
GOLDEN_EXAMPLES := \
	appaware=96c37300685b38fa9c49b4e3c14b7610c981df75b4665ea8b02093c9578f6f3d \
	collectives=308603228e1c3f819375cadc529c24fa80ca7b53e258c3db055a7e8cc4821924 \
	cotenancy=dc92ea68b58c0647fd97072e28e29dec7413eada95f54db849fbbedc71970817 \
	halo3d=fdf3a34dfe4987bd555f7acee140271981747d2b9b9961f86c047a14bb334212 \
	noisyalltoall=7beb0e36df4bc3d8fc050e561aba1bcc527cd8066eccfb325ba3a5d7339029d3 \
	quickstart=118f973707e6eb9ff682b688877794f86fc7b0a2b3ec37cda8efc0c4305a10fa \
	scheduler=15ef2a4a9cce27f196c436bec712588b449251e5a521e552c11176f293ef5776 \
	telemetry=0927a7c1609e35423c0fce755ce858ff4643137f5e32069304782b43fcf1ee1a
golden-examples:
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; fail=0; \
	for d in examples/*/; do \
		name="$$(basename "$$d")"; want=""; \
		for e in $(GOLDEN_EXAMPLES); do \
			if [ "$${e%%=*}" = "$$name" ]; then want="$${e#*=}"; fi; \
		done; \
		if [ -z "$$want" ]; then \
			echo "golden-examples: $$name has no pinned sha256"; fail=1; continue; fi; \
		$(GO) run ./examples/$$name > "$$out" || exit 1; \
		got="$$(sha256sum < "$$out" | cut -d' ' -f1)"; \
		if [ "$$got" = "$$want" ]; then echo "golden-examples: $$name ok"; \
		else echo "golden-examples: $$name sha256 $$got, want $$want"; fail=1; fi; \
	done; exit $$fail

# loc prints the size figure simplification changes report: non-blank lines
# that are not // comments, over the non-test Go files outside bench/ that git
# tracks or would add (git ls-files -co --exclude-standard). It gates nothing.
loc:
	@git ls-files -co --exclude-standard -- '*.go' ':!:*_test.go' ':!:bench/' | \
		xargs cat | grep -cv -e '^[[:space:]]*$$' -e '^[[:space:]]*//'

# quick is the fastest end-to-end smoke: build plus one tiny experiment.
quick: build
	$(GO) run ./cmd/experiments -exp fig3 -quick -iterations 2
