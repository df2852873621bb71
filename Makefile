# Development entry points for the mpmb repository.

GO ?= go

.PHONY: all build test test-race cover bench bench-compare microbench fuzz loc vet fmt experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Benchmark trajectory: time the flat-memory OS trial kernel against the
# frozen seed baseline on the pinned corpora (headline + secondary) and
# write BENCH_core.json (kernel/seed ns per trial, allocations, prune
# effectiveness, speedup).
bench:
	$(GO) run ./cmd/mpmb-bench perf -bench-out BENCH_core.json -secondary

# Re-run the core micro-benchmarks and diff them against the committed
# baseline. Uses benchstat when it is on PATH; otherwise degrades to
# printing the raw old/new numbers side by side (no network install is
# attempted, so this works offline).
BENCH_BASELINE := internal/core/testdata/bench_baseline.txt
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/core/ | tee /tmp/bench_new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASELINE) /tmp/bench_new.txt; \
	else \
		echo "benchstat not installed; raw comparison below (install golang.org/x/perf/cmd/benchstat for statistics)"; \
		echo "--- baseline ($(BENCH_BASELINE)) ---"; \
		grep '^Benchmark' $(BENCH_BASELINE) || true; \
		echo "--- new (/tmp/bench_new.txt) ---"; \
		grep '^Benchmark' /tmp/bench_new.txt || true; \
	fi

# All go-test micro-benchmarks (per paper table/figure plus ablations).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Brief fuzzing sessions, 10 s each; CI's fuzz smoke step runs this, so
# FUZZ_TARGETS is the one list of targets: the checkpoint decoder,
# butterfly tally, trial kernel and optimized estimator (both against the
# frozen seed), the snapshot's set-up tables (against brute force), the
# pair-credited tally (against listing every maximum set), the anchored
# view (against a brute-force listing) and the anchored trial (against
# the frozen gathered one), the dist wire decoder and merge, both graph
# parsers, alone and against their frozen pre-rewrite copies, and the
# edge-anchor and community flag parsers.
FUZZ_TARGETS := \
	./internal/core/:FuzzCheckpointDecode \
	./internal/core/:FuzzTally \
	./internal/core/:FuzzKernelVsSeed \
	./internal/core/:FuzzOptimizedVsSeed \
	./internal/core/:FuzzButterflyEdges \
	./internal/core/:FuzzPairCredit \
	./internal/core/:FuzzAnchoredSnapshot \
	./internal/core/:FuzzAnchoredVsReference \
	./internal/dist/:FuzzLeaseDecode \
	./internal/dist/:FuzzCheckpointMerge \
	./internal/bigraph/:FuzzRead \
	./internal/bigraph/:FuzzReadBinary \
	./internal/bigraph/:FuzzReadVsReference \
	./internal/bigraph/:FuzzReadBinaryVsReference \
	./internal/cliflags/:FuzzParseEdgeAnchor \
	./internal/cliflags/:FuzzParseCommunities
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime=10s; \
	done

# Net non-test Go line delta of the working tree against BASE (git diff
# --numstat, *.go minus *_test.go and minus benchmark/), the figure every
# CHANGES.md entry states. New files count once they are staged.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' ':!benchmark/' | \
		awk '{a += $$1; d += $$2} END {printf "non-test Go lines vs $(BASE): +%d -%d = %+d\n", a, d, a - d}'

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate every paper table and figure (laptop-scaled defaults).
experiments:
	$(GO) run ./cmd/mpmb-bench -exp all

clean:
	$(GO) clean ./...
