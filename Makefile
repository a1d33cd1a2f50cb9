GO ?= go

# Benchmarks included in `make bench` (full pipeline benches are
# cmd/experiments territory and too slow for a default target).
BENCH ?= ^(BenchmarkEmbed|BenchmarkSTA)
BENCHTIME ?= 1s

# `make perfbench` runs one workload of the end-to-end benchmark
# (perfbench/, see its README) for BENCH_SECONDS of measuring;
# BENCH_SECONDS=0 makes the minimum two passes.
WORKLOAD ?= eco
SEED ?= 1
BENCH_SECONDS ?= 20

# repld daemon defaults for `make serve` / `make loadtest`.
ADDR ?= :8080
WORKERS ?= 2
QUEUE ?= 64
JOBS ?= 50
CONCURRENCY ?= 8

.PHONY: build fmt test race vet lint assert oracle cover serve-race fmacheck check bench perfbench serve loadtest clean

# Coverage floor for the differentially-tested packages (per-package,
# percent of statements). The oracle exists to exercise the embedder;
# a coverage drop there means a check family silently stopped running.
COVER_MIN ?= 80
COVER_PKGS = ./internal/embed ./internal/oracle

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting gate: gofmt must have nothing to rewrite anywhere in the
# tree (fixtures and the perfbench module included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Race suite: -short keeps the randomized sweeps small so the whole
# thing stays well under two minutes.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# replint is the project's own static analyzer (cmd/replint): floatcmp
# (exact float compares), ctxstride (cancellation polling in unbounded
# loops) and wgleak (WaitGroup joins), the three rules that alone
# reported a seeded bug no test caught. Worker-shard writes are left to
# the race suites (race, serve-race).
# Zero unsuppressed findings is part of `make check`; see
# `go run ./cmd/replint -rules` for the catalog.
lint:
	$(GO) run ./cmd/replint ./...

# Runtime invariant layer: built with -tags replassert, the embedder and
# the STA re-verify their structural invariants (prune staircase, wave
# pop order, arrival recurrence) on every run of the regular suites.
assert:
	$(GO) test -tags replassert ./internal/embed/... ./internal/timing/...

# The correctness oracle (internal/oracle): brute-force frontier
# agreement against the embedding DP, functional-equivalence and
# invariant checks on full engine runs, and the rename/translation
# metamorphic suite. -short keeps it inside the `make check` budget;
# drop it (or run cmd/replcheck) for the full sweep. The run doubles as
# the coverage measurement for the `cover` gate (cover.out).
oracle:
	$(GO) test -short -count 1 -coverprofile=cover.out -coverpkg=./internal/embed/...,./internal/oracle/... $(COVER_PKGS)

# Coverage gate: the differentially-tested packages must stay above
# COVER_MIN% statement coverage, as measured by the oracle run.
cover: oracle
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) '\
		/^total:/ { sub(/%/, "", $$3); \
			if ($$3 + 0 < min) { printf "coverage %.1f%% below floor %d%%\n", $$3, min; exit 1 } \
			else { printf "coverage %.1f%% (floor %d%%)\n", $$3, min } }'

# The service and cluster layers are concurrency-dense (worker pool,
# drain, quorum fan-out, singleflight, shared counters), so their tests
# always run under the race detector — without -short, unlike the
# repo-wide race sweep.
serve-race:
	$(GO) test -race -count 1 ./internal/serve/... ./internal/cluster/...
	$(GO) test -race -count 1 -run TestRunContext ./internal/core/

# Same float bits on every architecture: Go may fuse x*y + z into one
# fused multiply-add, which rounds once instead of twice, and does so on
# arm64 but not on amd64. An explicit float64(x*y) conversion rounds the
# product and prevents the fusion. This gate cross-compiles the module
# for arm64 with -S and fails on any fused multiply-add in the listing
# (perfbench/ is a separate module and not covered).
fmacheck:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags='repro/...=-S' ./... >"$$tmp" 2>&1 || { tail -20 "$$tmp"; exit 1; }; \
	grep -q FMULD "$$tmp" || { echo "fmacheck: the build listed no arm64 assembly"; exit 1; }; \
	if grep -E '\bF(N)?M(ADD|SUB)D\b' "$$tmp"; then \
		echo "fmacheck: fused multiply-adds above; wrap each product in float64(...)"; exit 1; fi; \
	echo "fmacheck: no fused multiply-add in the arm64 build"

# The full gate, in CI order: compile, gofmt, vet, lint (incl.
# internal/serve), plain tests, the asserting build, the oracle + coverage gate, the
# race suite, then the service race suite.
check: build fmt vet lint test assert cover race serve-race

# Runs the embedder/STA micro-benchmarks; the text results also land
# in BENCH_embed.txt.
bench: build
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem . | tee BENCH_embed.txt

# One run of the end-to-end benchmark; exits non-zero when any output
# check or the determinism guard fails.
perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(BENCH_SECONDS) --trace 0

# Run the replication daemon locally (Ctrl-C / SIGTERM drains).
serve: build
	$(GO) run ./cmd/repld -addr $(ADDR) -workers $(WORKERS) -queue $(QUEUE)

# Load-test a running daemon: JOBS jobs at CONCURRENCY in-flight, with
# latency percentiles and a determinism cross-check.
loadtest:
	$(GO) run ./cmd/replload -addr http://localhost$(ADDR) -n $(JOBS) -concurrency $(CONCURRENCY)

clean:
	rm -f BENCH_embed.txt cover.out
