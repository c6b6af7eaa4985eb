GO ?= go
# Extra flags for `make bench` (CI passes BENCHARGS=-short to emit the
# artifact at fast scale).
BENCHARGS ?=

.PHONY: all build vet lint lint-escape test race alloc-check ci obs-demo bench fuzz-smoke

# Seconds of coverage-guided fuzzing per codec target in fuzz-smoke.
FUZZTIME ?= 5s

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint enforces the determinism & aliasing invariants (DESIGN.md §8):
# go vet plus the repo's own stdlib-only analyzer suite.
lint: vet
	$(GO) run ./cmd/searchlint ./...

# lint-escape cross-checks the hotalloc analyzer against the compiler's
# escape analysis (DESIGN.md §13): compiler escapes inside //lint:hot-
# reachable functions are diffed against the analyzer's verdicts.
# Informational — disagreement is expected on cold/suppressed lines.
lint-escape:
	@tmp=$$(mktemp); trap 'rm -f $$tmp' EXIT; \
	$(GO) build -gcflags=-m ./... 2> $$tmp; \
	$(GO) run ./cmd/searchlint -escape $$tmp ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# alloc-check runs the AllocsPerRun == 0 oracles for the //lint:hot kernels
# WITHOUT -race (race instrumentation allocates, so the tests build-tag
# themselves out of `make race`). This is the dynamic backstop for the
# static hotalloc analyzer.
alloc-check:
	$(GO) test -run ZeroAlloc ./internal/cache ./internal/trace ./internal/workload ./internal/mem ./internal/serving

# obs-demo exercises the observability stack end to end: the fleetprof
# experiment at fast scale with distributed-trace and metrics-registry
# exports (DESIGN.md §9). Both files are deterministic for a fixed seed.
obs-demo:
	$(GO) run ./cmd/searchsim -fast -trace fleetprof-trace.json -metrics fleetprof-metrics.json fleetprof

# bench runs the sweep-engine before/after benchmarks (serial vs parallel,
# DESIGN.md §10), the batched-kernel microbenchmarks (DESIGN.md §11) and
# the index-build and workload-record layer benchmarks (DESIGN.md §3),
# publishing them as BENCH_sweep.json / BENCH_kernel.json / BENCH_build.json
# via cmd/benchjson.
# Compare a fresh run against a saved artifact with
# `go run ./cmd/benchjson -compare BENCH_kernel.json bench_kernel.out`.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchtime 1x -timeout 45m $(BENCHARGS) . | tee bench_sweep.out
	$(GO) run ./cmd/benchjson -o BENCH_sweep.json bench_sweep.out
	$(GO) test -run '^$$' -bench 'BenchmarkSharedReplay|BenchmarkCompressedDecode|BenchmarkHierarchyAccess|BenchmarkReplayerReplay' -timeout 30m $(BENCHARGS) . | tee bench_kernel.out
	$(GO) run ./cmd/benchjson -o BENCH_kernel.json bench_kernel.out
	$(GO) test -run '^$$' -bench 'BenchmarkMemSystem' -timeout 30m $(BENCHARGS) . | tee bench_mem.out
	$(GO) run ./cmd/benchjson -o BENCH_mem.json bench_mem.out
	$(GO) test -run '^$$' -bench 'BenchmarkRunLoadEngine|BenchmarkFleetMillionUsers' -benchtime 1x -timeout 30m $(BENCHARGS) . | tee bench_serve.out
	$(GO) run ./cmd/benchjson -o BENCH_serve.json bench_serve.out
	$(GO) test -run '^$$' -bench 'BenchmarkSearchBuild|BenchmarkWorkloadRecord' -cpu 1 -timeout 30m $(BENCHARGS) . | tee bench_build.out
	$(GO) run ./cmd/benchjson -o BENCH_build.json bench_build.out

# fuzz-smoke runs each fuzz target briefly (seed corpus plus $(FUZZTIME) of
# coverage-guided exploration per target). The trace-codec contract:
# decoders never panic and fail only with ErrBadTrace; valid streams
# round-trip identically through the file and block codecs. The index-build
# contract: an engine config that passes Validate builds without panicking,
# twice byte-identically, into an index that decodes to a naive inversion.
fuzz-smoke:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzFileCodecDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search -run '^$$' -fuzz '^FuzzSearchBuild$$' -fuzztime $(FUZZTIME)

ci: build lint test race alloc-check fuzz-smoke
