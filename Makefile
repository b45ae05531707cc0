# Verification tiers. Tier-1 is the gate every change must pass; the race
# tier adds `go vet` and the race detector over the packages with nontrivial
# concurrency (parallel sweeps, sync.Map caches, pooled engines); the lint
# tier runs the repo's custom analyzers (docs/STATIC_ANALYSIS.md).
# See docs/PERFORMANCE.md §4 for the full performance-PR checklist.

GO ?= go

.PHONY: verify vet lint race fuzz bench bench-build golden smoke cluster-smoke corpus-smoke loc

# Tier-1: build + full test suite.
verify:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt over every Go file (the benchmark's build cache under
# .bench_build/ excluded), then the custom analyzers: determinism,
# millitime, hotpathalloc, metricname, ctxflow, lockhold, goroleak. See
# docs/STATIC_ANALYSIS.md.
lint:
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/rtmdm-lint ./...

# Race tier: vet plus the race detector on the concurrent packages
# (internal/lint is included because its cross-package fact store is
# shared mutable state; internal/corpus because its runner merges worker
# outcomes under a shared checkpoint mutex; internal/models and
# internal/scenario because they share one lazily built instance per zoo
# model across goroutines).
race: vet
	$(GO) test -race ./internal/expr ./internal/dse ./internal/workload ./internal/fault ./internal/exec ./internal/server ./internal/analysis ./internal/cluster ./internal/lint ./internal/corpus ./internal/models ./internal/scenario

# Fuzz smoke: short coverage-guided runs of the scenario parser/builder,
# the canonical-hash round trip, the incremental-vs-cold analysis
# differential, the streaming trace checker against the post-hoc
# CheckInvariants, and the cluster snapshot decoder's re-encode round
# trip (the fuzz engine takes one -fuzz target at a time;
# FuzzParse also drives Build and FaultPlan on every accepted input).
fuzz:
	$(GO) test -run='^FuzzParse$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/scenario
	$(GO) test -run='^FuzzCanonicalHash$$' -fuzz='^FuzzCanonicalHash$$' -fuzztime=10s ./internal/scenario
	$(GO) test -run='^FuzzIncrementalRTA$$' -fuzz='^FuzzIncrementalRTA$$' -fuzztime=10s ./internal/analysis
	$(GO) test -run='^FuzzStreamMatchesPostHoc$$' -fuzz='^FuzzStreamMatchesPostHoc$$' -fuzztime=10s ./internal/trace
	$(GO) test -run='^FuzzDecodeSnapshot$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/cluster

# Non-test Go line count: every .go file except _test.go files, the
# benchmark module under perfbench/ and its build cache under .bench_build/
# (the number ROADMAP's "non-test line count should fall" refers to).
loc:
	@find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# The load-bearing benchmarks (compare with benchstat; -count=5 minimum).
bench:
	$(GO) test -bench 'ExpF4|ExpF5|SimulateCaseStudy' -benchmem -count=5 -run '^$$' .

# Compile the benchmark module under perfbench/ (its own go.mod, so
# `go build ./...` never reaches it) with the environment perfbench/run.py
# builds it under, so a symbol it imports cannot vanish unnoticed.
bench-build:
	cd perfbench && GOWORK=off GOFLAGS=-mod=mod GOPROXY=off $(GO) build -o /dev/null .

# Byte-identity smoke: quick tables to stdout for diffing against a baseline.
golden:
	$(GO) run ./cmd/rtmdm-bench -all -quick -csv

# Service smoke: build rtmdm-serve + rtmdm-loadgen, drive a live server,
# require exact result-cache miss/hit answers and term-cache reuse under
# admission churn, and assert a clean drain on SIGTERM. See docs/SERVER.md.
smoke:
	./scripts/smoke.sh

# Cluster smoke: 1-vs-4-shard throughput scaling behind rtmdm-gateway,
# byte-identical seeded admission logs (chaos restarts included), and
# weighted tenant fairness. Set CLUSTER_SMOKE_MIN_SCALE below 2.5 on
# machines with fewer than ~5 cores. See docs/CLUSTER.md.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Corpus smoke: sweep the pinned 1000-scenario smoke spec with the
# differential soundness oracle — zero violations, byte-identical
# manifest at 1 vs N workers, and the -inject-bug liveness self-check.
# See docs/CORPUS.md.
corpus-smoke:
	./scripts/corpus_smoke.sh
