# Development targets for the CRR reproduction.

GO ?= go

.PHONY: all build test race race-core serve bench bench-full bench-core fuzz verify verify-quick vet fmt experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The CI race job: discovery/compaction engines, induction strategies, the
# out-of-core column store, telemetry, the serving subsystem (hot reload +
# drain + generation CAS) and the stream maintainer under the detector, then
# the lattice engine's shared state raced repeatedly.
race-core:
	$(GO) vet ./...
	$(GO) test -race ./internal/core/... ./internal/induction/... ./internal/colstore/... ./internal/telemetry/... ./internal/experiments/... ./internal/serve/... ./internal/stream/... ./internal/registry/... ./internal/cluster/... ./internal/router/...
	$(GO) test -race -count=10 -timeout 5m -run 'Parallel|Cancel|TrainerError|MaxNodes|Prop8' ./internal/core/

# Serve a discovered artifact over HTTP (see docs/TUTORIAL.md §7):
#   make serve RULES=rules.json [ADDR=:8080]
RULES ?= rules.json
ADDR ?= :8080
serve:
	$(GO) run ./cmd/crrserve -rules $(RULES) -addr $(ADDR)

# Every paper table/figure as a Go benchmark, at 0.1 scale.
bench:
	$(GO) test -bench=. -benchmem .

# Paper-scale benchmarks (minutes).
bench-full:
	CRR_BENCH_SCALE=1 $(GO) test -bench=. -benchmem -timeout 60m .

# Core micro-benchmarks: discovery, compaction, prediction index.
bench-core:
	$(GO) test -bench=. -benchmem ./internal/core/

fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/predicate/ -fuzz FuzzParseDNF -fuzztime 30s
	$(GO) test ./internal/predicate/ -fuzz FuzzImplies -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzCompactSoundness -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzWireDecode -fuzztime 30s
	$(GO) test ./internal/colstore/ -fuzz FuzzColstoreOpen -fuzztime 30s
	$(GO) test ./internal/colstore/ -fuzz FuzzDictDecode -fuzztime 30s
	$(GO) test ./internal/colstore/ -fuzz FuzzHeaderDecode -fuzztime 30s

# Differential correctness harness: cross-engine oracles, inference
# soundness, metamorphic invariants over every built-in dataset.
verify:
	$(GO) run ./cmd/crrverify

verify-quick:
	$(GO) run ./cmd/crrverify -quick

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)

fmt:
	gofmt -w .

# Regenerate every table and figure of the paper (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/crrbench -exp all | tee results_full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/birdmigration
	$(GO) run ./examples/taxaudit
	$(GO) run ./examples/imputation
	$(GO) run ./examples/powermonitor

clean:
	$(GO) clean -testcache
