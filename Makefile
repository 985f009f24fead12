GO ?= go
GOFMT ?= gofmt

.PHONY: all fmt build vet test race ci metrics-lint status-smoke takeover-smoke stress chaos fuzz bench bench-compare bench-gate bench-rejoin bench-serve figures clean

all: ci

# Fails, listing the files, when any tracked Go file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Boots a cluster, serves its registry over HTTP, scrapes /metrics,
# and validates Prometheus-text conformance plus required coverage.
metrics-lint:
	$(GO) run ./cmd/metricslint

# Boots a 2-mirror cluster with a live adaptation controller, fetches
# /cluster/status over real HTTP, and asserts the aggregated status
# document is well-formed (links, sites, checkpoint progress, regime).
status-smoke:
	$(GO) run ./cmd/statussmoke

# Wire-takeover end-to-end under the race detector: central + standby
# + survivor as TCP-connected mirrord sites, kill the central, assert
# the standby promotes (or the mirrors elect), the survivor redials,
# and the cluster converges byte-exact in epoch 1.
takeover-smoke:
	$(GO) test -race -count=1 -run 'TestWireTakeover' ./cmd/mirrord

# Concurrency stress: the in-process cluster and CBCAST suites 20
# times at 2 and 8 cores, then the wire-takeover e2e three runs in a
# row — the flakes a single pass hides.
stress:
	$(GO) test -count=20 -cpu 2,8 ./internal/cluster ./internal/cbcast
	for i in 1 2 3; do $(MAKE) takeover-smoke || exit 1; done

# Full gate: what CI runs and what every change must keep green.
ci: fmt build vet race metrics-lint status-smoke takeover-smoke stress

# Deterministic fault-injection sweep under the race detector: 32
# seeded runs of each schedule class — "mirror" crash-restarts a
# mirror, "central" kills the central site and runs the mirrors'
# takeover runtimes (standby promotion or election, by seed) — while
# machine-checking the mirroring invariants
# (including invariant 7, lossless promotion). A failing seed replays
# with scripts/chaos_repro.sh <seed>.
chaos:
	$(GO) run -race ./cmd/chaosrunner -seeds 32 -class all

# Short fuzz pass over the wire codec and the checkpoint control
# plane (the checked-in corpora always run as regular tests).
fuzz:
	$(GO) test -run xxx -fuzz FuzzCodecCorrupt -fuzztime 20s ./internal/event
	$(GO) test -run xxx -fuzz FuzzBatchFrame -fuzztime 20s ./internal/event
	$(GO) test -run xxx -fuzz FuzzCheckpointControl -fuzztime 20s ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzPromotionHandshake -fuzztime 20s ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzRegimeDirective -fuzztime 20s ./internal/adapt
	$(GO) test -run xxx -fuzz FuzzStateDelta -fuzztime 20s ./internal/statedelta

# One fast pass over every figure and ablation benchmark.
bench:
	$(GO) test -run xxx -bench 'Fig|Ablation' -benchtime=1x .

# Repeated runs of the fan-out-sensitive benchmarks, benchstat-ready.
bench-compare:
	./scripts/bench_compare.sh

# Statistical wire-format gate: >=5 runs of the legacy vs columnar
# framing benchmarks, Mann-Whitney-checked by the self-contained
# cmd/benchgate (no benchstat install needed), plus a 0 allocs/op
# assertion on the columnar round trip.
bench-gate:
	./scripts/bench_compare.sh gate

# Incremental-rejoin gate: the snapshot vs cut-anchored delta rejoin
# transfer, Mann-Whitney-checked on convergence time plus a >=5x
# wire-byte ratio (cmd/benchgate -ratio-metric).
bench-rejoin:
	./scripts/bench_compare.sh rejoin

# The init-state serving-path benchmarks (storm throughput and
# snapshot-cache rebuild cost).
bench-serve:
	$(GO) test -run xxx -bench 'ServeInitStorm|SnapshotRebuild' -benchmem .

figures:
	$(GO) run ./cmd/benchrunner -fig all

clean:
	rm -f adaptmirror.test bench_*.txt
