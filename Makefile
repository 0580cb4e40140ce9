# Same entry points CI uses (.github/workflows/ci.yml), so local runs
# and CI can never disagree about what "passing" means.

GO ?= go

.PHONY: all build test test-short test-portable test-sync-race overlap-smoke bench-smoke sync-latency-smoke serve-smoke serve-latency-smoke fault-grid-smoke membership-smoke chaos-smoke cross-arm64 vet fmt-check fmt docs-check

all: fmt-check vet docs-check build test-short test-sync-race test-portable cross-arm64

build:
	$(GO) build ./...

# Full suite, including the ~45s experiment reproductions.
test:
	$(GO) test ./...

# CI lane: fast tests only, race detector on.
test-short:
	$(GO) test -short -race ./...

# Portable-kernel lanes (DESIGN.md §7): runtime SIMD switch-off over the
# compute packages, then the purego build tag over everything.
test-portable:
	GW2V_NOSIMD=1 $(GO) test -short ./internal/vecmath/ ./internal/sgns/ ./internal/core/ ./internal/harness/
	$(GO) test -short -tags purego ./...

# Sync-engine concurrency lane: the parallel encode/decode pipeline,
# buffer-reuse overlap, free-running out-of-phase rounds and the
# concurrent accumulator, all under the race detector with repetition.
test-sync-race:
	$(GO) test -race -count=2 -run 'TestSync|TestAccumulatorConcurrent' ./internal/gluon/ ./internal/combine/

# Overlap-pipeline lane: the double-buffered BSP step (DESIGN.md §12)
# must be invisible in the trained bits — the pinned-hash identity
# diagonal (modes × codecs × transports against the serialized seed
# hashes) plus the free-running out-of-phase TCP cluster, under the
# race detector (mirrored as a CI step).
overlap-smoke:
	$(GO) test -race -count=1 -short -run 'TestOverlapBitIdentityPinned|TestOverlapTCPFreeRunning' ./internal/harness/
	$(GO) test -race -count=1 -run 'TestRunOverlapBitIdentical' ./internal/core/

# One-iteration benchmark run: keeps every benchmark executable.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./internal/vecmath/ ./internal/sgns/
	$(GO) test -run '^$$' -bench 'BenchmarkSyncRound' -benchtime=1x ./internal/gluon/
	$(GO) test -run '^$$' -bench 'BenchmarkSyncRoundOverlap' -benchtime=1x ./internal/core/

# One-epoch sync-latency run on a reduced grid: keeps the experiment
# executable end-to-end (mirrored as a CI step, like the throughput
# smoke).
sync-latency-smoke:
	$(GO) test -run 'TestSyncLatencySmoke' -count=1 ./internal/harness/

# End-to-end serving smoke: train a tiny model, start gw2v-serve on a
# real socket, curl /healthz and one /v1/neighbors query (mirrored as a
# CI step; see scripts/serve_smoke.sh).
serve-smoke:
	@sh scripts/serve_smoke.sh

# Reduced serve-latency grid: keeps the serving experiment executable
# end-to-end (mirrored as a CI step, like the sync-latency smoke).
serve-latency-smoke:
	$(GO) test -run 'TestServeLatencySmoke' -count=1 ./internal/harness/

# Fault-tolerance recovery lane: the priority-1 diagonal of the
# fault-grid kill matrix (every kill point, sync mode, transport and
# workload at least once) plus the real-process SIGKILL + resume test,
# under the race detector (mirrored as a CI step; DESIGN.md §10). The
# diagonal repeats at GOMAXPROCS 1 and 4: which error a rank reports
# first must not depend on goroutine scheduling.
fault-grid-smoke:
	$(GO) test -race -count=1 -run 'TestFaultGridSmoke|TestMeshRedialAfterPeerRestart' ./internal/harness/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestFaultGridSmoke' ./internal/harness/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestFaultGridSmoke' ./internal/harness/

# Elastic-membership lane: the priority-1 diagonal of the membership
# grid (every shape change, sync mode, transport and workload at least
# once) plus the three second-failure cells, under the race detector;
# the real-process peer-restart test repeats 3× as a flake gate on the
# redial path elasticity leans on (mirrored as a CI step; DESIGN.md
# §11, PROTOCOL.md §10). The grid and second-failure cells repeat at
# GOMAXPROCS 1 and 4, like fault-grid-smoke.
membership-smoke:
	$(GO) test -race -count=1 -run 'TestMembershipGridSmoke|TestSecondFailure' ./internal/harness/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestMembershipGridSmoke|TestSecondFailure' ./internal/harness/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestMembershipGridSmoke|TestSecondFailure' ./internal/harness/
	$(GO) test -count=3 -run 'TestMeshRedialAfterPeerRestart' ./internal/harness/

# Transient-fault resilience lane: the session layer's unit surface
# (reconnect, replay, corrupt-frame rejection, budget escalation) and
# every gluon-level chaos class, then the priority-1 diagonal of the
# chaos grid (every fault class, sync mode and workload at least once),
# all under the race detector (mirrored as a CI step; DESIGN.md §13,
# PROTOCOL.md §12). The grid diagonal repeats at GOMAXPROCS 1 and 4,
# like fault-grid-smoke.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestSession|TestChaos[^G]|TestDialMeshSession' ./internal/gluon/
	$(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/

# arm64 must compile (simd_stub path).
cross-arm64:
	GOOS=linux GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

fmt:
	gofmt -w .

# Every *.md referenced from Go comments or Markdown links must exist.
docs-check:
	@sh scripts/docs_check.sh
