# Same entry points CI uses (.github/workflows/ci.yml), so local runs
# and CI can never disagree about what "passing" means.

GO ?= go

.PHONY: all build test test-short test-portable test-sync-race overlap-smoke bench-smoke serve-smoke recovery-smoke chaos-smoke fuzz-smoke cross-arm64 vet fmt-check fmt docs-check

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
# gluon picks the serial or the concurrent round pipeline from
# GOMAXPROCS, so the lane repeats at GOMAXPROCS=1: a 2-CPU runner would
# otherwise never race-test the serial side (mirrored as a CI step).
SYNC_RACE_TESTS = 'TestSync|TestAccumulatorConcurrent'
test-sync-race:
	$(GO) test -race -count=2 -run $(SYNC_RACE_TESTS) ./internal/gluon/ ./internal/combine/
	GOMAXPROCS=1 $(GO) test -race -count=2 -run $(SYNC_RACE_TESTS) ./internal/gluon/ ./internal/combine/

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

# End-to-end serving smoke: train a tiny model, start gw2v-serve on a
# real socket, curl /healthz and one /v1/neighbors query (mirrored as a
# CI step; see scripts/serve_smoke.sh).
serve-smoke:
	@sh scripts/serve_smoke.sh

# Recovery lane (DESIGN.md §10–§11, PROTOCOL.md §8, §10): every resume
# runs the one membership negotiation. First its gluon unit surface —
# the decision policy, decision checks, offer/decision codecs and their
# fuzz seeds, range migration, and the rejection of undefined frame
# kinds. Then the priority-1 diagonals of the fault-grid kill matrix
# (every kill point, sync mode, transport and workload at least once)
# and of the membership grid (every shape change likewise), the three
# second-failure cells (another rank dies mid-recovery → clean
# ErrPeerLost on every survivor) and the real-process peer-restart
# test, all under the race detector and repeated at GOMAXPROCS 1 and 4:
# which error a rank reports first must not depend on goroutine
# scheduling. The peer-restart test then repeats 3× as a flake gate on
# the redial path recovery leans on (mirrored as a CI step).
RECOVERY_TESTS = 'TestFaultGridSmoke|TestMembershipGridSmoke|TestSecondFailure|TestMeshRedialAfterPeerRestart'
recovery-smoke:
	$(GO) test -race -count=1 -run 'TestDecideMembership|TestCheckMembershipDecision|TestNegotiateMembership|TestNegotiateResume|TestMigrateRanges|TestMembershipOfferRoundTrip|FuzzParseMembership|TestUndefinedFrameKindRejected' ./internal/gluon/
	$(GO) test -race -count=1 -run $(RECOVERY_TESTS) ./internal/harness/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run $(RECOVERY_TESTS) ./internal/harness/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run $(RECOVERY_TESTS) ./internal/harness/
	$(GO) test -count=3 -run 'TestMeshRedialAfterPeerRestart' ./internal/harness/

# Transient-fault resilience lane: the session layer's unit surface
# (reconnect, replay, corrupt-frame rejection, budget escalation, the
# retransmit limit), the heal-off error-class table, the mixed-heal
# mesh and every gluon-level chaos class, then the priority-1 diagonal
# of the chaos grid (every fault class, sync mode and workload at least
# once), all under the race detector (mirrored as a CI step; DESIGN.md
# §13, PROTOCOL.md §12). The grid diagonal repeats at GOMAXPROCS 1 and
# 4, like recovery-smoke.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestSession|TestChaos[^G]|TestDialMeshSession|TestDialMeshMixedHeal|TestTCPDeadlineTable|TestTCPWriteDeadline' ./internal/gluon/
	$(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestChaosGridSmoke' ./internal/harness/

# Fuzz lane: every Fuzz* target runs FUZZTIME past its seed corpus
# (mirrored as a CI step). In internal/gluon those are the parsers that
# face the wire (mesh hello, session frame, resume hello, membership
# offer and decision, and the sync round's access bitmap and vector
# frame: FuzzParseAccessInto, FuzzDecodeVectorFrame), seeded from the
# golden frames and testdata/fuzz; in internal/model the model-file
# parser that faces the disk and gw2v-serve's hot reload
# (FuzzModelLoad); in internal/vecmath and internal/xrand the exact SGNS
# pair's two batch primitives (the fused UpdatePairDot kernel across
# kernel sets, the batch negative draw against sequential draws). All
# but the golden-seeded ones start from testdata/fuzz. A crasher lands
# in the package's testdata/fuzz.
FUZZTIME ?= 10s
FUZZ_PKGS = ./internal/gluon/ ./internal/model/ ./internal/vecmath/ ./internal/xrand/
fuzz-smoke:
	@for p in $(FUZZ_PKGS); do \
		for f in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			echo "fuzz $$p $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$p || exit 1; \
		done; \
	done

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

# Every *.md and BENCH_*.json referenced from Go comments or Markdown
# links must exist.
docs-check:
	@sh scripts/docs_check.sh
