# Tier-1 entry points for hdfe. `make test` is the gate every change must
# pass; `make test-race` runs the whole module (serving suite included)
# under the race detector; `make test-stress` reruns the timing and
# ordering e2e tests under it at 1, 2 and 4 Ps; `make fuzz-smoke` gives
# each fuzz target a short budget; `make bench` times the bundling, level-encode and Hamming
# kernels, paper-scale leave-one-out and a lone request through the
# default microbatcher, and tracks the zero-allocation encode/score path.
# hdserve's end-to-end checks (metrics, tracing and span export,
# profiling, the audit trail) are Go tests in cmd/hdserve and
# internal/serve, so `make test` runs them.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all fmt vet test test-race test-stress fuzz-smoke bench cover cover-baseline

all: fmt vet test

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

# Every package, so new packages (internal/serve, cmd/*) are covered
# automatically instead of a hand-maintained list going stale.
test-race:
	$(GO) test -race ./...

# The timing- and ordering-sensitive e2e tests, repeated under the race
# detector across GOMAXPROCS 1, 2 and 4: the recurrence guard for
# failures that only show under contention or a particular P count.
STRESS_TESTS = TestOverloadSoak|TestBatcherGroupCommit|TestBatcherCloseDrainsQueued|TestGracefulShutdownDrains|TestAuditChaosRaceE2E|TestGoroutineLeakWatchdogE2E|TestOneRecordAgreementE2E|TestRunTelemetrySurfaces
test-stress:
	$(GO) test -race -count=3 -cpu=1,2,4 -run '^($(STRESS_TESTS))$$' ./internal/serve ./internal/obs/prof ./cmd/hdserve

fuzz-smoke:
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzEncodeRecordInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzLevelEncoderFlips$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encode -run '^$$' -fuzz '^FuzzLevelEncoderCheckpoints$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hv -run '^$$' -fuzz '^FuzzMajorityInto$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hv -run '^$$' -fuzz '^FuzzAccumulator$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ml/hamming -run '^$$' -fuzz '^FuzzLeaveOneOut$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzCSVParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/drift -run '^$$' -fuzz '^FuzzFeedbackJoin$$' -fuzztime $(FUZZTIME)

bench:
	$(GO) test ./internal/hv -run '^$$' -bench 'Bundle8Features|HammingD10k' -benchmem
	$(GO) test ./internal/encode -run '^$$' -bench 'LevelEncodeInto' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench 'TransformRecord|ScoreBatch' -benchmem
	$(GO) test ./internal/ml/hamming -run '^$$' -bench 'LeaveOneOut' -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench 'BatcherLoneSubmit' -benchmem

# Per-package coverage gate: fails only when a package drops more than
# 2 points below scripts/coverage_baseline.txt. Refresh the baseline
# with `make cover-baseline` when a drop (or a rise) is intentional.
cover:
	sh scripts/coverage_gate.sh

cover-baseline:
	sh scripts/coverage_gate.sh -update
