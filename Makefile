# Verification tiers. Tier 1 is the fast always-green gate; tier 2 adds
# go vet and the race detector — required since internal/runner introduced
# real concurrency (the worker pool that fans simulation points across
# CPUs) — plus a one-iteration smoke of every Go benchmark, so a broken
# benchmark fails the gate; tier 3 runs simlint, the project's own static
# analyzers: the per-unit determinism and unit-safety rules plus the module-wide
# flow-aware passes (hotalloc, poolsafe, globalstate — see DESIGN.md
# §10); tier 4 runs the physical-
# invariant sweep (internal/invariant: conservation, roofline sandwich,
# metamorphic monotonicity over hundreds of configurations) plus a short
# native-fuzz smoke of every pure-kernel fuzz target; tier 5 is the
# crash-consistency harness (DESIGN.md §11): the fault-point enumerator
# replaying a full config with the power cut at every FTL op boundary,
# the metamorphic fault-free equivalence check, the seeded 200-config
# mixed-fault sweep pinned byte-identical across pool widths, and a
# quick fault-storm experiment whose recovery-time table lands in
# out/recovery_table.csv (uploaded as a CI artifact); tier 6 checks the
# declarative experiment layer and the design-space autotuner (DESIGN.md
# §12): the spec-vs-seed golden-equivalence test (the migrated registry
# renders byte-identical to the pre-refactor output at pool widths 1 and
# 8), the search determinism/soundness/pruning tests, a small
# deterministic autotune whose frontier lands in out/frontier.csv
# (uploaded as a CI artifact), and the five-system comparison table
# (experiment F1 at quick scale) rendered to out/comparison_table.csv
# (also uploaded as a CI artifact); trace-verify
# re-runs the tracing layer's contract tests by name (byte-identical
# Chrome files across pool widths, zero disabled-tracer allocations,
# trace/utilization reconciliation — DESIGN.md §8), every sim kernel
# zero-allocation pin (Use, Hold, Preemptible suspend/resume — §9), the
# Preemptible lost-suspended-op regression, and the device allocation
# pins (window-sized set-up, allocation-free internal reads — §9) so a
# verify log shows their verdict explicitly. Run `make verify` before sending changes.

GO ?= go
FUZZTIME ?= 10s

.PHONY: verify vet tier1 tier2 tier3 tier4 tier5 tier6 fuzz-smoke trace-verify bench bench-gate

verify: tier1 tier2 tier3 tier4 tier5 tier6 trace-verify bench-gate

vet:
	$(GO) vet ./...

tier1:
	$(GO) build ./...
	$(GO) test ./...

tier2: vet
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

tier3:
	$(GO) run ./cmd/simlint ./...

tier4: fuzz-smoke
	$(GO) test ./internal/invariant/...

tier5:
	$(GO) test -run 'TestCrashPointEnumeration|TestFaultFreeEquivalence|TestFaultSweepDeterminism' -v ./internal/invariant/
	$(GO) test -run 'TestBoundaryHookContract|TestRecover|TestBlockRetirement' -v ./internal/ssd/
	mkdir -p out
	$(GO) run ./cmd/optimstore -exp F20 -quick -format csv > out/recovery_table.csv

tier6:
	$(GO) test -run 'TestSpecGoldenEquivalence' -v ./internal/experiments/
	$(GO) test -run 'TestSearch' -v ./internal/search/
	mkdir -p out
	$(GO) run ./cmd/tune -units 256 -budget 32 -csv out/frontier.csv
	$(GO) run ./cmd/optimstore -exp F1 -quick -format csv > out/comparison_table.csv

trace-verify:
	$(GO) test -run 'TestGoldenTraceDeterminism' -v ./internal/experiments/
	$(GO) test -run 'TestTracedSweepDeterministicAcrossWidths' -v ./cmd/sweep/
	$(GO) test -run 'TestDisabledTracerAddsNoAllocations|TestTracerObservesEngineAndResource|TestResourceHoldKeepsFIFOAndAllocatesNothing|TestPreemptibleSuspendResumeAllocatesNothing|TestPreemptibleKeepsSuspendedOp' -v ./internal/sim/
	$(GO) test -run 'TestSetupAllocScalesWithWindow|TestReadMappedAllocatesNothing' -v ./internal/ssd/
	$(GO) test -run 'TestTracedRunMatchesUntraced|TestTraceReconcilesWithReportedLinkUtil' -v ./internal/core/

# One `go test -fuzz` invocation per target: the fuzz engine accepts a
# single fuzz pattern per run. -run='^$$' skips the unit tests each time;
# the committed seed corpora under testdata/fuzz/ run as part of tier 1.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBitsRoundTrip   -fuzztime=$(FUZZTIME) ./internal/fp16/
	$(GO) test -run='^$$' -fuzz=FuzzRoundProperties -fuzztime=$(FUZZTIME) ./internal/fp16/
	$(GO) test -run='^$$' -fuzz=FuzzSchemeProperties -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz=FuzzRetireTracker    -fuzztime=$(FUZZTIME) ./internal/ecc/
	$(GO) test -run='^$$' -fuzz=FuzzFTLOps          -fuzztime=$(FUZZTIME) ./internal/ssd/
	$(GO) test -run='^$$' -fuzz=FuzzEngineOrdering  -fuzztime=$(FUZZTIME) ./internal/sim/

# bench (re)measures the kernel and writes the canonical snapshot;
# bench-gate re-measures and fails when any benchmark's events/sec falls
# more than 15% below the committed snapshot (see DESIGN.md — use
# `go run ./cmd/bench -check -update` to accept a deliberate slowdown).
# `go test -bench` remains available for ad-hoc runs of individual
# benchmarks (e.g. -bench BenchmarkSweep32 ./internal/runner/).
bench:
	$(GO) run ./cmd/bench -write

bench-gate:
	$(GO) run ./cmd/bench -check
