# Developer entry points. `make check` is the full local gate and the only
# place the gate list is written out (scripts/check.sh just runs it): vet,
# build, race-enabled tests (including the decomposed-atmosphere/ocean
# stress laps, the multi-world ensemble isolation lap and the
# compressed-wire lap), the restart-decoder and group-scaled round-trip
# fuzz smokes, the conservation-budget gate on four decomposed ranks (plus
# its compressed-wire twin), the two-rank resilient rollback lap, the
# degraded ensemble lap (one member permanently failed, quorum 3/4), the
# serve-race lap (concurrent query storm against a live ingesting forecast
# store), the mixed-kernel-precision race lap plus its audited CLI gate,
# and the benchmarks (BENCH_1.json and BENCH_3.json through BENCH_8.json),
# each of bench3-bench8 preceded by a short schema self-validation smoke
# lap into a throwaway file.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test race race-decomp race-ocn-decomp race-ensemble race-wire race-kernels serve-race fuzz budget resilient ensemble check bench bench3 bench4 bench5 bench6 bench7 bench8 clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# go test's default 10-minute timeout is too short for internal/core under
# the race detector on a 2-core host (~19 minutes).
race:
	$(GO) test -race -timeout 30m ./...

race-decomp:
	$(GO) test -race ./internal/core -run 'TestDecompRankCountInvariance|TestDecompRestartRoundTrip' -count 1
	$(GO) test -race ./internal/grid -run 'TestIcosDecomp|TestIcosExchange' -count 1

race-ocn-decomp:
	$(GO) test -race ./internal/grid -run 'TestTripolar' -count 1
	$(GO) test -race ./internal/ocean ./internal/seaice -run 'TestSerialParallelEquivalence|TestParallelSerialIceAgreement|TestCompactionComposesWithBlockPartition' -count 1

race-ensemble:
	$(GO) test -race ./internal/ensemble -run 'TestTwoWorldsStepConcurrently|TestDispatchPathDoesNotAllocate' -count 1
	$(GO) test -race ./internal/fault -run 'TestPlanConcurrentUse' -count 1

race-wire:
	$(GO) test -race ./internal/core -run 'TestWireGS32ConservationAudit' -count 1 -short
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -remap cons -wire gs32 -audit-gate 1e-10

race-kernels:
	$(GO) test -race ./internal/core -run 'TestKernelPrecisionMixedConservationAudit' -count 1 -short
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -remap cons -kprec mixed -audit-gate 1e-10

serve-race:
	$(GO) test -race ./internal/statestore -run 'TestConcurrentQueryStorm|TestAnalogPipelineMatchesBruteForce' -count 1
	$(GO) test -race ./internal/core -run 'TestServeLiveIngest' -count 1

fuzz:
	$(GO) test ./internal/pario -run '^$$' -fuzz FuzzReadSubfile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/precision -run '^$$' -fuzz FuzzGroupScaledRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statestore -run '^$$' -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)

budget:
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 4 -remap cons -audit-gate 1e-10

resilient:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/ap3esm -config 25v10 -days 0.31 -ranks 2 -remap cons \
	  -checkpoint-every 5 -restart-dir "$$dir" -faults 'nan@esm.step:21'

ensemble:
	$(GO) run ./cmd/ensemble -members 4 -groups 2 -quorum 3 -attempts 2 -retries 1 \
	  -member-faults '1=nan@esm.step:1:repeat' -expect-completed 3 -expect-quarantined 1

bench:
	$(GO) run ./cmd/bench1 -out BENCH_1.json

# smoke runs a short lap of bench binary $(1) with extra flags $(2) into a
# throwaway file; the binary's own schema self-validation is the check.
smoke = dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/$(1) $(2) -out "$$dir/$(1).json"

bench3:
	$(call smoke,bench3,-steps 8)
	$(GO) run ./cmd/bench3 -out BENCH_3.json

bench4:
	$(call smoke,bench4,-steps 8)
	$(GO) run ./cmd/bench4 -out BENCH_4.json

bench5:
	$(call smoke,bench5,-members 4 -hours 0.25 -stall 200ms)
	$(GO) run ./cmd/bench5 -out BENCH_5.json

bench6:
	$(call smoke,bench6,-steps 6)
	$(GO) run ./cmd/bench6 -out BENCH_6.json

bench7:
	$(call smoke,bench7,-steps 10 -snapshots 12 -queries 1200)
	$(GO) run ./cmd/bench7 -out BENCH_7.json

bench8:
	$(call smoke,bench8,-steps 6)
	$(GO) run ./cmd/bench8 -out BENCH_8.json

check: vet build race race-decomp race-ocn-decomp race-ensemble race-wire race-kernels serve-race fuzz budget resilient ensemble bench bench3 bench4 bench5 bench6 bench7 bench8

clean:
	rm -f BENCH_1.json BENCH_3.json BENCH_4.json BENCH_5.json BENCH_6.json BENCH_7.json BENCH_8.json
