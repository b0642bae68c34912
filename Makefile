# Standard checks for the UCMP reproduction. `make check` is what CI (and a
# pre-commit run) should execute: gofmt, vet, staticcheck (when installed), build,
# the full test suite, and the race detector over the packages with
# intentional concurrency (the parallel offline build in internal/core, the
# engine in internal/sim, and the Runner's worker pool and path-set store in
# internal/harness, with the sharded run behind ucmpbench's per-exhibit stat
# fold)
# plus the queue-level differential (TestQueueDifferential, part of the
# internal/sim run: the timing wheel against the reference heap, op for op),
# which is the determinism pin for the scheduler, and a run of every
# examples/ program.

GO ?= go

.PHONY: check fmt vet staticcheck build test race race-run examples bench benchmark bench-offline bench-netsim bench-scaling scale-smoke crash-smoke

check: fmt vet staticcheck build test race examples

# fmt fails, naming the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck is optional locally (not vendored; CI installs it): the target
# degrades to a notice when the binary is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/sim/...
	@$(MAKE) --no-print-directory race-run PKG=./internal/routing RUN='TestCompiledTableBytesSymmetricVsBrute|TestSymmetricFastPathMatchesGroupPath|TestCompiledTableAgreesWithRouter|TestCongestionCanonicalMatchesBrute|TestCongestionPickZeroAlloc|TestPackedCodecRoundTrip|TestKSPStoreMatchesOracle'
	@$(MAKE) --no-print-directory race-run PKG=./internal/harness RUN='TestTrialReplicationDeterminism|TestWorkerCount|TestRunnerSimulatesEachConfigOnce|TestRunnerBuildsSharedPathSetOnce|TestRunnerReportsLowestIndexError|TestDifferentialSerialSharded|TestDifferentialCongestionSharded|TestDifferentialWarmFabric|TestDifferentialCheckpointResume|TestResumeMissingCheckpoint|TestResumeCorruptionRejected|TestSweepResume|TestRunTrialsPanicRecovery|TestCongestionSteeringChangesOutcome|TestAlphaControllerLeavesWarmFabricIntact|TestShardableGate|TestShortSliceFallsBackSerial|TestShardsValidation|TestShardedNonDividing64|TestResumeOlderVersionRejected|TestRotorPaperSizingAlloc|TestRunValidatesWorkloadInputs|TestCheckpointingIsPureRead|TestCheckpointAllocatesWhatItWrites'
	@$(MAKE) --no-print-directory race-run PKG=./cmd/ucmpbench RUN='TestShardStatsFoldedWhole'
	@$(MAKE) --no-print-directory race-run PKG=./internal/netsim RUN='TestSendRunMatchesPerPacketLoop|TestHostNICMemoryIndependentOfFlowSize|TestPacketBehindRunKeepsFIFO|TestRestoreRejectsSplicedNICQueues|TestSparseIndexValidation|TestSparsePortsRoundTrip|TestRotorRecordsMatchFifoVOQ|TestRotorIndirectMatchesLinearScan|TestVOQRecordRoundTrip|TestVOQRecordRefusesLossyPacket|TestVOQChunkAccounting|TestVOQRecordSize|TestRotorDisabledMultiHopFollowsRoute|TestCalendarSlotsMatchDenseCalendar|TestNetworkBuildAllocatesNoCalendar|TestCongestionBoardStripeMatchesDenseCalendar|TestBoard|TestBoardsCheckpointOracle|TestPoisonedRunStaysClean'
	@$(MAKE) --no-print-directory race-run PKG=./internal/transport RUN='TestRotorSenderStartsWholeOrParks|TestRotorCursorValidatedOnRestore|TestRotorTransportBackpressure'

# race-run runs the tests of package PKG named in RUN (a |-separated list
# of test names, used as the -run pattern) under the race detector. It
# first checks every name against the package's `go test -list` and fails,
# naming it, when one matches no test, so a renamed or moved test cannot
# drop out of the race gate silently.
race-run:
	@have=$$($(GO) test -list . $(PKG)) || { echo "$$have"; exit 1; }; \
	for n in $$(echo '$(RUN)' | tr '|' ' '); do \
		echo "$$have" | grep -qx -- "$$n" || { echo "race-run: $(PKG) has no test $$n"; exit 1; }; \
	done
	$(GO) test -race -run '$(RUN)' $(PKG)

# examples runs every program under examples/ and fails on the first
# non-zero exit, so an example that panics at run time cannot pass CI by
# compiling.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# bench runs the per-layer `go test -bench` probes — the offline path-set
# build and the netsim packet path — and prints their raw lines. The
# repository's yardstick is `make benchmark`; these say which layer moved.
bench: bench-offline bench-netsim

# The 16-ToR builds are the quick ones; the paper-size set covers what they
# cannot — fabrics whose N is not a power of two and that take the
# brute-force build ((108,6) and (324,12) whole, with the store's B/group,
# one (324,12) source row, and the (324,12) calculator set-up — h_static and
# the peer table — that runs serially before the build's worker pool).
bench-offline:
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_PathSetBuild(Serial)?$$' -benchmem -benchtime 200x .
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_(PathSetBuild108|ComputeRow324|NewCalculator324)$$' -benchmem -benchtime 20x .
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_PathSetBuild324$$' -benchmem -benchtime 3x .

# benchmark runs the repository's benchmark (BENCHMARK.json): every
# paper-scale workload end to end, five interleaved rounds, the record in
# benchmark/out/<rev>.json; compare records with
# `go run ./benchmark -compare benchmark/results/baseline.json benchmark/out/<rev>.json`.
benchmark:
	$(GO) run ./benchmark

bench-netsim:
	$(GO) test -run '^$$' -bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkRotorSelectIndirect108$$|BenchmarkRotorParkUnpark$$|BenchmarkHostNICEnqueueManyFlows$$|BenchmarkNetworkBuild512$$' -benchmem ./internal/netsim

# crash-smoke is the CI crash-recovery check (DESIGN.md §15): an
# uninterrupted reference run writes its per-flow CSV; the same
# configuration restarts with checkpointing on, is SIGKILLed mid-run, is
# re-invoked with -resume, and the resumed run's per-flow CSV must be
# byte-identical to the reference. The CSV is the comparable artifact —
# stdout carries wall-clock timings. The grep asserts a real resume
# happened (a cold fallback would also produce identical output, but then
# the smoke would not be testing restore).
CRASH_FLAGS = -tors 64 -uplinks 4 -duration 20ms -load 0.6 -seed 42
crash-smoke:
	rm -rf results/.crash_ckpt results/.crash_ref.csv results/.crash_res.csv results/.crash_sim
	$(GO) build -o results/.crash_sim ./cmd/ucmpsim
	./results/.crash_sim $(CRASH_FLAGS) -fctout results/.crash_ref.csv > /dev/null
	-./results/.crash_sim $(CRASH_FLAGS) -checkpoint-dir results/.crash_ckpt -checkpoint-every 1ms -fctout /dev/null > /dev/null 2>&1 & \
	pid=$$!; sleep 4; kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null; true
	test -n "$$(ls results/.crash_ckpt)"
	./results/.crash_sim $(CRASH_FLAGS) -checkpoint-dir results/.crash_ckpt -checkpoint-every 1ms -resume \
		-fctout results/.crash_res.csv 2>&1 >/dev/null | tee /dev/stderr | grep -q 'resumed at'
	cmp results/.crash_ref.csv results/.crash_res.csv
	rm -rf results/.crash_ckpt results/.crash_ref.csv results/.crash_res.csv results/.crash_sim

# scale-smoke is the CI wall-clock budget check at the 512-ToR point of the
# scaling sweep: the first pass builds the symmetric path set cold, compiles
# the table, runs the permutation sim, and saves the compiled fabric into
# the cache directory; the second pass must reload it warm (asserted via the
# report's warm column) within a much tighter budget.
scale-smoke:
	rm -rf results/.scale_cache
	timeout 300 $(GO) run ./cmd/ucmpbench -exp scale -scale-ns 512 -fabric-cache results/.scale_cache
	timeout 120 $(GO) run ./cmd/ucmpbench -exp scale -scale-ns 512 -fabric-cache results/.scale_cache | tee /dev/stderr | grep -q '1/1 points loaded warm'
	rm -rf results/.scale_cache

# bench-scaling runs only the multicore sweep, printing raw `go test` lines:
# the quick local answer to "does sharding win on this machine".
bench-scaling:
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' \
		-benchmem -benchtime 10x ./internal/netsim
