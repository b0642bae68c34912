# Standard checks for the UCMP reproduction. `make check` is what CI (and a
# pre-commit run) should execute: vet, staticcheck (when installed), build,
# the full test suite, and the race detector over the packages with
# intentional concurrency (the parallel offline build in internal/core, the
# engine in internal/sim, and the parallel trial runner in internal/harness)
# plus the wheel/heap differential tests, which are the determinism pin for
# the timing-wheel scheduler.

GO ?= go

.PHONY: check vet staticcheck build test race bench benchmark bench-offline bench-netsim bench-pr3 bench-pr4 bench-pr5 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-pr10 bench-scaling scale-smoke crash-smoke

check: vet staticcheck build test race

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
	$(GO) test -race -run 'TestCompiledTableBytesSymmetricVsBrute|TestSymmetricFastPathMatchesGroupPath|TestTableSetEviction|TestCompiledTableAgreesWithRouter|TestCongestionCanonicalMatchesBrute|TestCongestionPickZeroAlloc|TestPackedCodecRoundTrip' ./internal/routing
	$(GO) test -race -run 'TestTrialReplicationDeterminism|TestWorkerCount|TestDifferentialWheelHeap|TestDifferentialSerialSharded|TestDifferentialLazyTables|TestDifferentialCongestionSharded|TestDifferentialWarmFabric|TestDifferentialCheckpointResume|TestResumeMissingCheckpoint|TestResumeCorruptionRejected|TestSweepResume|TestRunTrialsPanicRecovery|TestCongestionSteeringChangesOutcome|TestTableCacheCapConfig|TestShardableGate|TestShardsValidation|TestShardedNonDividing64|TestResumeOlderVersionRejected|TestRotorPaperSizingAlloc' ./internal/harness
	$(GO) test -race -run 'TestSendRunMatchesPerPacketLoop|TestHostNICMemoryIndependentOfFlowSize|TestPacketBehindRunKeepsFIFO|TestRestoreRejectsSplicedNICQueues|TestSparseIndexValidation|TestSparsePortsRoundTrip' ./internal/netsim
	$(GO) test -race -run 'TestRotorSenderStartsWholeOrParks|TestRotorCursorValidatedOnRestore|TestRotorTransportBackpressure' ./internal/transport

# bench regenerates the numbers tracked in results/BENCH_*.json: the offline
# path-set build (results/BENCH_seed.json) and the netsim packet-path
# benchmarks (results/BENCH_pr2.json, results/BENCH_pr3.json). bench-netsim
# pipes through cmd/benchjson, which emits the BENCH_*.json record format on
# stdout while echoing the raw `go test` lines on stderr, so
#
#	make -s bench-netsim > results/BENCH_new.json
#
# refreshes the tracked record in place.
bench: bench-offline bench-netsim

# The 16-ToR builds are the numbers results/BENCH_seed.json tracks; the
# paper-size set covers what they cannot — fabrics whose N is not a power
# of two and that take the brute-force build ((108,6) and (324,12) whole,
# with the store's B/group, and one (324,12) source row).
bench-offline:
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_PathSetBuild(Serial)?$$' -benchmem -benchtime 200x .
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_(PathSetBuild108|ComputeRow324)$$' -benchmem -benchtime 20x .
	$(GO) test -run '^$$' -bench 'BenchmarkOffline_PathSetBuild324$$' -benchmem -benchtime 3x .

# benchmark runs the repository's benchmark (BENCHMARK.json): every
# paper-scale workload end to end, five interleaved rounds, the record in
# benchmark/out/<rev>.json; compare records with
# `go run ./benchmark -compare benchmark/results/baseline.json benchmark/out/<rev>.json`.
benchmark:
	$(GO) run ./benchmark

bench-netsim:
	$(GO) test -run '^$$' -bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkRotorSelectIndirect108$$|BenchmarkHostNICEnqueueManyFlows$$' -benchmem ./internal/netsim | $(GO) run ./cmd/benchjson

# bench-pr3 refreshes the timing-wheel record: it reruns the netsim hot-path
# benchmarks, keeps the raw `go test` lines (benchstat input) in
# results/bench_pr3_raw.txt, and writes results/BENCH_pr3.json with a
# comparison against the recorded pre-wheel baseline on stderr.
bench-pr3:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$' \
		-benchmem -benchtime 20x ./internal/netsim \
		| tee results/bench_pr3_raw.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_pr2.json \
			-method "GOMAXPROCS=1 make bench-pr3 (timing-wheel scheduler; baseline: results/BENCH_pr2.json)" \
			> results/BENCH_pr3.json

# bench-pr4 refreshes the sharded-engine record: the serial hot-path
# benchmarks (gated at 10% regression against the pre-sharding baseline in
# results/BENCH_pr3.json) plus the 64-ToR permutation in both serial and
# sharded form. GOMAXPROCS is pinned to 1 for run-to-run stability of the
# serial gate; the Saturation64Sharded number under GOMAXPROCS=1 therefore
# measures sharding *overhead*, not speedup — see DESIGN.md §10 for the
# multi-core exhibit. BENCHTIME trades precision for wall clock.
BENCHTIME ?= 20x
bench-pr4:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		| tee results/bench_pr4_raw.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_pr3.json -maxregress 0.10 \
			-method "GOMAXPROCS=1 make bench-pr4 (sharded conservative-PDES engine; baseline: results/BENCH_pr3.json; single-core container, so Saturation64Sharded records overhead, not speedup)" \
			> results/BENCH_pr4.json

# bench-pr5 refreshes the fault-injection record: the PR-4 hot-path
# benchmarks rerun with no failure timeline — the zero-cost gate, held to
# 10% regression against results/BENCH_pr4.json because a nil fault state
# must cost one branch — plus SaturationFailover, which prices route
# planning and packet recovery with an active failure schedule (new in this
# record, so it carries no baseline comparison).
bench-pr5:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		| tee results/bench_pr5_raw.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_pr4.json -maxregress 0.10 \
			-method "GOMAXPROCS=1 make bench-pr5 (runtime fault injection; baseline: results/BENCH_pr4.json; empty-timeline hot paths gated at 10%)" \
			> results/BENCH_pr5.json

# bench-pr6 refreshes the adaptive-window/domain-grouping record in two
# stages that land in one results/BENCH_pr6.json: (1) the serial hot paths
# under GOMAXPROCS=1, gated at 10% regression against results/BENCH_pr5.json
# — the sharded-engine rework must not tax the serial engine; (2) the
# BenchmarkShardScaling sweep (serial reference plus worker counts 1..16)
# with GOMAXPROCS left at the machine's core count, which is the multicore
# speedup exhibit. The sweep benchmarks are new in this record, so the
# comparison prints "(not in baseline)" for them instead of gating. On a
# single-core machine the sweep records overhead, not speedup; the committed
# scaling table comes from the CI bench job, which runs on all cores.
SCALING_BENCHTIME ?= 10x
bench-pr6:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		> results/.pr6_serial.tmp
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' \
		-benchmem -benchtime $(SCALING_BENCHTIME) ./internal/netsim \
		> results/.pr6_scaling.tmp
	cat results/.pr6_serial.tmp results/.pr6_scaling.tmp > results/bench_pr6_raw.txt
	rm -f results/.pr6_serial.tmp results/.pr6_scaling.tmp
	$(GO) run ./cmd/benchjson -compare results/BENCH_pr5.json -maxregress 0.10 \
		-method "make bench-pr6 (adaptive windows + domain grouping; serial hot paths at GOMAXPROCS=1 gated 10% vs results/BENCH_pr5.json; BenchmarkShardScaling at full core count)" \
		< results/bench_pr6_raw.txt > results/BENCH_pr6.json

# bench-pr7 refreshes the rotation-symmetry/packed-table record in two
# stages landing in one results/BENCH_pr7.json: (1) the serial hot paths
# under GOMAXPROCS=1, gated at 10% regression against results/BENCH_pr6.json
# — the symmetric build and table rework must not tax the packet path; (2)
# the N ∈ {108, 256, 512, 1024} scaling sweep (`ucmpbench -exp scale`),
# which records offline build time, table compile time, peak heap via
# runtime.MemStats, events/s, and the naive-vs-packed table rows per point.
# The sweep entries are new in this record, so the comparison prints "(not
# in baseline)" for them instead of gating.
bench-pr7:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		> results/.pr7_serial.tmp
	$(GO) run ./cmd/ucmpbench -exp scale -benchfmt > results/.pr7_scale.tmp
	cat results/.pr7_serial.tmp results/.pr7_scale.tmp > results/bench_pr7_raw.txt
	rm -f results/.pr7_serial.tmp results/.pr7_scale.tmp
	$(GO) run ./cmd/benchjson -compare results/BENCH_pr6.json -maxregress 0.10 \
		-method "make bench-pr7 (rotation-symmetry dedup + arena-packed tables; serial hot paths at GOMAXPROCS=1 gated 10% vs results/BENCH_pr6.json; ScaleSweep N=108..1024 at full core count)" \
		< results/bench_pr7_raw.txt > results/BENCH_pr7.json

# bench-pr8 refreshes the congestion-sharding record in two stages landing
# in one results/BENCH_pr8.json: (1) the serial hot paths under GOMAXPROCS=1,
# gated at 10% regression against results/BENCH_pr7.json — the board
# publication hook and the restructured congestion pick must not tax
# congestion-off runs — and (2) the BenchmarkCongestionSharded ladder
# (serial + 1/2/4/8/16 workers over the congestion64 incast-on-permutation
# scenario, steering engaged) with GOMAXPROCS left at the machine's core
# count. The ladder entries are new in this record, so the comparison prints
# "(not in baseline)" for them instead of gating; on a single-core machine
# the ladder records sharding overhead, not speedup — the committed
# >1x-at-4+-workers numbers come from the CI bench job.
bench-pr8:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		> results/.pr8_serial.tmp
	$(GO) test -run '^$$' -bench 'BenchmarkCongestionSharded' \
		-benchmem -benchtime $(SCALING_BENCHTIME) ./internal/netsim \
		> results/.pr8_ladder.tmp
	cat results/.pr8_serial.tmp results/.pr8_ladder.tmp > results/bench_pr8_raw.txt
	rm -f results/.pr8_serial.tmp results/.pr8_ladder.tmp
	$(GO) run ./cmd/benchjson -compare results/BENCH_pr7.json -maxregress 0.10 \
		-method "make bench-pr8 (slice-boundary congestion board; serial hot paths at GOMAXPROCS=1 gated 10% vs results/BENCH_pr7.json; CongestionSharded ladder at full core count)" \
		< results/bench_pr8_raw.txt > results/BENCH_pr8.json

# bench-pr9 refreshes the warm-fabric record in two stages landing in one
# results/BENCH_pr9.json: (1) the serial hot paths under GOMAXPROCS=1, gated
# at 10% regression against results/BENCH_pr8.json — the codec, the
# TableSet LRU, and the cache plumbing must not tax the packet path — and
# (2) BenchmarkFabricColdVsWarm (N=512/1024 at -benchtime 1x), recording the
# cold build, the warm mmap load, and the speedup as custom metrics. The
# cold/warm entries are new in this record, so the comparison prints "(not
# in baseline)" for them instead of gating.
bench-pr9:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		> results/.pr9_serial.tmp
	$(GO) test -run '^$$' -bench 'BenchmarkFabricColdVsWarm' -benchtime 1x . \
		> results/.pr9_fabric.tmp
	cat results/.pr9_serial.tmp results/.pr9_fabric.tmp > results/bench_pr9_raw.txt
	rm -f results/.pr9_serial.tmp results/.pr9_fabric.tmp
	$(GO) run ./cmd/benchjson -compare results/BENCH_pr8.json -maxregress 0.10 \
		-method "make bench-pr9 (warm-fabric cache + circulant Opera; serial hot paths at GOMAXPROCS=1 gated 10% vs results/BENCH_pr8.json; FabricColdVsWarm N=512/1024 at -benchtime 1x)" \
		< results/bench_pr9_raw.txt > results/BENCH_pr9.json

# bench-pr10 refreshes the checkpoint/restore record: the serial hot paths
# rerun with checkpointing off, gated at 10% regression against
# results/BENCH_pr9.json — event tagging and the Attach/Launch split must
# cost (at most) a few words per event on runs that never snapshot.
bench-pr10:
	GOMAXPROCS=1 $(GO) test -run '^$$' \
		-bench 'BenchmarkSaturation$$|BenchmarkIncast8ToR$$|BenchmarkSaturation64$$|BenchmarkSaturation64Sharded$$|BenchmarkSaturationFailover$$' \
		-benchmem -benchtime $(BENCHTIME) ./internal/netsim \
		| tee results/bench_pr10_raw.txt \
		| $(GO) run ./cmd/benchjson -compare results/BENCH_pr9.json -maxregress 0.10 \
			-method "GOMAXPROCS=1 make bench-pr10 (deterministic checkpoint/restore; checkpointing-off serial hot paths gated 10% vs results/BENCH_pr9.json)" \
			> results/BENCH_pr10.json

# crash-smoke is the CI crash-recovery check (DESIGN.md §16): an
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
		-benchmem -benchtime $(SCALING_BENCHTIME) ./internal/netsim
