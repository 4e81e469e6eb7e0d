# The one definition of the checks. `make ci` runs every one of them, in
# order, stopping at the first failure; .github/workflows/ci.yml runs `make
# ci` and nothing else (ci_test.go fails on a run: line that is not a make
# target).
GO ?= go

.PHONY: all ci build test race-repeat fuzz bench lint cli-smoke bench-gate fusion-bench service-bench noise-bench dm-bench sweep-bench cluster-bench hier-bench obs-bench bench-all benchdiff benchmark-smoke serve-smoke cluster-smoke clean

# Where the *-bench targets write their BENCH_*.json artifacts. The
# committed baselines live at the repo root; point BENCH_DIR at a scratch
# directory to produce a fresh run for benchdiff without touching them.
BENCH_DIR ?= .

all: lint build test

ci: lint build test race-repeat fuzz bench benchmark-smoke cli-smoke serve-smoke cluster-smoke bench-gate

# ./... includes the examples/* packages.
build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Tests that race shared state run a few more times under the detector than
# the rest: one <package> <count> '<-run list>' triple each, where an empty
# list runs the whole package. A name that matches no test in its package
# fails the target, so renaming a test cannot turn its repeat into a pass.
#
# The sweep runner's point workers share one read-only template and write one
# table: its equality, cancel and failure tests.
RACE_REPEATS += ./internal/core 5 'TestSweepRunnerEqualsPrivateReplays|TestSweepCancelMidRun|TestSweepFailingBindingNamesItsIndex'
# Sweep and optimize jobs run the same runner over the service's cached
# engine: their numbers equal the library's own compile for every noise shape,
# with fusion on and off.
RACE_REPEATS += ./internal/service 5 'TestTemplateKindsLibraryEqualsService'
# par.Each is every engine fan-out: its claims, first-error stop and panic
# re-raise race the lanes.
RACE_REPEATS += ./internal/par 5 ''
# The ensemble's workers share one read-only plan, its segments included, and
# fork trajectories off private ideal states: its equality, count and cancel
# tests.
RACE_REPEATS += ./internal/noise 5 'TestEnsembleEqualsIndependentReplays|TestGateOpsFollowFromThePrePass|TestFusedTailMatchesStepwise|TestEnsembleCancelMidRun'
# A coordinator job that ends early (client DELETE, a failed sibling, Close, a
# ragged merge, a panic) cancels and accounts for every sub-job it
# dispatched; those paths race the fan-out.
RACE_REPEATS += ./internal/cluster 5 'TestClusterCancelPropagates|TestClusterSiblingFailureCancelsSiblings|TestClusterCloseCancelsRunningJobs|TestClusterRejectsRaggedMoments|TestClusterJobPanicIsContained|TestJobAPIParity'
# The support-aware executor skips sweeps and pins kernels by what the input
# state holds (read off it, or named by the caller that made it), in the
# support-first gate order where that walks fewer amplitudes; its sweep
# workers share pinned ops and their live-run lists read-only. Its equality,
# formula, order, work, clear-mask and kernel-property tests.
RACE_REPEATS += ./internal/hier 3 'TestSupportIsTheFormula|TestSupportFormulaSmall|TestExecutorMatchesOracle|TestMetricsAccounting|TestSupportFirstKeepsQubitSequences|TestSupportFirstWithoutClearSlotIsIdentity|TestSupportFirstNeverWalksMore|TestExecutePlanFromKnownClearQubits'
RACE_REPEATS += ./internal/sv 3 'TestClearQubits|TestPinnedKernelsEqualUnpinned|TestPinZeroReplaysEqual|TestPinZeroDense|TestDiagonalLiveRuns'
# A cache hit draws its shots through one sampler shared by every job on the
# entry, each with its own RNG, and writes its body through pooled buffers:
# the sampler's flat-CDF oracle and the body appender's encoding/json
# differential tests, with several goroutines on one sampler and on the pool.
# TestSamplerMatchesFlat, TestAppendJob and TestAppendCounts are prefixes of
# the tests' names on purpose.
RACE_REPEATS += ./internal/sv 3 'TestSamplerMatchesFlat|TestSamplerMatchesStateSample|TestSamplerConcurrentDraws|TestSamplerResetReusesItsBuffer'
RACE_REPEATS += ./internal/service 3 'TestAppendJob|TestAppendCounts|TestWriteJobConcurrent'
# dagP's restarts after the first run concurrently over one read-only gate
# graph: the determinism test, and the merge phase against its pair-scan
# oracle.
RACE_REPEATS += ./internal/partition/dagp 3 'TestDagPConcurrentRestartsDeterministic|TestMergeGroupsMatchesScan'

race-repeat:
	@set -- $(RACE_REPEATS); \
	while [ $$# -gt 0 ]; do \
		pkg=$$1 count=$$2 tests=$$3; shift 3; \
		for name in $$(echo "$$tests" | tr '|' ' '); do \
			list=$$($(GO) test -list "$$name" $$pkg) || exit 1; \
			echo "$$list" | grep -q '^Test' || { echo "race-repeat: $$name matches no test in $$pkg" >&2; exit 1; }; \
		done; \
		echo "$(GO) test -race -count=$$count $${tests:+-run '$$tests' }$$pkg"; \
		$(GO) test -race -count=$$count $${tests:+-run "$$tests"} $$pkg || exit 1; \
	done

# Ten seconds of coverage-guided inputs per fuzz target: one <package>
# <target> pair each. A target that matches nothing in its package fails the
# target, since go test would report "no fuzz tests to fuzz" and pass.
#
# Submit bodies through decode and submit-time validation: nothing on the
# wire may panic a daemon.
FUZZ_TARGETS += ./internal/service FuzzParseRequest
# Gate lists over the monomial + rotation alphabet: the fused blocks must act
# exactly as the gates do, and a block fused to a diagonal must hold monomial
# gates only.
FUZZ_TARGETS += ./internal/fuse FuzzFuseEquivalence
# Circuits over the same alphabet under random rule sets of all six channels:
# a trajectory whose tail runs fused segments must take the stepwise replay's
# draws and land on its state.
FUZZ_TARGETS += ./internal/noise FuzzTrajectoryAgrees
# Circuits from |0…0⟩, an entangled prefix that leaves some qubits |0⟩, or a
# dense state: the flagless default, hier under every strategy, Lm, fusion
# setting and worker count, the executor on the prefix's state and dist at
# two ranks all land within 1e-9 of the per-gate flat sweep.
FUZZ_TARGETS += ./internal/core FuzzPathsAgree
# Weight vectors (zero, negative, spread over many exponents) and draws: the
# blocked sampler returns the flat CDF's bisection index at random u and at
# every block sum and one ulp either side, over probabilities and amplitudes.
FUZZ_TARGETS += ./internal/sv FuzzSamplerMatchesFlat
# QASM sources: nothing parses into a panic, a runaway gate expansion or a
# stack the runtime refuses to grow, and whatever parses keeps its
# fingerprint through the writer and back.
FUZZ_TARGETS += ./internal/qasm FuzzParse
# Metric expositions, what /metrics/federate reads off every worker: no body
# panics the parser, and whatever parses reads back to the same families
# after WriteFamilies.
FUZZ_TARGETS += ./internal/obs FuzzParseText

fuzz:
	@set -- $(FUZZ_TARGETS); \
	while [ $$# -gt 0 ]; do \
		pkg=$$1 target=$$2; shift 2; \
		list=$$($(GO) test -list "$$target" $$pkg) || exit 1; \
		echo "$$list" | grep -q '^Fuzz' || { echo "fuzz: $$target matches no fuzz target in $$pkg" >&2; exit 1; }; \
		echo "$(GO) test -run '^$$' -fuzz $$target -fuzztime 10s $$pkg"; \
		$(GO) test -run '^$$' -fuzz $$target -fuzztime 10s $$pkg || exit 1; \
	done

# One iteration of every benchmark.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# gofmt and vet, then two greps. The engine's parallel loops (kernel shares
# and tiles, hierarchical sweeps, trajectories, sweep points, dagP restarts)
# go through par.Each, which recovers a lane's panic and hands it back to the
# job; a goroutine started anywhere else in those packages would take the
# daemon down with its panic. internal/dm and internal/fuse run inside jobs
# too and start no goroutine of their own; the grep keeps it that way. The modelled multi-rank results (simulated MPI
# ranks, the IQS-style baseline, the exact partitioner, the cost models and
# the evaluation harness) live under internal/repro, internal/mpi and
# internal/perfmodel; they are reached only through cmd/benchtables, and the
# daemon and the CLI must not link them.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@found=$$(grep -rnE '^[[:space:]]*go[[:space:]]' --include='*.go' --exclude='*_test.go' internal/sv internal/hier internal/noise internal/core internal/partition internal/dm internal/fuse || true); \
	if [ -n "$$found" ]; then \
		echo "go statement in an engine package; use par.Each:" >&2; echo "$$found" >&2; exit 1; \
	fi
	@found=$$($(GO) list -deps ./cmd/hisvsimd ./cmd/hisvsim | grep -E '^hisvsim/internal/(repro|mpi|perfmodel)(/|$$)' || true); \
	if [ -n "$$found" ]; then \
		echo "the serving path links the modelled reproduction (internal/repro, mpi, perfmodel):" >&2; echo "$$found" >&2; exit 1; \
	fi

# Regenerates BENCH_fusion.json (fused vs. unfused, qft/ising/random at 16-20 qubits).
FUSION_REPS ?= 3
fusion-bench:
	$(GO) run ./cmd/benchtables -only fusion -fusion-reps $(FUSION_REPS) -fusion-out $(BENCH_DIR)/BENCH_fusion.json

# Regenerates BENCH_service.json (cold vs. cache-hit latency, jobs/sec sweep).
service-bench:
	$(GO) run ./cmd/benchtables -only service -service-out $(BENCH_DIR)/BENCH_service.json

# Regenerates BENCH_noise.json (trajectory throughput vs. workers, Pauli
# fast path vs. general Kraus selection, one fused plan reused throughout).
noise-bench:
	$(GO) run ./cmd/benchtables -only noise -noise-out $(BENCH_DIR)/BENCH_noise.json

# Regenerates BENCH_dm.json (exact density matrix vs trajectory ensemble:
# per-width timings and the trajectory count where ensembles start winning).
DM_QUBITS ?= 6,8,10,12
DM_TRAJ ?= 50
dm-bench:
	$(GO) run ./cmd/benchtables -only dm -dm-qubits $(DM_QUBITS) -dm-traj $(DM_TRAJ) -dm-out $(BENCH_DIR)/BENCH_dm.json

# Regenerates BENCH_sweep.json (one compiled template swept across a binding
# grid by the sweep runner vs. per-point bind + fusion + run; speedup, block
# sharing and the exact replayed_blocks / rebuilt_payloads / readout_passes).
SWEEP_QUBITS ?= 12
SWEEP_POINTS ?= 50
sweep-bench:
	$(GO) run ./cmd/benchtables -only sweep -sweep-qubits $(SWEEP_QUBITS) -sweep-points $(SWEEP_POINTS) -sweep-out $(BENCH_DIR)/BENCH_sweep.json

# Regenerates BENCH_cluster.json (coordinator scale-out: ensemble wall time
# and jobs/sec at 1/2/3 in-process workers, cache-hit routing rate under a
# skewed circuit mix). Keep CLUSTER_TRAJ at the baseline's 512 in a gated
# run: it prefixes the metric names, so changing it would empty the
# benchdiff intersection.
CLUSTER_TRAJ ?= 512
CLUSTER_FLEETS ?= 1,2,3
cluster-bench:
	$(GO) run ./cmd/benchtables -only cluster -cluster-traj $(CLUSTER_TRAJ) -cluster-fleets $(CLUSTER_FLEETS) -cluster-out $(BENCH_DIR)/BENCH_cluster.json

# Regenerates BENCH_hier.json (the paper's claim as a wall clock: time to
# solution of hier+dagP against DFS, Nat, the one-part default and the flat
# sweep on qft/ising, same-process ratios plus exact work counts; Lm is 16
# from 20 qubits up and 12 below).
HIER_QUBITS ?= 16,18,20,21
hier-bench:
	$(GO) run ./cmd/benchtables -only hier -hier-qubits $(HIER_QUBITS) -hier-out $(BENCH_DIR)/BENCH_hier.json

# Regenerates every normalized BENCH_*.json artifact. bench-gate runs it
# into a scratch directory and gates the result with benchdiff.
bench-all: fusion-bench service-bench noise-bench dm-bench sweep-bench cluster-bench hier-bench obs-bench

# Compares the artifacts under BENCH_DIR against the committed baselines
# at the repo root; exits nonzero on any out-of-tolerance regression.
benchdiff:
	$(GO) run ./cmd/benchdiff -baseline . -fresh $(BENCH_DIR)

# Regenerates BENCH_obs.txt — the metric-primitive microbenchmarks (counter,
# gauge, histogram, vec lookup — the Observe path must stay allocation-free)
# plus the instrumented-service overhead guard next to its uninstrumented
# twin — and normalizes it into BENCH_obs.json (hisvsim.bench/v1) so
# benchdiff gates it like every other committed artifact. bench-gate
# shortens OBS_BENCHTIME but keeps it time-based, so testing.B still
# calibrates N (fixed-count short runs leave RunParallel's spawn overhead
# unamortized and blow the ns rows' 4x tolerance).
OBS_BENCHTIME ?= 2s
obs-bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(OBS_BENCHTIME) -benchmem ./internal/obs/ | tee $(BENCH_DIR)/BENCH_obs.txt
	$(GO) test -run='^$$' -bench='CacheHitSample|ServiceInstrumented' -benchtime=$(OBS_BENCHTIME) -benchmem ./internal/service/ | tee -a $(BENCH_DIR)/BENCH_obs.txt
	$(GO) run ./cmd/benchtables -only obs -obs-in $(BENCH_DIR)/BENCH_obs.txt -obs-out $(BENCH_DIR)/BENCH_obs.json

# Runs the repository benchmark (BENCHMARK.json, ./benchmark) at unit-test
# scale, all seven workloads: both cold ones traced, the two cached-circuit
# ones, whose checks are every shot accounted for, the observable on the flat
# reference and (hot) a cache hit on every timed job, the two ensemble ones,
# whose checks are the seeded reproduction of every noisy job and the
# bit-identical cluster merge, and the sweep one, which checks 9-point tables
# against the flat reference and that the template compiled exactly once. A
# change to an API the benchmark calls, or a failed check, fails here instead
# of in the acceptance run. The numbers are not gated — the process exits
# nonzero on any failed check.
benchmark-smoke:
	$(GO) run ./benchmark -workload cold-default -toy -seconds 1 -trace 1
	$(GO) run ./benchmark -workload cold-hier -toy -seconds 1 -trace 1
	$(GO) run ./benchmark -workload service-hot -toy -seconds 1
	$(GO) run ./benchmark -workload service-churn -toy -seconds 1
	$(GO) run ./benchmark -workload service-noisy -toy -seconds 1
	$(GO) run ./benchmark -workload cluster-fanout -toy -seconds 1
	$(GO) run ./benchmark -workload service-sweep -toy -seconds 1

# The third run drives the hierarchical executor through the CLI and
# cross-checks it against flat simulation (-verify exits nonzero on a
# mismatch). The next two take the CLI's noisy route, one Evaluate call: a
# trajectory ensemble, then the exact density-matrix engine. Then an ideal
# dm run (Simulate returning ρ) and an -lm 1 run, which admission must refuse
# before any work. Last, the documented -sweep example through the sweep
# runner, ideal and then under noise with an unfused trajectory plan. Last, a
# dagP plan that needs all three restarts must list each with its part count.
# The two runs after the flat one take the default (hier) ideal route, one
# Evaluate call: it must print the observable, and an observable on a qubit
# the circuit lacks must fail admission before any work.
cli-smoke:
	$(GO) run ./cmd/hisvsim -backends
	$(GO) run ./cmd/hisvsim -circuit ising -n 8 -backend flat -observables '-1*ZZ@0,1; 0.5*X@2'
	out=$$($(GO) run ./cmd/hisvsim -circuit ising -n 8 -observables 'ZZ@0,1') || exit 1; echo "$$out"; \
	echo "$$out" | grep -q '^backend: hier$$' && echo "$$out" | grep -q '^observable Z0 Z1 = '
	out=$$($(GO) run ./cmd/hisvsim -circuit ising -n 8 -observables 'Z@99' 2>&1); status=$$?; echo "$$out"; \
	test $$status -ne 0 && echo "$$out" | grep -q 'core: observable 0: sv: pauli qubit 99 out of range'
	$(GO) run ./cmd/hisvsim -circuit qft -n 14 -strategy dagp -lm 10 -verify
	$(GO) run ./cmd/hisvsim -circuit qft -n 14 -strategy dagp -lm 10 -fuse off -verify
	$(GO) run ./cmd/hisvsim -circuit ising -n 8 -depolarizing 0.01 -trajectories 64 -shots 256 -expect-z 0,1
	$(GO) run ./cmd/hisvsim -circuit ising -n 8 -backend dm -depolarizing 0.01 -shots 256 -expect-z 0,1
	$(GO) run ./cmd/hisvsim -circuit ising -n 8 -backend dm -depolarizing 0.01 -fuse off -shots 256 -expect-z 0,1
	$(GO) run ./cmd/hisvsim -circuit qft -n 6 -backend dm -verify
	$(GO) run ./cmd/hisvsim -circuit qft -n 6 -backend dm -fuse off -verify
	out=$$($(GO) run ./cmd/hisvsim -circuit qft -n 6 -lm 1 2>&1); status=$$?; echo "$$out"; \
	test $$status -ne 0 && echo "$$out" | grep -q 'Lm=1 is not a tile width'
	$(GO) run ./cmd/hisvsim -circuit qaoa_ansatz -n 8 -observables 'ZZ@0,1; ZZ@1,2' -sweep 'gamma0=0:1.2:7; beta0=0.1,0.3,0.5'
	$(GO) run ./cmd/hisvsim -circuit qaoa_ansatz -n 8 -observables 'ZZ@0,1; ZZ@1,2' -sweep 'gamma0=0:1.2:7; beta0=0.1,0.3,0.5' -depolarizing 0.01 -trajectories 32 -fuse off
	out=$$($(GO) run ./cmd/hisvsim -circuit qft -n 18 -lm 12 -plan-only) || exit 1; echo "$$out"; \
	for r in 'restart 0 (bisection' 'restart 1 (bisection' 'restart 2 (gate merge)'; do \
		echo "$$out" | grep -qF "$$r" || { echo "cli-smoke: no '$$r' line" >&2; exit 1; }; \
	done; \
	echo "$$out" | grep -q '<- plan$$'

# Boots hisvsimd and exercises submit → poll → sample over HTTP (curl + jq).
serve-smoke:
	sh scripts/serve_smoke.sh

# Boots a coordinator + two worker daemons, splits an ensemble across
# them, kills one worker mid-job and requires completion via sub-job
# retry (curl + jq).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# The bench regression gate at CI scale: every BENCH_*.json (the normalized
# observability microbenchmarks included) regenerated into a scratch
# directory, then gated against the committed baselines. Narrow configs
# (fewer reps, fewer dm widths) compare only the metric intersection they
# measured; per-row tolerances live in the baselines themselves. The scratch
# directory is removed only when the gate passes.
bench-gate:
	dir=$$(mktemp -d) && \
	$(MAKE) bench-all BENCH_DIR=$$dir FUSION_REPS=1 DM_QUBITS=6,8 DM_TRAJ=20 CLUSTER_FLEETS=1,2 HIER_QUBITS=16,18 OBS_BENCHTIME=0.2s && \
	$(MAKE) benchdiff BENCH_DIR=$$dir && \
	test -s $$dir/BENCH_obs.json && \
	rm -rf $$dir

clean:
	$(GO) clean ./...
