# Local workflows and CI invoke these identical targets (.github/workflows/ci.yml).
GO ?= go

.PHONY: all build test bench lint fusion-bench service-bench noise-bench dm-bench sweep-bench cluster-bench hier-bench obs-bench bench-all benchdiff benchmark-smoke serve-smoke cluster-smoke clean

# Where the *-bench targets write their BENCH_*.json artifacts. The
# committed baselines live at the repo root; point BENCH_DIR at a scratch
# directory to produce a fresh run for benchdiff without touching them.
BENCH_DIR ?= .

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One iteration of every benchmark — the CI smoke run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	@found=$$(grep -rnE '^[[:space:]]*go[[:space:]]' --include='*.go' --exclude='*_test.go' internal/sv internal/hier internal/noise internal/core internal/partition || true); \
	if [ -n "$$found" ]; then \
		echo "go statement in an engine package; use par.Each:" >&2; echo "$$found" >&2; exit 1; \
	fi
	@found=$$($(GO) list -deps ./cmd/hisvsimd ./cmd/hisvsim | grep -E '^hisvsim/internal/(repro|mpi|perfmodel)(/|$$)' || true); \
	if [ -n "$$found" ]; then \
		echo "the serving path links the modelled reproduction (internal/repro, mpi, perfmodel):" >&2; echo "$$found" >&2; exit 1; \
	fi

# Regenerates BENCH_fusion.json (fused vs. unfused, qft/ising/random at 16-20 qubits).
# CI smokes it narrow: make fusion-bench FUSION_REPS=1.
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
# CI smokes it narrow: make dm-bench DM_QUBITS=6,8 DM_TRAJ=20.
DM_QUBITS ?= 6,8,10,12
DM_TRAJ ?= 50
dm-bench:
	$(GO) run ./cmd/benchtables -only dm -dm-qubits $(DM_QUBITS) -dm-traj $(DM_TRAJ) -dm-out $(BENCH_DIR)/BENCH_dm.json

# Regenerates BENCH_sweep.json (one compiled template swept across a binding
# grid by the sweep runner vs. per-point bind + fusion + run; speedup, block
# sharing and the exact replayed_blocks / rebuilt_payloads / readout_passes).
# CI smokes it narrow: make sweep-bench SWEEP_QUBITS=10 SWEEP_POINTS=20.
SWEEP_QUBITS ?= 12
SWEEP_POINTS ?= 50
sweep-bench:
	$(GO) run ./cmd/benchtables -only sweep -sweep-qubits $(SWEEP_QUBITS) -sweep-points $(SWEEP_POINTS) -sweep-out $(BENCH_DIR)/BENCH_sweep.json

# Regenerates BENCH_cluster.json (coordinator scale-out: ensemble wall time
# and jobs/sec at 1/2/3 in-process workers, cache-hit routing rate under a
# skewed circuit mix). CI smokes it narrow (keep CLUSTER_TRAJ at the
# baseline's 512 — it prefixes the metric names, so changing it would
# empty the benchdiff intersection): make cluster-bench CLUSTER_FLEETS=1,2.
CLUSTER_TRAJ ?= 512
CLUSTER_FLEETS ?= 1,2,3
cluster-bench:
	$(GO) run ./cmd/benchtables -only cluster -cluster-traj $(CLUSTER_TRAJ) -cluster-fleets $(CLUSTER_FLEETS) -cluster-out $(BENCH_DIR)/BENCH_cluster.json

# Regenerates BENCH_hier.json (the paper's claim as a wall clock: time to
# solution of hier+dagP against DFS, Nat, the one-part default and the flat
# sweep on qft/ising, same-process ratios plus exact work counts; Lm is 16
# from 20 qubits up and 12 below). CI smokes the small sizes:
# make hier-bench HIER_QUBITS=16,18.
HIER_QUBITS ?= 16,18,20,21
hier-bench:
	$(GO) run ./cmd/benchtables -only hier -hier-qubits $(HIER_QUBITS) -hier-out $(BENCH_DIR)/BENCH_hier.json

# Regenerates every normalized BENCH_*.json artifact. Point BENCH_DIR at a
# scratch directory and gate with benchdiff:
#
#	make bench-all BENCH_DIR=/tmp/bench FUSION_REPS=1
#	make benchdiff BENCH_DIR=/tmp/bench
bench-all: fusion-bench service-bench noise-bench dm-bench sweep-bench cluster-bench hier-bench obs-bench

# Compares the artifacts under BENCH_DIR against the committed baselines
# at the repo root; exits nonzero on any out-of-tolerance regression.
benchdiff:
	$(GO) run ./cmd/benchdiff -baseline . -fresh $(BENCH_DIR)

# Regenerates BENCH_obs.txt — the metric-primitive microbenchmarks (counter,
# gauge, histogram, vec lookup — the Observe path must stay allocation-free)
# plus the instrumented-service overhead guard next to its uninstrumented
# twin — and normalizes it into BENCH_obs.json (hisvsim.bench/v1) so
# benchdiff gates it like every other committed artifact. CI smokes it
# with OBS_BENCHTIME=0.2s — time-based so testing.B still calibrates N
# (fixed-count short runs leave RunParallel's spawn overhead unamortized
# and blow the ns rows' 4x tolerance).
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

# Boots hisvsimd and exercises submit → poll → sample over HTTP (curl + jq).
serve-smoke:
	sh scripts/serve_smoke.sh

# Boots a coordinator + two worker daemons, splits an ensemble across
# them, kills one worker mid-job and requires completion via sub-job
# retry (curl + jq).
cluster-smoke:
	sh scripts/cluster_smoke.sh

clean:
	$(GO) clean ./...
