#!/usr/bin/env sh
# cluster_smoke.sh — boot a coordinator + two hisvsimd workers, verify
# fingerprint routing and deterministic ensemble fan-out over real HTTP,
# cancel a split ensemble and require every sub-job canceled on its worker,
# then kill -9 one worker mid-ensemble and require the job to complete
# anyway via sub-job retry on the survivor. Used by `make cluster-smoke`
# and the CI workflow. Needs curl + jq.
set -eu

W1_ADDR="${HISVSIM_W1_ADDR:-127.0.0.1:8795}"
W2_ADDR="${HISVSIM_W2_ADDR:-127.0.0.1:8796}"
CO_ADDR="${HISVSIM_CO_ADDR:-127.0.0.1:8797}"
BASE="http://$CO_ADDR"
# The binary and the three daemon logs live in one scratch directory,
# removed on exit whether the run passes or fails (a failure prints the logs
# it needs first).
WORK="$(mktemp -d)"
BIN="$WORK/hisvsimd"
LOG1="$WORK/worker1.log"
LOG2="$WORK/worker2.log"
LOGC="$WORK/coordinator.log"
W1_PID= W2_PID= CO_PID=
trap 'for p in $W1_PID $W2_PID $CO_PID; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

go build -o "$BIN" ./cmd/hisvsimd

"$BIN" -addr "$W1_ADDR" -workers 2 >"$LOG1" 2>&1 &
W1_PID=$!
"$BIN" -addr "$W2_ADDR" -workers 2 >"$LOG2" 2>&1 &
W2_PID=$!

wait_healthy() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 60 ]; then
            echo "cluster-smoke: $2 never became healthy" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.5
    done
}
wait_healthy "$W1_ADDR" worker1 "$LOG1"
wait_healthy "$W2_ADDR" worker2 "$LOG2"

"$BIN" -coordinator -addr "$CO_ADDR" \
    -workers "http://$W1_ADDR,http://$W2_ADDR" \
    -split-trajectories 64 -health-every 500ms >"$LOGC" 2>&1 &
CO_PID=$!
wait_healthy "$CO_ADDR" coordinator "$LOGC"

# Both workers joined the ring ready.
READY="$(curl -fsS "$BASE/v1/cluster" | jq '[.workers[] | select(.state == "ready")] | length')"
if [ "$READY" != 2 ]; then
    echo "cluster-smoke: $READY ready workers, want 2" >&2
    curl -fsS "$BASE/v1/cluster" >&2
    exit 1
fi

# Happy path: a 512-trajectory noisy ensemble splits across the fleet and
# the merged counts still sum to the shot budget.
SPLIT_BODY='{
    "circuit": {"family": "ising", "qubits": 10},
    "kind": "run",
    "noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
    "readouts": {"shots": 1000, "seed": 7, "trajectories": 512,
                 "observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]}
}'
ID="$(curl -fsS "$BASE/v1/jobs" -d "$SPLIT_BODY" | jq -r .id)"
RES="$(curl -fsS "$BASE/v1/jobs/$ID/result?wait=60s")"
STATUS="$(printf '%s' "$RES" | jq -r .status)"
TOTAL="$(printf '%s' "$RES" | jq '[.result.counts[]] | add')"
TRAJ="$(printf '%s' "$RES" | jq .result.trajectories)"
if [ "$STATUS" != done ] || [ "$TOTAL" != 1000 ] || [ "$TRAJ" != 512 ]; then
    echo "cluster-smoke: split ensemble wrong (status=$STATUS shots=$TOTAL traj=$TRAJ)" >&2
    printf '%s\n' "$RES" >&2
    exit 1
fi
SUBS="$(curl -fsS "$BASE/v1/jobs/$ID/trace" | jq '.subjobs | length')"
MODE="$(curl -fsS "$BASE/v1/jobs/$ID/trace" | jq -r .mode)"
if [ "$MODE" != split_ensemble ] || [ "$SUBS" -lt 2 ]; then
    echo "cluster-smoke: expected a fanned-out ensemble, got mode=$MODE subjobs=$SUBS" >&2
    exit 1
fi
echo "cluster-smoke: split ensemble OK ($SUBS sub-jobs)"

# The stitched trace is one tree: job → plan/fanout/merge → sub-jobs →
# attempts → nested worker stages. A real fan-out must reach depth ≥ 3
# (it reaches 5 when every worker trace stitched; ≥ 3 tolerates a lost
# best-effort fetch).
DEPTH="$(curl -fsS "$BASE/v1/jobs/$ID/trace" |
    jq 'def depth: 1 + ([.children[]? | depth] | max // 0); .tree | depth')"
if [ "$DEPTH" -lt 3 ]; then
    echo "cluster-smoke: stitched trace depth $DEPTH, want ≥ 3" >&2
    curl -fsS "$BASE/v1/jobs/$ID/trace" >&2
    exit 1
fi
echo "cluster-smoke: stitched trace OK (depth $DEPTH)"

# Routing affinity: a repeat of the same small circuit must be answered
# from a warm worker cache — sticky fingerprint routing.
ROUTED_BODY='{
    "circuit": {"family": "qft", "qubits": 12},
    "kind": "run",
    "readouts": {"shots": 100, "seed": 7}
}'
RID1="$(curl -fsS "$BASE/v1/jobs" -d "$ROUTED_BODY" | jq -r .id)"
curl -fsS "$BASE/v1/jobs/$RID1/result?wait=60s" >/dev/null
RID2="$(curl -fsS "$BASE/v1/jobs" -d "$ROUTED_BODY" | jq -r .id)"
HIT="$(curl -fsS "$BASE/v1/jobs/$RID2/result?wait=60s" | jq .result.cache_hit)"
if [ "$HIT" != true ]; then
    echo "cluster-smoke: repeat submission missed the cache — routing is not sticky" >&2
    exit 1
fi
echo "cluster-smoke: routing affinity OK"

# Metrics federation: one coordinator scrape re-exposes every worker's
# series stamped with a worker label (the warm cache above guarantees a
# live hisvsim_cache_hits_total series) plus the cluster rollups.
FED="$(curl -fsS "$BASE/metrics/federate")"
if ! printf '%s\n' "$FED" | grep -q 'hisvsim_cache_hits_total{.*worker="http://'; then
    echo "cluster-smoke: federation exposes no worker-labeled cache-hit series" >&2
    printf '%s\n' "$FED" | grep hisvsim_cache >&2 || true
    exit 1
fi
for W in "$W1_ADDR" "$W2_ADDR"; do
    if ! printf '%s\n' "$FED" | grep -q "hisvsim_cluster_worker_up{worker=\"http://$W\"} 1"; then
        echo "cluster-smoke: federation says worker $W is not up" >&2
        printf '%s\n' "$FED" | grep hisvsim_cluster_worker >&2 || true
        exit 1
    fi
done
if ! printf '%s\n' "$FED" | grep -q '^hisvsim_cluster_cache_hit_rate'; then
    echo "cluster-smoke: federation is missing the cache-hit-rate rollup" >&2
    exit 1
fi
echo "cluster-smoke: metrics federation OK"

# The coordinator serves the whole job API, the backend listing included.
BCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/backends")"
if [ "$BCODE" != 200 ]; then
    echo "cluster-smoke: coordinator /v1/backends returned $BCODE, want 200" >&2
    exit 1
fi

# Cancel: a split ensemble that runs for seconds, DELETEd on the coordinator
# once every sub-job is placed, reads canceled — and so does every sub-job it
# dispatched, on the worker running it.
CANCEL_BODY='{
    "circuit": {"family": "ising", "qubits": 16},
    "kind": "run",
    "noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
    "readouts": {"shots": 100, "seed": 11, "trajectories": 2048,
                 "observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]}
}'
CID="$(curl -fsS "$BASE/v1/jobs" -d "$CANCEL_BODY" | jq -r .id)"
placed() {
    curl -fsS "$BASE/v1/cluster" | jq -r --arg id "$CID" \
        '.recent_jobs[] | select(.id == $id) | .subjobs[]? | select((.remote_id // "") != "") | "\(.worker)/v1/jobs/\(.remote_id)"'
}
i=0
until [ "$(placed | wc -l)" -ge 2 ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "cluster-smoke: job $CID never placed its sub-jobs" >&2
        curl -fsS "$BASE/v1/cluster" >&2
        exit 1
    fi
    sleep 0.05
done
DCODE="$(curl -s -o /dev/null -w '%{http_code}' -X DELETE "$BASE/v1/jobs/$CID")"
CSTATUS="$(curl -fsS "$BASE/v1/jobs/$CID/result?wait=30s" | jq -r .status)"
if [ "$DCODE" != 200 ] || [ "$CSTATUS" != canceled ]; then
    echo "cluster-smoke: DELETE returned $DCODE and the job reads $CSTATUS, want 200 and canceled" >&2
    exit 1
fi
for SUB in $(placed); do
    i=0
    until [ "$(curl -fsS "$SUB" | jq -r .status)" = canceled ]; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "cluster-smoke: sub-job $SUB still $(curl -fsS "$SUB" | jq -r .status) 5 s after the cancel" >&2
            exit 1
        fi
        sleep 0.1
    done
done
echo "cluster-smoke: cancel OK (every sub-job canceled on its worker)"

# Fault injection: submit a long ensemble, kill -9 one worker while its
# sub-job is in flight, and require the coordinator to finish the job by
# retrying the lost range on the survivor. The register is wide enough that
# a sub-job outlasts the 0.5 s before the kill by seconds, not by luck (at
# 12 qubits the event-first runner finishes 1024 trajectories in ≈ 0.2 s).
FAULT_BODY='{
    "circuit": {"family": "ising", "qubits": 16},
    "kind": "run",
    "noise": {"rules": [{"channel": "depolarizing", "p": 0.01}]},
    "readouts": {"shots": 1000, "seed": 9, "trajectories": 2048,
                 "observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]}
}'
FID="$(curl -fsS "$BASE/v1/jobs" -d "$FAULT_BODY" | jq -r .id)"
sleep 0.5
kill -9 "$W2_PID" 2>/dev/null || true
W2_PID=
echo "cluster-smoke: killed worker2 mid-ensemble"

FRES="$(curl -fsS --max-time 300 "$BASE/v1/jobs/$FID/result?wait=240s")"
FSTATUS="$(printf '%s' "$FRES" | jq -r .status)"
FTOTAL="$(printf '%s' "$FRES" | jq '[.result.counts[]] | add')"
FTRAJ="$(printf '%s' "$FRES" | jq .result.trajectories)"
if [ "$FSTATUS" != done ] || [ "$FTOTAL" != 1000 ] || [ "$FTRAJ" != 2048 ]; then
    echo "cluster-smoke: job did not survive the worker kill (status=$FSTATUS shots=$FTOTAL traj=$FTRAJ)" >&2
    printf '%s\n' "$FRES" >&2
    cat "$LOGC" >&2
    exit 1
fi

# The recovery is visible: retries counted, the dead worker left the ring.
METRICS="$(curl -fsS "$BASE/metrics")"
RETRIES="$(printf '%s\n' "$METRICS" | awk '/^hisvsim_cluster_retries_total/ {print $NF}')"
if [ "${RETRIES:-0}" -lt 1 ]; then
    echo "cluster-smoke: job survived but hisvsim_cluster_retries_total=$RETRIES, want ≥ 1" >&2
    printf '%s\n' "$METRICS" | grep ^hisvsim_cluster >&2
    exit 1
fi
i=0
until [ "$(curl -fsS "$BASE/v1/cluster" | jq '[.workers[] | select(.state == "ready")] | length')" = 1 ]; do
    i=$((i + 1))
    if [ "$i" -gt 20 ]; then
        echo "cluster-smoke: dead worker never left the ring" >&2
        curl -fsS "$BASE/v1/cluster" >&2
        exit 1
    fi
    sleep 0.5
done
RETRY_SPANS="$(curl -fsS "$BASE/v1/jobs/$FID/trace" | jq '[.subjobs[].attempts[]? | select(.outcome == "retry")] | length')"
if [ "$RETRY_SPANS" -lt 1 ]; then
    echo "cluster-smoke: trace shows no retry attempt spans" >&2
    curl -fsS "$BASE/v1/jobs/$FID/trace" >&2
    exit 1
fi
echo "cluster-smoke: fault recovery OK ($RETRIES retries)"

# Graceful shutdown: SIGTERM must drain the coordinator and exit 0.
kill -TERM "$CO_PID"
if ! wait "$CO_PID"; then
    echo "cluster-smoke: coordinator exited non-zero on SIGTERM" >&2
    cat "$LOGC" >&2
    exit 1
fi
kill -TERM "$W1_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
W1_PID= CO_PID=
echo "cluster-smoke: OK (2-worker ring, split ensemble, stitched trace, sticky routing, metrics federation, backends listing, cancel reaching every sub-job, mid-ensemble worker kill survived via retry, dead worker evicted, graceful drain)"
