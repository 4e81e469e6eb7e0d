#!/usr/bin/env sh
# serve_smoke.sh — boot hisvsimd, exercise submit → poll → sample over HTTP
# (including a multi-readout "run" job and the 400 a removed v1 kind gets),
# verify the plan/state cache actually amortizes, and shut down gracefully.
# Also smokes the hisvsim CLI backend listing. Used by `make serve-smoke`
# and the CI workflow. Needs curl + jq.
set -eu

ADDR="${HISVSIMD_ADDR:-127.0.0.1:8791}"
BASE="http://$ADDR"
# Binaries, the daemon log and response bodies all live in one scratch
# directory, removed on exit whether the run passes or fails (a failure
# prints what it needs first).
WORK="$(mktemp -d)"
BIN="$WORK/hisvsimd"
CLI="$WORK/hisvsim"
LOG="$WORK/hisvsimd.log"
PID=
trap 'if [ -n "$PID" ]; then kill "$PID" 2>/dev/null || true; fi; rm -rf "$WORK"' EXIT

go build -o "$BIN" ./cmd/hisvsimd
go build -o "$CLI" ./cmd/hisvsim

# CLI smoke: the backend registry listing must name all three engines.
BACKENDS="$("$CLI" -backends)"
for want in flat hier dm; do
    if ! printf '%s\n' "$BACKENDS" | grep -q "^$want"; then
        echo "serve-smoke: hisvsim -backends is missing $want:" >&2
        printf '%s\n' "$BACKENDS" >&2
        exit 1
    fi
done

"$BIN" -addr "$ADDR" -workers 2 >"$LOG" 2>&1 &
PID=$!

# Wait for liveness.
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 60 ]; then
        echo "serve-smoke: daemon never became healthy" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.5
done

# Readiness: before any drain, /readyz must be 200 next to /healthz.
RCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")"
if [ "$RCODE" != 200 ]; then
    echo "serve-smoke: /readyz returned $RCODE before drain, want 200" >&2
    exit 1
fi

submit() {
    curl -fsS "$BASE/v1/jobs" -d '{
        "circuit": {"family": "qft", "qubits": 12},
        "kind": "run", "readouts": {"shots": 100, "seed": 7},
        "options": {"strategy": "dagp"}
    }' | jq -r .id
}

# Submit, then plain-poll until the snapshot goes terminal.
ID="$(submit)"
echo "serve-smoke: submitted $ID"
i=0
while :; do
    STATUS="$(curl -fsS "$BASE/v1/jobs/$ID" | jq -r .status)"
    [ "$STATUS" = done ] && break
    if [ "$STATUS" = failed ] || [ "$STATUS" = canceled ]; then
        echo "serve-smoke: job $ID ended $STATUS" >&2
        exit 1
    fi
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "serve-smoke: poll timeout" >&2; exit 1; }
    sleep 0.2
done

# The long-poll result endpoint agrees and the shots add up.
curl -fsS "$BASE/v1/jobs/$ID/result?wait=30s" >"$WORK/result1.json"
TOTAL="$(jq '[.result.counts[]] | add' "$WORK/result1.json")"
if [ "$TOTAL" != 100 ]; then
    echo "serve-smoke: counts sum to $TOTAL, want 100" >&2
    exit 1
fi

# A sampled result holds its shots once, as the sample stream: "counts" is
# derived from "samples" on every read, so it must be their tally and a
# second read must return the same bytes.
counts_are_tally() {
    jq -e '(.result.counts | with_entries(.key |= (explode | reduce .[] as $c (0; 2 * . + $c - 48) | tostring)))
        == (reduce .result.samples[] as $s ({}; .[$s | tostring] += 1))' "$1" >/dev/null
}
curl -fsS "$BASE/v1/jobs/$ID/result" >"$WORK/result2.json"
if ! cmp -s "$WORK/result1.json" "$WORK/result2.json"; then
    echo "serve-smoke: two reads of job $ID differ" >&2
    exit 1
fi
if ! counts_are_tally "$WORK/result1.json"; then
    echo "serve-smoke: job $ID counts are not the tally of its samples" >&2
    exit 1
fi

# A repeat submission must be a cache hit with identical counts.
ID2="$(submit)"
curl -fsS "$BASE/v1/jobs/$ID2/result?wait=30s" >"$WORK/hit.json"
HIT="$(jq .result.cache_hit "$WORK/hit.json")"
if [ "$HIT" != true ]; then
    echo "serve-smoke: repeat submission missed the cache" >&2
    exit 1
fi
if ! counts_are_tally "$WORK/hit.json"; then
    echo "serve-smoke: cache-hit job $ID2 counts are not the tally of its samples" >&2
    exit 1
fi
if [ "$(jq -c .result.counts "$WORK/hit.json")" != "$(jq -c .result.counts "$WORK/result1.json")" ]; then
    echo "serve-smoke: cache-hit job $ID2 drew other counts than job $ID at the same seed" >&2
    exit 1
fi
SIMS="$(curl -fsS "$BASE/v1/stats" | jq .simulations)"
if [ "$SIMS" != 1 ]; then
    echo "serve-smoke: $SIMS simulations for 2 identical jobs, want 1" >&2
    exit 1
fi

# The registry is visible over HTTP too.
NB="$(curl -fsS "$BASE/v1/backends" | jq -r '.[].name' | tr '\n' ' ')"
case "$NB" in
*flat*hier*) ;;
*)
    echo "serve-smoke: /v1/backends returned '$NB'" >&2
    exit 1
    ;;
esac

# A multi-readout "run" job: shots + two Pauli observables + a marginal,
# answered by EXACTLY one additional simulation (the cached qft-12 state
# belongs to a different circuit, so this adds one).
SIMS_BEFORE="$(curl -fsS "$BASE/v1/stats" | jq .simulations)"
RID="$(curl -fsS "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 10},
    "kind": "run",
    "readouts": {
        "shots": 250, "seed": 7,
        "marginals": [[0, 1]],
        "observables": [{"name": "zz01", "coeff": -1, "paulis": "ZZ", "qubits": [0, 1]},
                        {"name": "x2", "paulis": "X", "qubits": [2]}]
    },
    "options": {"strategy": "dagp"}
}' | jq -r .id)"
RRES="$(curl -fsS "$BASE/v1/jobs/$RID/result?wait=30s")"
RTOTAL="$(printf '%s' "$RRES" | jq '[.result.counts[]] | add')"
ROBS="$(printf '%s' "$RRES" | jq '.result.observables | length')"
RMARG="$(printf '%s' "$RRES" | jq '.result.marginals[0] | length')"
RBACKEND="$(printf '%s' "$RRES" | jq -r .result.backend)"
if [ "$RTOTAL" != 250 ] || [ "$ROBS" != 2 ] || [ "$RMARG" != 4 ]; then
    echo "serve-smoke: run job readouts wrong (shots=$RTOTAL obs=$ROBS marg=$RMARG)" >&2
    exit 1
fi
if [ "$RBACKEND" != hier ]; then
    echo "serve-smoke: run job backend '$RBACKEND', want hier" >&2
    exit 1
fi
SIMS_AFTER="$(curl -fsS "$BASE/v1/stats" | jq .simulations)"
if [ "$((SIMS_AFTER - SIMS_BEFORE))" != 1 ]; then
    echo "serve-smoke: multi-readout run cost $((SIMS_AFTER - SIMS_BEFORE)) simulations, want 1" >&2
    exit 1
fi

# A single-readout job over the same circuit reuses the run job's cached
# simulation.
EID="$(curl -fsS "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 10},
    "kind": "run", "readouts": {"observables": [{"paulis": "ZZ", "qubits": [0, 1]}]},
    "options": {"strategy": "dagp"}
}' | jq -r .id)"
EJOB="$(curl -fsS "$BASE/v1/jobs/$EID/result?wait=30s")"
EVAL="$(printf '%s' "$EJOB" | jq '.result.observables[0].value')"
EHIT="$(printf '%s' "$EJOB" | jq .result.cache_hit)"
if [ "$EVAL" = null ] || [ "$EHIT" != true ]; then
    echo "serve-smoke: single-observable run missed the cache (value=$EVAL hit=$EHIT)" >&2
    printf '%s\n' "$EJOB" >&2
    exit 1
fi

# The v1 single-readout kinds are gone: the old body shape is a 400 naming
# the kinds that exist, and /v1/stats no longer carries shim_hits.
V1BODY="$WORK/v1-body.json"
V1CODE="$(curl -s -o "$V1BODY" -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 10},
    "kind": "expectation", "qubits": [0, 1]
}')"
V1KIND="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 10},
    "kind": "expectation", "readouts": {"shots": 10}
}')"
SHIM="$(curl -fsS "$BASE/v1/stats" | jq 'has("shim_hits")')"
if [ "$V1CODE" != 400 ] || [ "$V1KIND" != 400 ] || [ "$SHIM" != false ]; then
    echo "serve-smoke: v1 surface not gone (v1 body=$V1CODE, v1 kind=$V1KIND, shim_hits present=$SHIM):" >&2
    cat "$V1BODY" >&2
    exit 1
fi

# A noisy trajectory-ensemble job: counts add up and the shot total holds.
NID="$(curl -fsS "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 8},
    "kind": "run", "readouts": {"shots": 200, "seed": 7, "trajectories": 20},
    "noise": {"rules": [{"channel": "depolarizing", "p": 0.01}],
              "readout": {"p01": 0.01, "p10": 0.01}}
}' | jq -r .id)"
NTOTAL="$(curl -fsS "$BASE/v1/jobs/$NID/result?wait=30s" | jq '[.result.counts[]] | add')"
if [ "$NTOTAL" != 200 ]; then
    echo "serve-smoke: noisy counts sum to $NTOTAL, want 200" >&2
    exit 1
fi

# The dm backend advertises exact noise support over HTTP.
DMNOISE="$(curl -fsS "$BASE/v1/backends" | jq -r '.[] | select(.name == "dm") | .capabilities.noise')"
if [ "$DMNOISE" != exact ]; then
    echo "serve-smoke: /v1/backends dm noise capability '$DMNOISE', want exact" >&2
    exit 1
fi

# A noisy "run" job on the exact density-matrix backend: ONE simulation,
# ZERO trajectories, exact observables (no stderr on the values).
SIMS_BEFORE="$(curl -fsS "$BASE/v1/stats" | jq .simulations)"
TRAJ_BEFORE="$(curl -fsS "$BASE/v1/stats" | jq .trajectories)"
DID="$(curl -fsS "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 6},
    "kind": "run",
    "readouts": {"shots": 200, "seed": 7,
                 "observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
    "noise": {"rules": [{"channel": "amplitude_damping", "p": 0.02},
                        {"channel": "depolarizing2", "p": 0.01, "gates": ["rzz"]}]},
    "options": {"backend": "dm"}
}' | jq -r .id)"
DRES="$(curl -fsS "$BASE/v1/jobs/$DID/result?wait=30s")"
DSTATUS="$(printf '%s' "$DRES" | jq -r .status)"
DBACKEND="$(printf '%s' "$DRES" | jq -r .result.backend)"
DTRAJ="$(printf '%s' "$DRES" | jq '.result.trajectories // 0')"
DTOTAL="$(printf '%s' "$DRES" | jq '[.result.counts[]] | add')"
if [ "$DSTATUS" != done ] || [ "$DBACKEND" != dm ] || [ "$DTRAJ" != 0 ] || [ "$DTOTAL" != 200 ]; then
    echo "serve-smoke: dm run job wrong (status=$DSTATUS backend=$DBACKEND traj=$DTRAJ shots=$DTOTAL)" >&2
    printf '%s\n' "$DRES" >&2
    exit 1
fi
SIMS_AFTER="$(curl -fsS "$BASE/v1/stats" | jq .simulations)"
TRAJ_AFTER="$(curl -fsS "$BASE/v1/stats" | jq .trajectories)"
if [ "$((SIMS_AFTER - SIMS_BEFORE))" != 1 ] || [ "$((TRAJ_AFTER - TRAJ_BEFORE))" != 0 ]; then
    echo "serve-smoke: dm noisy job cost $((SIMS_AFTER - SIMS_BEFORE)) simulations and $((TRAJ_AFTER - TRAJ_BEFORE)) trajectories, want 1 and 0" >&2
    exit 1
fi

# Requests admission refuses are 400s at submit: a backend the registry
# does not hold (the modelled distributed executor is not served), a dm
# register over the qubit cap, an Lm narrower than a gate, and a sweep whose
# grid has no points.
CCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 8},
    "kind": "run", "readouts": {"shots": 10},
    "options": {"backend": "dist"}
}')"
WCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "cat_state", "qubits": 14},
    "kind": "run", "readouts": {"shots": 10},
    "options": {"backend": "dm"}
}')"
LBODY="$WORK/lm-body.json"
LCODE="$(curl -s -o "$LBODY" -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "qft", "qubits": 6},
    "kind": "run", "readouts": {"shots": 10},
    "options": {"lm": 1}
}')"
EBODY="$WORK/empty-sweep-body.json"
ECODE="$(curl -s -o "$EBODY" -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
    "kind": "sweep",
    "readouts": {"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
    "sweep": {"grid": {}}
}')"
if [ "$CCODE" != 400 ] || [ "$WCODE" != 400 ] || [ "$LCODE" != 400 ] || [ "$ECODE" != 400 ] ||
    ! grep -q 'not a tile width' "$LBODY" || ! grep -q 'at least one binding' "$EBODY"; then
    echo "serve-smoke: unknown backend / dm over cap / lm 1 / empty sweep returned $CCODE/$WCODE/$LCODE/$ECODE, want 400s naming the rule:" >&2
    cat "$LBODY" "$EBODY" >&2
    exit 1
fi

# Out-of-bounds noise probabilities are 400s.
NCODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"family": "ising", "qubits": 8},
    "kind": "run", "readouts": {"shots": 10},
    "noise": {"rules": [{"channel": "depolarizing", "p": 1.5}]}
}')"
if [ "$NCODE" != 400 ]; then
    echo "serve-smoke: bad noise probability returned $NCODE, want 400" >&2
    exit 1
fi

# A parameterized sweep job: a symbolic QASM template swept over a
# 3×2 binding grid must cost EXACTLY one template compile (visible in
# /v1/stats) and return per-point observable readouts.
TC_BEFORE="$(curl -fsS "$BASE/v1/stats" | jq .template_compiles)"
SWID="$(curl -fsS "$BASE/v1/jobs" -d '{
    "circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
    "kind": "sweep",
    "readouts": {"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
    "sweep": {"grid": {"gamma": [0.1, 0.2, 0.3], "beta": [0.4, 0.5]}}
}' | jq -r .id)"
SWRES="$(curl -fsS "$BASE/v1/jobs/$SWID/result?wait=30s")"
SWSTATUS="$(printf '%s' "$SWRES" | jq -r .status)"
SWPTS="$(printf '%s' "$SWRES" | jq '.result.sweep.points | length')"
SWCOMP="$(printf '%s' "$SWRES" | jq '.result.sweep.compiles')"
SWOBS="$(printf '%s' "$SWRES" | jq '[.result.sweep.points[].observables | length] | min')"
if [ "$SWSTATUS" != done ] || [ "$SWPTS" != 6 ] || [ "$SWCOMP" != 1 ] || [ "$SWOBS" != 1 ]; then
    echo "serve-smoke: sweep job wrong (status=$SWSTATUS points=$SWPTS compiles=$SWCOMP min-obs=$SWOBS)" >&2
    printf '%s\n' "$SWRES" >&2
    exit 1
fi
TC_AFTER="$(curl -fsS "$BASE/v1/stats" | jq .template_compiles)"
if [ "$((TC_AFTER - TC_BEFORE))" != 1 ]; then
    echo "serve-smoke: 6-point sweep cost $((TC_AFTER - TC_BEFORE)) template compiles, want 1" >&2
    exit 1
fi

# An optimize job runs over the same cached engine: submitted twice on a
# template no earlier job used, the pair costs exactly one template compile
# and the repeat reports none of its own.
OPT_BODY='{
    "circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nry(theta) q[0];\ncx q[0],q[1];\nrx(phi) q[1];\n"},
    "kind": "optimize",
    "optimize": {"observables": [{"paulis": "ZZ", "qubits": [0, 1]}, {"coeff": 0.5, "paulis": "X", "qubits": [1]}], "max_iters": 5, "seed": 3}
}'
TC_BEFORE="$(curl -fsS "$BASE/v1/stats" | jq .template_compiles)"
for run in first repeat; do
    OPTID="$(curl -fsS "$BASE/v1/jobs" -d "$OPT_BODY" | jq -r .id)"
    OPTRES="$(curl -fsS "$BASE/v1/jobs/$OPTID/result?wait=30s")"
    OPTSTATUS="$(printf '%s' "$OPTRES" | jq -r .status)"
    OPTCOMP="$(printf '%s' "$OPTRES" | jq '.result.optimize.compiles')"
    if [ "$OPTSTATUS" != done ] || { [ "$run" = repeat ] && [ "$OPTCOMP" != 0 ]; }; then
        echo "serve-smoke: $run optimize job wrong (status=$OPTSTATUS compiles=$OPTCOMP)" >&2
        printf '%s\n' "$OPTRES" >&2
        exit 1
    fi
done
TC_AFTER="$(curl -fsS "$BASE/v1/stats" | jq .template_compiles)"
if [ "$((TC_AFTER - TC_BEFORE))" != 1 ]; then
    echo "serve-smoke: two optimize jobs cost $((TC_AFTER - TC_BEFORE)) template compiles, want 1" >&2
    exit 1
fi

# Binding validation is a 400 at submit: running the same template with
# only gamma bound must be rejected naming the unbound symbol.
UBODY="$WORK/unbound-body.json"
UCODE="$(curl -s -o "$UBODY" -w '%{http_code}' "$BASE/v1/jobs" -d '{
    "circuit": {"qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(gamma) q[0];\nrx(beta) q[1];\n"},
    "kind": "run",
    "readouts": {"observables": [{"name": "zz01", "paulis": "ZZ", "qubits": [0, 1]}]},
    "params": {"gamma": 0.1}
}')"
if [ "$UCODE" != 400 ] || ! grep -q beta "$UBODY"; then
    echo "serve-smoke: unbound-symbol run returned $UCODE (want 400 naming beta):" >&2
    cat "$UBODY" >&2
    exit 1
fi

# The Prometheus exposition reflects everything this script just did:
# submits by kind, state-cache hits, stage-latency observations, and the
# queue/worker/HTTP series.
METRICS="$WORK/metrics.txt"
curl -fsS "$BASE/metrics" >"$METRICS"
msum() {
    # Sum the values of every sample whose name (incl. labels) matches $1.
    grep "^$1" "$METRICS" | awk '{s += $NF} END {printf "%d\n", s}'
}
SUBMITTED_RUN="$(msum 'hisvsim_jobs_submitted_total{kind="run"}')"
STATE_HITS="$(msum 'hisvsim_cache_hits_total{cache="state"}')"
STAGE_OBS="$(msum 'hisvsim_stage_duration_seconds_count')"
if [ "$SUBMITTED_RUN" -lt 2 ] || [ "$STATE_HITS" -lt 1 ] || [ "$STAGE_OBS" -lt 1 ]; then
    echo "serve-smoke: /metrics counters wrong (run submits=$SUBMITTED_RUN state hits=$STATE_HITS stage obs=$STAGE_OBS)" >&2
    grep ^hisvsim_ "$METRICS" >&2
    exit 1
fi
for series in hisvsim_queue_depth hisvsim_workers hisvsim_workers_busy \
    hisvsim_cache_resident_bytes hisvsim_http_requests_total hisvsim_http_in_flight; do
    if ! grep -q "^$series" "$METRICS"; then
        echo "serve-smoke: /metrics is missing the $series series" >&2
        exit 1
    fi
done

# The per-job stage trace: non-empty, starts in queue_wait, and the stage
# durations tile the job's wall time (within 5%).
TRACE="$(curl -fsS "$BASE/v1/jobs/$ID/trace")"
TOK="$(printf '%s' "$TRACE" | jq '
    .wall_ms as $wall
    | (.stages | length > 0)
      and .stages[0].stage == "queue_wait"
      and ((([.stages[].duration_ms] | add) - $wall
            | if . < 0 then -. else . end) <= $wall * 0.05 + 0.05)')"
if [ "$TOK" != true ]; then
    echo "serve-smoke: stage trace failed validation:" >&2
    printf '%s\n' "$TRACE" >&2
    exit 1
fi

# The kernel-level execution profile: kernel rows present for the simulated
# job, consistent with the engine window (kernel time fits inside it; the
# strict 5%-tiling criterion is pinned by TestKernelProfileTilesSimulate on
# a large job — this millisecond-scale smoke circuit is dominated by fixed
# setup costs, which is exactly what unattributed_ms is for).
PROFILE="$(curl -fsS "$BASE/v1/jobs/$ID/profile")"
POK="$(printf '%s' "$PROFILE" | jq '
    (.kernels | length > 0)
    and (.window_ms > 0)
    and (.kernel_ms > 0)
    and (.kernel_ms <= .window_ms * 1.05 + 0.5)
    and ((.window_ms - .kernel_ms - .unattributed_ms | if . < 0 then -. else . end) < 0.001)')"
if [ "$POK" != true ]; then
    echo "serve-smoke: kernel profile failed validation:" >&2
    printf '%s\n' "$PROFILE" >&2
    exit 1
fi

# The aggregate kernel series made it into the exposition.
KMETRICS="$(curl -fsS "$BASE/metrics")"
for series in hisvsim_kernel_seconds_total hisvsim_kernel_bytes_total hisvsim_build_info \
    hisvsim_go_heap_alloc_bytes hisvsim_go_goroutines; do
    if ! printf '%s\n' "$KMETRICS" | grep -q "^$series"; then
        echo "serve-smoke: /metrics is missing the $series series" >&2
        exit 1
    fi
done

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
if ! wait "$PID"; then
    echo "serve-smoke: daemon exited non-zero on SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
PID=
echo "serve-smoke: OK (backends listing, readyz, submit, poll, sample, counts = tally of samples on re-read and hit, cache hit, multi-readout run, v1 kinds 400, noisy ensemble, exact dm run, unknown-backend, capability, lm and empty-sweep 400s, parameterized sweep, cached optimize pair, unbound-symbol 400, /metrics scrape, stage trace, kernel profile, graceful shutdown)"
