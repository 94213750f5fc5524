#!/usr/bin/env bash
# The full local CI gate: everything must pass before a merge.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release (with --timings report)"
cargo build --release --workspace --timings
# Retain the compile-time report next to the run's other artifacts so a
# build-speed regression is as visible as a runtime one.
mkdir -p target/ci-artifacts
cp target/cargo-timings/cargo-timing.html target/ci-artifacts/cargo-timing.html

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test -q --features trace (event-trace hooks)"
cargo test -q -p mlpwin-ooo --features trace

echo "==> simbench build guard (benchmark tests + a short checked ilp run)"
# The repository benchmark is a package of its own that compiles against
# the sim crate's public API (journal codec, json, runner). Build and
# test it, then run it briefly: every simulated result must match the
# single-stepped reference, or the result line says "correct": false.
cargo test --release --manifest-path simbench/Cargo.toml
bench_line=$(bash simbench/run.sh --workload ilp --seed 1 --seconds 5 --trace 0 | tail -n 1)
echo "    $bench_line"
if ! grep -q '"correct": true' <<< "$bench_line"; then
    echo "FAIL: simbench result line is not correct"
    exit 1
fi

echo "==> mlpwin-bench --smoke (BENCH.json schema gate)"
cargo run --release -q -p mlpwin-bench --bin mlpwin-bench -- --smoke --out results/BENCH_smoke.json

echo "==> mlpwin-bench full suite (host-perf regression gate, >15% fails)"
# Gate against the committed baseline; write the fresh report to target/
# so CI never dirties results/BENCH.json. Right after the build/test
# phase a small runner is still shedding load and measures far below the
# baseline machine, so take the best of five attempts with a settle
# pause in between: a genuine regression fails every one of them.
bench_gate() {
    cargo run --release -q -p mlpwin-bench --bin mlpwin-bench -- \
        --out target/ci-artifacts/BENCH_ci.json --baseline results/BENCH.json \
        --split 4
}
for attempt in 1 2 3 4 5; do
    if bench_gate; then
        break
    fi
    if [ "$attempt" -eq 5 ]; then
        echo "FAIL: host-perf regression gate failed on all 5 attempts"
        exit 1
    fi
    echo "    attempt $attempt over threshold; settling, then retrying"
    sleep 15
done

echo "==> crash-recovery smoke (kill a worker mid-run, resume, diff journals)"
# Start a worker that aborts itself at its first snapshot past cycle
# 1500, re-run the identical command to resume from the snapshot, run an
# uninterrupted control, and demand byte-identical journals.
rm -rf target/ci-artifacts/recovery
mkdir -p target/ci-artifacts/recovery/{crashed,clean}
worker="target/release/mlpwin-sim"
run_worker() { # <dir> [extra args...]
    d="$1"; shift
    "$worker" --profile mcf --model dynamic --warmup 2000 --insts 4000 \
        --snapshot-dir "target/ci-artifacts/recovery/$d/snaps" --snapshot-cycles 400 \
        --journal "target/ci-artifacts/recovery/$d/journal.jsonl" "$@"
}
if run_worker crashed --chaos-kill-at 1500; then
    echo "FAIL: the chaos-killed worker exited cleanly"; exit 1
fi
run_worker crashed --chaos-kill-at 1500   # same command: resumes, completes
run_worker clean                          # uninterrupted control
diff target/ci-artifacts/recovery/crashed/journal.jsonl \
     target/ci-artifacts/recovery/clean/journal.jsonl
echo "    resumed journal is bit-identical to the clean run"

echo "==> split-equivalence smoke (4-interval split of a memory-bound run vs serial)"
# Exact-mode interval-parallel run of one memory-bound profile: the
# stitched journal must be byte-identical to the serial worker's.
rm -rf target/ci-artifacts/split
mkdir -p target/ci-artifacts/split
splitter="target/release/mlpwin-split"
"$worker" --profile mcf --model dynamic --warmup 2000 --insts 6000 \
    --snapshot-dir target/ci-artifacts/split/snaps --snapshot-cycles 1000000000 \
    --journal target/ci-artifacts/split/serial.jsonl
# mcf at this budget runs ~174k measured cycles: 44000-cycle intervals
# make a 4-interval split (three full intervals plus the tail).
"$splitter" --profile mcf --model dynamic --warmup 2000 --insts 6000 \
    --interval-cycles 44000 --workers 4 \
    --dir target/ci-artifacts/split/store \
    --journal target/ci-artifacts/split/split.jsonl \
    | tee target/ci-artifacts/split/split.out
grep -q 'intervals=4 ' target/ci-artifacts/split/split.out
diff target/ci-artifacts/split/serial.jsonl target/ci-artifacts/split/split.jsonl
echo "    4-interval stitched journal is bit-identical to the serial run"

echo "==> event-driven equivalence (journal byte-diff vs stepped, both fast-forward settings)"
# The event engine is a host-performance knob: the same spec run under
# MLPWIN_EVENT_DRIVEN must journal byte-identically to the stepped loop
# on a serial pointer chase (mcf) and a software-MLP batch kernel
# (chase-batch), with the stall fast-forward both enabled and disabled.
rm -rf target/ci-artifacts/eventdrive
mkdir -p target/ci-artifacts/eventdrive
for prof in mcf chase-batch; do
    for noff in ff noff; do
        pre=(env -u MLPWIN_NO_FAST_FORWARD -u MLPWIN_EVENT_DRIVEN)
        [ "$noff" = noff ] && pre+=(MLPWIN_NO_FAST_FORWARD=1)
        "${pre[@]}" "$worker" --profile "$prof" --model dynamic \
            --warmup 2000 --insts 4000 \
            --journal "target/ci-artifacts/eventdrive/$prof-$noff-stepped.jsonl"
        "${pre[@]}" env MLPWIN_EVENT_DRIVEN=1 "$worker" --profile "$prof" --model dynamic \
            --warmup 2000 --insts 4000 \
            --journal "target/ci-artifacts/eventdrive/$prof-$noff-event.jsonl"
        diff "target/ci-artifacts/eventdrive/$prof-$noff-stepped.jsonl" \
             "target/ci-artifacts/eventdrive/$prof-$noff-event.jsonl"
    done
done
echo "    event-driven journals are bit-identical to stepped on both profiles"

echo "==> campaign smoke (worker kills + live observability scrape + cached rerun)"
# A three-spec campaign whose workers all chaos-abort once mid-run: the
# control plane must charge the deaths, resume from snapshots, and
# complete — while serving its observability plane. The controller runs
# in the background with --listen on an ephemeral port; once it
# publishes obs.addr, `mlpwin-serve --probe` (a self-contained client,
# no curl needed) fetches every endpoint mid-campaign and validates the
# Prometheus exposition and JSON payloads. Afterwards: the Chrome trace
# and flight-recorder dumps must exist, an identical campaign run with
# the listener off must finalize a bit-identical journal (the
# zero-cost contract), and a cached rerun must simulate nothing.
rm -rf target/ci-artifacts/campaign
mkdir -p target/ci-artifacts/campaign
controller="target/release/mlpwin-serve"
jobs=(--job gcc,base,2000,4000,1 --job mcf,dynamic,2000,4000,1 --job milc,base,2000,4000,1)
"$controller" --campaign target/ci-artifacts/campaign/first "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 --chaos-kill-at 1200 \
    --listen 127.0.0.1:0 --trace-out target/ci-artifacts/campaign/trace.json \
    --worker-exe "$worker" \
    > target/ci-artifacts/campaign/first.out \
    2> target/ci-artifacts/campaign/first.err &
ctl_pid=$!
for _ in $(seq 1 400); do
    [ -s target/ci-artifacts/campaign/first/obs.addr ] && break
    if ! kill -0 "$ctl_pid" 2>/dev/null; then
        echo "FAIL: controller exited before publishing obs.addr"
        cat target/ci-artifacts/campaign/first.err
        exit 1
    fi
    sleep 0.05
done
obs_addr=$(cat target/ci-artifacts/campaign/first/obs.addr)
probe_ok=0
for _ in $(seq 1 20); do
    if "$controller" --probe "$obs_addr" | tee -a target/ci-artifacts/campaign/probe.out; then
        probe_ok=1
        break
    fi
    kill -0 "$ctl_pid" 2>/dev/null || break
    sleep 0.1
done
if [ "$probe_ok" != 1 ]; then
    echo "FAIL: observability probe never validated a live campaign"
    exit 1
fi
wait "$ctl_pid"
grep -q 'done=3' target/ci-artifacts/campaign/first.out
grep -q '"ph":"X"' target/ci-artifacts/campaign/trace.json
ls target/ci-artifacts/campaign/first/flightrec/*.json > /dev/null
echo "    live probe passed; trace and flight records written"
"$controller" --campaign target/ci-artifacts/campaign/silent "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 --chaos-kill-at 1200 \
    --worker-exe "$worker" > target/ci-artifacts/campaign/silent.out
diff target/ci-artifacts/campaign/first/journal.jsonl \
     target/ci-artifacts/campaign/silent/journal.jsonl
echo "    journal is bit-identical with the listener on and off"
"$controller" --campaign target/ci-artifacts/campaign/rerun "${jobs[@]}" \
    --workers 2 --cache target/ci-artifacts/campaign/first/journal.jsonl \
    --worker-exe "$worker" | tee target/ci-artifacts/campaign/rerun.out
grep -q 'simulated=0' target/ci-artifacts/campaign/rerun.out
diff target/ci-artifacts/campaign/first/journal.jsonl \
     target/ci-artifacts/campaign/rerun/journal.jsonl
echo "    campaign survived worker kills; cached rerun simulated nothing"

echo "==> fleet netchaos (faulted TCP workers + SIGKILL vs serial reference)"
# The same three specs, sharded over loopback TCP across two
# mlpwin-worker processes whose send paths run seeded
# drop/duplicate/delay/partition schedules, with one worker SIGKILLed
# the moment the WAL shows it owning a job. The finalized journal must
# still byte-match a serial reference, and a fleet listener nobody
# connects to must degrade to the local threads and complete.
rm -rf target/ci-artifacts/fleet
mkdir -p target/ci-artifacts/fleet
fleetworker="target/release/mlpwin-worker"
for j in gcc,base mcf,dynamic milc,base; do
    "$worker" --profile "${j%%,*}" --model "${j##*,}" \
        --warmup 2000 --insts 4000 --seed 1 \
        --journal target/ci-artifacts/fleet/reference.jsonl > /dev/null
done
"$controller" --campaign target/ci-artifacts/fleet/run "${jobs[@]}" \
    --workers 1 --backoff-ms 30 --snapshot-cycles 400 --lease-ms 2000 \
    --fleet-listen 127.0.0.1:0 --worker-exe "$worker" \
    > target/ci-artifacts/fleet/run.out \
    2> target/ci-artifacts/fleet/run.err &
fleet_ctl=$!
for _ in $(seq 1 400); do
    [ -s target/ci-artifacts/fleet/run/fleet.addr ] && break
    if ! kill -0 "$fleet_ctl" 2>/dev/null; then
        echo "FAIL: controller exited before publishing fleet.addr"
        cat target/ci-artifacts/fleet/run.err
        exit 1
    fi
    sleep 0.05
done
fleet_addr=$(cat target/ci-artifacts/fleet/run/fleet.addr)
"$fleetworker" --connect "$fleet_addr" --name beta \
    --snapshot-dir target/ci-artifacts/fleet/snap-beta --snapshot-cycles 400 \
    --backoff-ms 50 --netfault seed=9,drop=25,dup=15,delay=1,partition=60 \
    > /dev/null 2>&1 &
beta_pid=$!
beta_killed=0
for _ in $(seq 1 400); do
    if grep -q 'beta#' target/ci-artifacts/fleet/run/campaign.wal 2>/dev/null; then
        kill -9 "$beta_pid" 2>/dev/null && beta_killed=1
        break
    fi
    kill -0 "$fleet_ctl" 2>/dev/null || break
    sleep 0.05
done
[ "$beta_killed" = 1 ] || echo "    (campaign outran beta; SIGKILL skipped)"
"$fleetworker" --connect "$fleet_addr" --name alpha \
    --snapshot-dir target/ci-artifacts/fleet/snap-alpha --snapshot-cycles 400 \
    --backoff-ms 50 --netfault seed=3,drop=30,dup=20,delay=1 \
    > /dev/null 2>&1 &
alpha_pid=$!
wait "$fleet_ctl"
kill -9 "$beta_pid" "$alpha_pid" 2>/dev/null || true
wait "$beta_pid" "$alpha_pid" 2>/dev/null || true
grep -q 'done=3' target/ci-artifacts/fleet/run.out
diff target/ci-artifacts/fleet/reference.jsonl \
     target/ci-artifacts/fleet/run/journal.jsonl
if [ -e target/ci-artifacts/fleet/run/fleet.addr ]; then
    echo "FAIL: fleet.addr not removed at campaign end"
    exit 1
fi
echo "    faulted fleet + SIGKILL finalized the bit-identical journal"
"$controller" --campaign target/ci-artifacts/fleet/degraded "${jobs[@]}" \
    --workers 2 --backoff-ms 30 --snapshot-cycles 400 \
    --fleet-listen 127.0.0.1:0 --progress --worker-exe "$worker" \
    > target/ci-artifacts/fleet/degraded.out \
    2> target/ci-artifacts/fleet/degraded.err
grep -q 'done=3' target/ci-artifacts/fleet/degraded.out
grep -q 'fleet=0 (degraded)' target/ci-artifacts/fleet/degraded.err
diff target/ci-artifacts/fleet/reference.jsonl \
     target/ci-artifacts/fleet/degraded/journal.jsonl
echo "    workerless fleet degraded to local threads and completed"

echo "==> mlpwin-bench snapshot-overhead gate (default cadence, >5% fails)"
# The full suite twice more: once snapshot-free for a reference, then
# through the recoverable runner at the default snapshot cadence. Each
# attempt measures its own back-to-back A/B pair on this machine, so the
# gate isolates pure snapshot overhead from host-speed drift; best of
# five attempts (with a settle pause between) smooths transient
# contention.
snapshot_overhead_gate() {
    cargo run --release -q -p mlpwin-bench --bin mlpwin-bench -- \
        --out target/ci-artifacts/BENCH_nosnap.json
    cargo run --release -q -p mlpwin-bench --bin mlpwin-bench -- \
        --out target/ci-artifacts/BENCH_snapshots.json \
        --baseline target/ci-artifacts/BENCH_nosnap.json \
        --snapshot-cycles 100000 --max-drop 5
}
for attempt in 1 2 3 4 5; do
    if snapshot_overhead_gate; then
        break
    fi
    if [ "$attempt" -eq 5 ]; then
        echo "FAIL: snapshot-overhead gate failed on all 5 attempts"
        exit 1
    fi
    echo "    attempt $attempt over threshold; settling, then retrying"
    sleep 15
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> CI green"
