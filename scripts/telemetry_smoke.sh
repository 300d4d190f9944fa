#!/usr/bin/env bash
# Telemetry smoke test: the live-observability acceptance path.
#
# 1. Runs a sweep with -metrics-addr and scrapes /metrics and
#    /telemetry.json mid-run: the endpoint must serve live gauges while
#    simulations are in flight.
# 2. Runs a reference sweep with a -timeseries sidecar and verifies it
#    with `manifest` (it exits 1 on a sidecar that breaks an invariant).
# 3. Interrupts a checkpointed sweep mid-grid, resumes it, and requires
#    the resumed sidecar to digest identically to the uninterrupted
#    reference — the sidecar half of the kill-and-resume contract.
# 4. Resumes onto a copy of the reference sidecar with a zero-cadence
#    line appended: the resume must refuse it, naming the line, and
#    leave the copy as it was.
#
# Usage: scripts/telemetry_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work" bin

go build -o bin/sweep ./cmd/sweep
go build -o bin/manifest ./cmd/manifest

net=(-net tree -vcs 2 -k 4 -n 3)

echo "== live endpoint serves mid-run =="
bin/sweep "${net[@]}" -metrics-addr 127.0.0.1:0 -timeseries "$work/live.jsonl" \
    >"$work/sweep.out" 2>"$work/sweep.err" &
pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's#.*serving telemetry on http://\([^/]*\)/metrics.*#\1#p' "$work/sweep.err" | head -1)
    [ -n "$addr" ] && break
    sleep 0.2
done
[ -n "$addr" ] || { echo "telemetry endpoint never came up"; kill "$pid"; exit 1; }

metrics=""
for _ in $(seq 1 50); do
    metrics=$(curl -fsS "http://$addr/metrics" || true)
    if grep -q '^smart_run_flits_injected_total' <<<"$metrics"; then
        break
    fi
    sleep 0.2
done
grep -q '^smart_runs_active' <<<"$metrics" || { echo "no smart_runs_active in /metrics"; kill "$pid"; exit 1; }
grep -q '^smart_run_flits_injected_total' <<<"$metrics" || { echo "no live run counters in /metrics"; kill "$pid"; exit 1; }
grep -q '^smart_grid_total' <<<"$metrics" || { echo "no grid progress in /metrics"; kill "$pid"; exit 1; }
# /telemetry.json serves each attached run's sidecar record; retry in
# case the scrape lands between two runs.
snapshot=""
for _ in $(seq 1 50); do
    snapshot=$(curl -fsS "http://$addr/telemetry.json" || true)
    grep -q '"schema": *"smart/timeseries/v1"' <<<"$snapshot" && break
    sleep 0.2
done
grep -q '"runs_active"' <<<"$snapshot" || { echo "/telemetry.json malformed"; kill "$pid"; exit 1; }
grep -q '"schema": *"smart/timeseries/v1"' <<<"$snapshot" || { echo "/telemetry.json serves no sidecar record"; kill "$pid"; exit 1; }
echo "scraped live metrics from $addr mid-run"
wait "$pid"
bin/manifest "$work/live.jsonl"

echo "== reference sidecar =="
bin/sweep "${net[@]}" -timeseries "$work/ref.jsonl" > /dev/null
bin/manifest "$work/ref.jsonl"

echo "== kill-and-resume sidecar =="
bin/sweep "${net[@]}" -checkpoint "$work/sweep.ckpt" -timeseries "$work/resumed.jsonl" > /dev/null &
pid=$!
sleep 2
kill -INT "$pid"
wait "$pid" || true
echo "journal holds $(cat "$work"/sweep.ckpt/seg-*.jsonl | wc -l) completed runs, sidecar $(wc -l < "$work/resumed.jsonl") series"
bin/sweep "${net[@]}" -checkpoint "$work/sweep.ckpt" -resume -timeseries "$work/resumed.jsonl" > /dev/null
bin/manifest "$work/resumed.jsonl"
bin/manifest -digest "$work/ref.jsonl" "$work/resumed.jsonl"
ref=$(bin/manifest -digest "$work/ref.jsonl" | cut -d' ' -f1)
res=$(bin/manifest -digest "$work/resumed.jsonl" | cut -d' ' -f1)
test "$ref" = "$res" || { echo "resumed sidecar digest differs from reference"; exit 1; }

echo "== resume refuses a sidecar no reader accepts =="
cp "$work/ref.jsonl" "$work/bad.jsonl"
echo '{"schema":"smart/timeseries/v1","index":0,"seed":1,"load":0.1,"fingerprint":"zero-cadence","every":0,"points":null}' >>"$work/bad.jsonl"
cp "$work/bad.jsonl" "$work/bad.orig"
code=0
bin/sweep "${net[@]}" -checkpoint "$work/sweep.ckpt" -resume -timeseries "$work/bad.jsonl" >/dev/null 2>"$work/bad.err" || code=$?
[ "$code" = 1 ] || { echo "resume over a zero-cadence sidecar line exited $code, want 1"; exit 1; }
grep -q 'line' "$work/bad.err" || { echo "resume refusal names no line:"; cat "$work/bad.err"; exit 1; }
cmp "$work/bad.jsonl" "$work/bad.orig" || { echo "refused resume changed the sidecar"; exit 1; }
cat "$work/bad.err"

echo "telemetry smoke: OK"
