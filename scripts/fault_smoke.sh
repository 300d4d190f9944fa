#!/usr/bin/env bash
# Fault-injection smoke test: the degraded-mode acceptance path.
#
# 1. Runs a faulted, bursty netsim at 1 and 4 fabric shards: the full
#    report — counters, fault summary, reroute totals, the first
#    packets' hop-by-hop timelines — and the -timelines JSONL must be
#    byte-identical. Fault masks are serial-stage state; the shard count
#    must never show through.
# 2. Repeats the sharded run: the report must also be byte-identical
#    across invocations (whole-pipeline determinism).
# 3. Runs the same point through sweep: netsim's manifest record and
#    the sweep's record at that load must digest equal, so a netsim
#    write-back is a sweep cache hit.
# 4. Round-trips a fault schedule through its JSONL form: a schedule
#    file drives netsim to the same report as the inline spec, and
#    `manifest -digest` gives it a stable content address.
#
# Usage: scripts/fault_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work" bin

go build -o bin/netsim ./cmd/netsim
go build -o bin/sweep ./cmd/sweep
go build -o bin/manifest ./cmd/manifest

point=(-net cube -k 4 -n 2 -alg duato -vcs 4 -pattern uniform
    -seed 9 -warmup 300 -horizon 2500
    -faults rand-links:3@400-1800,router:5@600-1400 -burst mmpp:100:300:2.0)
args=("${point[@]}" -load 0.4 -packets 3)

echo "== faulted run is shard-count invariant =="
bin/netsim "${args[@]}" -shards 1 -timelines "$work/shards1.jsonl" >"$work/shards1.out"
bin/netsim "${args[@]}" -shards 4 -timelines "$work/shards4.jsonl" >"$work/shards4.out"
diff -u "$work/shards1.out" "$work/shards4.out" || {
    echo "faulted report diverged between 1 and 4 shards"; exit 1; }
cmp "$work/shards1.jsonl" "$work/shards4.jsonl" || {
    echo "faulted packet timelines diverged between 1 and 4 shards"; exit 1; }
grep -q 'hop-by-hop timelines of the first 3 packets' "$work/shards1.out" || {
    echo "report carries no packet timelines"; exit 1; }
grep -q 'fault stalls' "$work/shards1.out" || {
    echo "report carries no fault summary — the schedule never engaged"; exit 1; }
grep -q 'rerouted around fault masks' "$work/shards1.out" || {
    echo "duato reported no reroute counter"; exit 1; }

echo "== faulted run is reproducible across invocations =="
bin/netsim "${args[@]}" -shards 4 >"$work/shards4.again"
cmp "$work/shards4.out" "$work/shards4.again" || {
    echo "identical faulted invocations diverged"; exit 1; }

echo "== netsim's run record is the sweep's record for the same point =="
bin/netsim "${point[@]}" -load 0.4 -manifest "$work/netsim.jsonl" >/dev/null
bin/sweep "${point[@]}" -step 0.4 -manifest "$work/sweep.jsonl" >/dev/null
grep '"load":0.4,' "$work/sweep.jsonl" >"$work/sweep-0.4.jsonl"
n=$(bin/manifest -digest "$work/netsim.jsonl" | awk '{print $1}')
s=$(bin/manifest -digest "$work/sweep-0.4.jsonl" | awk '{print $1}')
[ -n "$n" ] && [ "$n" = "$s" ] || {
    echo "netsim and sweep records for load 0.4 digest differently: $n vs $s"; exit 1; }

echo "== schedule file round-trips through smart/faults/v1 =="
cat >"$work/sched.jsonl" <<'EOF'
{"schema":"smart/faults/v1"}
{"cycle":400,"kind":"link-down","router":2,"port":1}
{"cycle":600,"kind":"router-down","router":5,"port":0}
{"cycle":1400,"kind":"router-up","router":5,"port":0}
{"cycle":1800,"kind":"link-up","router":2,"port":1}
EOF
spec='link:2:1@400-1800,router:5@600-1400'
fileargs=(-net cube -k 4 -n 2 -alg duato -vcs 4 -pattern uniform -load 0.4
    -seed 9 -warmup 300 -horizon 2500 -burst mmpp:100:300:2.0 -shards 4)
bin/netsim "${fileargs[@]}" -faults "$work/sched.jsonl" >"$work/fromfile.out"
bin/netsim "${fileargs[@]}" -faults "$spec" >"$work/fromspec.out"
cmp "$work/fromfile.out" "$work/fromspec.out" || {
    echo "JSONL schedule and inline spec produced different reports"; exit 1; }
d1=$(bin/manifest -digest "$work/sched.jsonl" | awk '{print $1}')
d2=$(bin/manifest -digest "$work/sched.jsonl" | awk '{print $1}')
[ -n "$d1" ] && [ "$d1" = "$d2" ] || {
    echo "manifest digest of the schedule is unstable: $d1 vs $d2"; exit 1; }
bin/manifest "$work/sched.jsonl" | grep -q "canonical: $spec" || {
    echo "manifest did not recover the canonical spec"; exit 1; }

echo "fault smoke passed (workdir $work)"
