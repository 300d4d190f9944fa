#!/usr/bin/env bash
# Sweep-service smoke test: the serving acceptance path.
#
# 1. Starts cmd/serve over an empty store: a POSTed config is a cold
#    miss that executes, and the same POST again is a warm hit whose
#    body is byte-identical; the same config with its keys reordered
#    and spaced out is a hit with the same bytes too; If-None-Match with
#    the returned ETag gets 304 Not Modified.
# 2. Opens a connection, sends half a request line and nothing more: the
#    server must close it once its header timeout (10 s) has passed. A
#    request that sends 5 of its 100 body bytes must be cut off at the
#    read timeout (30 s), and a connection left idle after a 200 at the
#    idle timeout (10 s).
# 3. POSTs a sweep grid and requires the response digest to equal the
#    manifest digest of a direct cmd/sweep over the same grid — the
#    served cache and the command line are the same experiment.
# 4. Restarts the server on the same store, with -cpuprofile: the cache
#    must survive the process, answering with the same ETag without
#    re-running, and SIGINT must leave a non-empty CPU profile.
#
# Usage: scripts/serve_smoke.sh [workdir]
set -euo pipefail

cd "$(dirname "$0")/.."
work="${1:-$(mktemp -d)}"
mkdir -p "$work" bin

go build -o bin/serve ./cmd/serve
go build -o bin/sweep ./cmd/sweep
go build -o bin/manifest ./cmd/manifest

# 0.25 accumulates exactly in binary floating point, so cmd/sweep's
# step grid and the JSON loads below parse to bit-identical float64s
# (and therefore identical fingerprints).
config='{"Network":"tree","VCs":2,"K":4,"N":2,"Seed":1,"Warmup":200,"Horizon":1000,"Load":0.5}'
reordered='{ "Load": 0.5, "Horizon": 1000, "Warmup": 200, "Seed": 1,
  "N": 2, "K": 4, "VCs": 2, "Network": "tree" }'
sweep_spec='{"config":{"Network":"tree","VCs":2,"K":4,"N":2,"Seed":1,"Warmup":200,"Horizon":1000},"loads":[0.25,0.5,0.75,1.0]}'

# start_serve ERRFILE [FLAG...] starts bin/serve with its stderr in
# ERRFILE and any extra flags, and sets pid and addr.
start_serve() {
    bin/serve -store "$work/store" -addr 127.0.0.1:0 "${@:2}" 2>"$1" &
    pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's#.*serving on http://\(.*\)#\1#p' "$1" | head -1)
        [ -n "$addr" ] && break
        sleep 0.2
    done
    [ -n "$addr" ] || { echo "serve never came up"; cat "$1"; kill "$pid" 2>/dev/null; exit 1; }
}

# A failing step exits at once; stop the server it leaves behind.
trap 'kill "${pid:-}" 2>/dev/null || true' EXIT

echo "== cold miss, warm hit, byte-identical bodies =="
start_serve "$work/serve1.err"
curl -fsS -D "$work/h1" -o "$work/b1" -d "$config" "http://$addr/v1/run"
grep -qi '^x-smart-cache: miss' "$work/h1" || { echo "first request was not a miss"; cat "$work/h1"; exit 1; }
curl -fsS -D "$work/h2" -o "$work/b2" -d "$config" "http://$addr/v1/run"
grep -qi '^x-smart-cache: hit' "$work/h2" || { echo "second request was not a hit"; cat "$work/h2"; exit 1; }
cmp "$work/b1" "$work/b2" || { echo "hit body differs from miss body"; exit 1; }
etag=$(sed -n 's/^[Ee][Tt]ag: \(.*\)/\1/p' "$work/h1" | tr -d '\r' | head -1)
[ -n "$etag" ] || { echo "no ETag on the run response"; cat "$work/h1"; exit 1; }
echo "cache hit is byte-identical (etag $etag)"

echo "== reordered keys and spacing: a hit with the same bytes =="
# The first POST of these bytes is decoded; the second is answered from
# the request memo without a decode. Both must match the miss.
for n in 1 2; do
    curl -fsS -D "$work/h4" -o "$work/b4" -d "$reordered" "http://$addr/v1/run"
    grep -qi '^x-smart-cache: hit' "$work/h4" || { echo "reordered config post $n was not a hit"; cat "$work/h4"; exit 1; }
    cmp "$work/b1" "$work/b4" || { echo "reordered config post $n: body differs from the miss"; exit 1; }
done
echo "reordered config hits are byte-identical"

echo "== ETag revalidation returns 304 =="
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" -d "$config" "http://$addr/v1/run")
[ "$code" = "304" ] || { echo "If-None-Match returned $code, want 304"; exit 1; }
echo "revalidation 304 ok"

echo "== a client that never finishes its request line is disconnected =="
# cmd/serve's header timeout is 10 s; allow 5 s more. cat returns once
# the server closes the connection and is killed by timeout otherwise.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'POST /v1/ru' >&3
started=$(date +%s)
timeout 15 cat <&3 >/dev/null || { echo "server kept a half-sent request open past 15 s"; exit 1; }
exec 3<&-
echo "connection closed after $(( $(date +%s) - started )) s"

echo "== a client that never finishes its request body is disconnected =="
# cmd/serve's read timeout is 30 s, counted from the request's first
# byte; allow 5 s more.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
started=$(date +%s)
printf 'POST /v1/run HTTP/1.1\r\nHost: smoke\r\nContent-Length: 100\r\n\r\n{"Net' >&3
timeout 35 cat <&3 >/dev/null || { echo "server kept a half-sent body open past 35 s"; exit 1; }
exec 3<&-
echo "connection closed after $(( $(date +%s) - started )) s"

echo "== an idle keep-alive connection is closed =="
# cmd/serve's idle timeout is 10 s; allow 5 s more.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
started=$(date +%s)
timeout 15 cat <&3 >"$work/idle.out" || { echo "server kept an idle connection open past 15 s"; exit 1; }
exec 3<&-
grep -q '^HTTP/1.1 200' "$work/idle.out" || { echo "no 200 before the idle wait"; cat "$work/idle.out"; exit 1; }
echo "connection closed after $(( $(date +%s) - started )) s"

echo "== served sweep digest equals a direct cmd/sweep manifest digest =="
curl -fsS -d "$sweep_spec" "http://$addr/v1/sweep" >"$work/sweep_resp.json"
served_digest=$(grep -o '"digest":"[0-9a-f]*"' "$work/sweep_resp.json" | head -1 | cut -d'"' -f4)
[ -n "$served_digest" ] || { echo "no digest in sweep response"; exit 1; }
bin/sweep -net tree -vcs 2 -k 4 -n 2 -seed 1 -warmup 200 -horizon 1000 -step 0.25 \
    -manifest "$work/direct.jsonl" >/dev/null 2>&1
direct_digest=$(bin/manifest -digest "$work/direct.jsonl" | awk '{print $1}')
if [ "$served_digest" != "$direct_digest" ]; then
    echo "served sweep digest $served_digest != direct cmd/sweep digest $direct_digest"
    exit 1
fi
echo "digests agree: $served_digest"

echo "== metrics endpoint reports the cache =="
curl -fsS "http://$addr/metrics" | grep -q '^smart_serve_cache_hits_total' || { echo "no serve counters in /metrics"; exit 1; }
curl -fsS "http://$addr/metrics" | grep -q '^smart_store_records' || { echo "no store stats in /metrics"; exit 1; }

echo "== the cache survives a restart =="
kill -INT "$pid"
wait "$pid" || { echo "serve exited nonzero on SIGINT"; exit 1; }
start_serve "$work/serve2.err" -cpuprofile "$work/cpu.prof"
curl -fsS -D "$work/h3" -o "$work/b3" -d "$config" "http://$addr/v1/run"
grep -qi '^x-smart-cache: hit' "$work/h3" || { echo "restarted server missed a stored config"; cat "$work/h3"; exit 1; }
cmp "$work/b1" "$work/b3" || { echo "restarted body differs"; exit 1; }
kill -INT "$pid"
wait "$pid" || true
test -s "$work/cpu.prof" || { echo "serve wrote no -cpuprofile on SIGINT"; cat "$work/serve2.err"; exit 1; }

echo "serve smoke ok"
