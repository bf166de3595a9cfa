#!/bin/sh
# serve_smoke.sh — end-to-end smoke test for the oregami mapping daemon.
#
# Builds the CLI, starts `oregami serve` on a random port, checks
# /healthz, issues a cold /v1/map (expecting "cache": "miss" and a
# verified mapping), repeats it warm (expecting "cache": "hit"), then
# shuts the server down with SIGTERM and requires a clean exit.
#
# Usage: sh tools/serve_smoke.sh   (from the repository root)
set -eu

workdir=$(mktemp -d)
bin="$workdir/oregami"
addrfile="$workdir/addr"
log="$workdir/serve.log"
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve_smoke: FAIL: $1" >&2
    [ -f "$log" ] && sed 's/^/serve_smoke:   server: /' "$log" >&2
    exit 1
}

echo "serve_smoke: building oregami"
go build -o "$bin" ./cmd/oregami

echo "serve_smoke: starting serve on a random port"
"$bin" serve -addr 127.0.0.1:0 -addr-file "$addrfile" >"$log" 2>&1 &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    if [ -s "$addrfile" ]; then
        addr=$(head -n1 "$addrfile" | tr -d '[:space:]')
        break
    fi
    kill -0 "$pid" 2>/dev/null || fail "server exited during startup"
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || fail "server never wrote its address to $addrfile"
echo "serve_smoke: server is at $addr"

curl -sf "http://$addr/healthz" >/dev/null || fail "/healthz not OK"

# Readiness is separate from liveness; without persistence the server is
# ready as soon as it listens.
i=0
while ! curl -sf "http://$addr/readyz" >/dev/null; do
    i=$((i + 1))
    [ $i -lt 100 ] || fail "/readyz never became OK"
    sleep 0.1
done

req='{"workload":"nbody","net":"hypercube:3"}'
cold=$(curl -sf -X POST "http://$addr/v1/map?check=1" -d "$req") \
    || fail "cold /v1/map request failed"
echo "$cold" | grep -Eq '"cache" *: *"miss"' || fail "cold response is not a cache miss: $cold"
echo "$cold" | grep -Eq '"checked" *: *true' || fail "cold response not oracle-checked: $cold"

warm=$(curl -sf -X POST "http://$addr/v1/map?check=1" -d "$req") \
    || fail "warm /v1/map request failed"
echo "$warm" | grep -Eq '"cache" *: *"hit"' || fail "warm response is not a cache hit: $warm"

curl -sf "http://$addr/v1/stats" | grep -q "hit ratio" || fail "/v1/stats missing hit ratio"

echo "serve_smoke: cold=miss warm=hit, shutting down"
kill -TERM "$pid"
# The server's own drain budget (default 10s) bounds this wait.
wait "$pid" || fail "server exited non-zero after SIGTERM"
grep -q "drained and stopped" "$log" || fail "server log missing drain message"
pid=""
echo "serve_smoke: PASS"
