#!/usr/bin/env bash
# debug_smoke.sh — live observability-plane smoke test.
#
# Starts a tackd server with the debug endpoint enabled, runs a transfer
# against it, and — while the transfer is in flight — scrapes /metrics
# (validating every line against the Prometheus text exposition grammar),
# reads /debug/tack/conns (validating the per-connection JSON), and runs
# tackstat once against the live endpoint. Fails on any malformed output
# or unreachable route.
#
# Usage: scripts/debug_smoke.sh
set -euo pipefail

PORT="${TACK_DEBUG_SMOKE_PORT:-4770}"
DEBUG="127.0.0.1:${TACK_DEBUG_SMOKE_DEBUG_PORT:-9770}"
workdir="$(mktemp -d)"
server_pid=""
send_pid=""
cleanup() {
    [ -n "$send_pid" ] && kill "$send_pid" 2>/dev/null || true
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/tackd" ./cmd/tackd
go build -o "$workdir/tackstat" ./cmd/tackstat

# -sockets 2: the socket group's per-member counters must show up in
# every scrape below (on non-reuseport platforms this clamps to 1 and
# the assertions still hold for socket 0).
"$workdir/tackd" serve -listen "127.0.0.1:$PORT" -flows 1 -sockets 2 \
    -debug-addr "$DEBUG" -postmortem "$workdir" 2> "$workdir/serve.log" &
server_pid=$!

# Wait for the debug endpoint to come up.
for i in $(seq 1 50); do
    if curl -sf "http://$DEBUG/" > /dev/null 2>&1; then break; fi
    [ "$i" = 50 ] && { echo "debug endpoint never came up" >&2; cat "$workdir/serve.log" >&2; exit 1; }
    sleep 0.1
done

# A CPU profile takes a second: take it while the server waits for the
# transfer, so the scrapes below still find the transfer in flight.
curl -sf "http://$DEBUG/debug/pprof/profile?seconds=1" > "$workdir/cpu.pprof" && [ -s "$workdir/cpu.pprof" ] || {
    echo "/debug/pprof/profile unreachable or empty" >&2
    exit 1
}

# A transfer big enough to still be in flight when we scrape.
"$workdir/tackd" send -to "127.0.0.1:$PORT" -bytes 256M -json \
    > "$workdir/send.json" 2> "$workdir/send.log" &
send_pid=$!
sleep 1

# 1. /metrics must be valid Prometheus text exposition format.
curl -sf "http://$DEBUG/metrics" > "$workdir/metrics.txt"
awk '
!/^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / &&
!/^[a-zA-Z_:][a-zA-Z0-9_:]*({le="[^"]+"})? -?[0-9.eE+-]+$/ {
    printf "malformed exposition line %d: %s\n", NR, $0 > "/dev/stderr"; bad = 1
}
END { exit bad }
' "$workdir/metrics.txt"
grep -q '^tack_ep_rx_packets ' "$workdir/metrics.txt" || {
    echo "/metrics missing tack_ep_rx_packets:" >&2
    head -20 "$workdir/metrics.txt" >&2
    exit 1
}
echo "debug smoke: /metrics OK ($(wc -l < "$workdir/metrics.txt") lines)"

# 2. /debug/tack/conns must list the in-flight receiver connection.
curl -sf "http://$DEBUG/debug/tack/conns" > "$workdir/conns.json"
grep -q '"conn_id"' "$workdir/conns.json" || {
    echo "/debug/tack/conns listed no connections mid-transfer:" >&2
    cat "$workdir/conns.json" >&2
    exit 1
}
grep -q '"role": "receiver"' "$workdir/conns.json" || {
    echo "/debug/tack/conns missing the receiver half" >&2
    exit 1
}
echo "debug smoke: /debug/tack/conns OK"

# 3. pprof must answer (the CPU profile was taken before the transfer).
curl -sf "http://$DEBUG/debug/pprof/goroutine?debug=1" | grep -q goroutine || {
    echo "/debug/pprof/goroutine unreachable or empty" >&2
    exit 1
}
echo "debug smoke: /debug/pprof OK"

# 4. tackstat must render the socket-group and connection tables.
"$workdir/tackstat" -addr "$DEBUG" -count 1 -no-clear > "$workdir/tackstat.txt"
grep -q "CONN" "$workdir/tackstat.txt" && grep -qi "receiver" "$workdir/tackstat.txt" || {
    echo "tackstat output missing the connection table:" >&2
    cat "$workdir/tackstat.txt" >&2
    exit 1
}
grep -q "SOCKET" "$workdir/tackstat.txt" || {
    echo "tackstat output missing the per-socket table:" >&2
    cat "$workdir/tackstat.txt" >&2
    exit 1
}
# The migration column must render (count, or prob/rej while a path
# validation is in flight) — it is how an operator sees a roaming peer.
grep -q "MIG" "$workdir/tackstat.txt" || {
    echo "tackstat output missing the MIG column:" >&2
    cat "$workdir/tackstat.txt" >&2
    exit 1
}
echo "debug smoke: tackstat OK"
sed 's/^/  /' "$workdir/tackstat.txt"

# Let the transfer finish so both processes exit cleanly.
wait "$send_pid" || { echo "send failed:" >&2; cat "$workdir/send.log" >&2; exit 1; }
send_pid=""
wait "$server_pid" || { echo "serve failed:" >&2; cat "$workdir/serve.log" >&2; exit 1; }
server_pid=""
echo "debug smoke OK"
