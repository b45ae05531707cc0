#!/usr/bin/env bash
# Service smoke test: build rtmdm-serve and rtmdm-loadgen, start the
# server on an ephemeral port, run the quick load profile (its
# calibration fails unless every first analyze misses the result cache
# and every repeat hits), then SIGTERM the server and assert it drains
# cleanly. Exercises bind, serve, cache, admission, and shutdown end to
# end. A second server (admission batching disabled so per-request
# latency is visible) then runs the churn profile, which fails unless
# the server's server.admit_tasks_reused counter shows every repeated
# probe served its node's committed tasks from the term cache.
set -euo pipefail

cd "$(dirname "$0")/.."
GO="${GO:-go}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

"$GO" build -o "$workdir/rtmdm-serve" ./cmd/rtmdm-serve
"$GO" build -o "$workdir/rtmdm-loadgen" ./cmd/rtmdm-loadgen

addr="127.0.0.1:18099"
"$workdir/rtmdm-serve" -addr "$addr" >"$workdir/serve.log" 2>&1 &
serve_pid=$!
# If the server dies early, fail with its log rather than hanging.
cleanup_server() { kill "$serve_pid" 2>/dev/null || true; }
trap 'cleanup_server; rm -rf "$workdir"' EXIT

"$workdir/rtmdm-loadgen" -url "http://$addr" -quick

kill -TERM "$serve_pid"
drained=1
for _ in $(seq 1 100); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        drained=0
        break
    fi
    sleep 0.1
done
wait "$serve_pid" 2>/dev/null || true

echo "--- rtmdm-serve log ---"
cat "$workdir/serve.log"

if [ "$drained" -ne 0 ]; then
    echo "smoke: server did not exit within 10s of SIGTERM" >&2
    exit 1
fi
if ! grep -q '^rtmdm-serve: drained$' "$workdir/serve.log"; then
    echo "smoke: server exited without draining" >&2
    exit 1
fi

churn_addr="127.0.0.1:18100"
"$workdir/rtmdm-serve" -addr "$churn_addr" -admit-window=-1ms >"$workdir/serve_churn.log" 2>&1 &
churn_pid=$!
cleanup_server() { kill "$serve_pid" "$churn_pid" 2>/dev/null || true; }

"$workdir/rtmdm-loadgen" -url "http://$churn_addr" -churn -quick

kill -TERM "$churn_pid"
wait "$churn_pid" 2>/dev/null || true
echo "smoke: OK"
