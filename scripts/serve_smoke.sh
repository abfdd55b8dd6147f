#!/bin/sh
# serve_smoke.sh — end-to-end check of the measurement service path.
#
# Builds microserved and the microtools CLI, starts the daemon on an
# ephemeral port, submits the same spec as two different tenants through
# `microtools submit`, and asserts the serving contract: the second
# tenant's job launches nothing (cache_hit_ratio 1.0 against the shared
# measurement cache) yet its campaign payload is byte-identical to the
# first tenant's. Then it scrapes /metrics for the service job counters
# and SIGTERMs the daemon, which must drain and exit cleanly. Run from
# the repository root (make serve-smoke).
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

"$GO" build -o "$workdir/microserved" ./cmd/microserved
"$GO" build -o "$workdir/microtools" ./cmd/microtools

# Create the log first: the polling below may run before the background
# daemon's redirection does, and sed on a missing file fails under set -e.
: >"$workdir/served.log"
"$workdir/microserved" -addr 127.0.0.1:0 -cache "$workdir/cache.jsonl" \
    -store "$workdir/store.jsonl" 2>"$workdir/served.log" &
pid=$!

# The daemon announces the bound address on stderr once the listener is up.
url=""
i=0
while [ "$i" -lt 100 ]; do
    url="$(sed -n 's#^microserved: serving \(http://[^/]*\)/$#\1#p' "$workdir/served.log")"
    [ -n "$url" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: daemon exited before serving:" >&2
        cat "$workdir/served.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "serve-smoke: no address announced within 10s" >&2
    exit 1
fi

spec=specs/loadstore_movess_abstract.xml
"$workdir/microtools" submit -addr "$url" -tenant alice -quick "$spec" \
    >"$workdir/alice.out" 2>"$workdir/alice.err"
"$workdir/microtools" submit -addr "$url" -tenant bob -quick "$spec" \
    >"$workdir/bob.out" 2>"$workdir/bob.err"

# The CLI reported the same ranking to both tenants.
if ! cmp -s "$workdir/alice.out" "$workdir/bob.out"; then
    echo "serve-smoke: the two tenants' rankings differ:" >&2
    diff "$workdir/alice.out" "$workdir/bob.out" >&2 || true
    exit 1
fi

# The wire results: job j-1 was alice's cold run, j-2 bob's warm repeat.
curl -fsS "$url/v1/jobs/j-1" >"$workdir/j1.json"
curl -fsS "$url/v1/jobs/j-2" >"$workdir/j2.json"

# Bob's serving stats must show a fully cache-warm run: zero launches,
# hit ratio exactly 1.
if ! grep -q '"launches":0' "$workdir/j2.json" ||
    ! grep -q '"cache_hit_ratio":1' "$workdir/j2.json"; then
    echo "serve-smoke: second tenant's repeat was not served from the cache:" >&2
    cat "$workdir/j2.json" >&2
    exit 1
fi

# The campaign payloads (identity- and accounting-free by contract) must
# be byte-identical across tenants and cache temperature.
sed 's/.*"campaign"://' "$workdir/j1.json" >"$workdir/j1.campaign"
sed 's/.*"campaign"://' "$workdir/j2.json" >"$workdir/j2.campaign"
if ! cmp -s "$workdir/j1.campaign" "$workdir/j2.campaign"; then
    echo "serve-smoke: campaign payloads differ between tenants:" >&2
    diff "$workdir/j1.campaign" "$workdir/j2.campaign" >&2 || true
    exit 1
fi

# The telemetry server shares the daemon's mux and counts service jobs.
curl -fsS "$url/metrics" >"$workdir/metrics"
for name in \
    microtools_service_jobs_total \
    microtools_service_jobs_completed; do
    if ! grep -q "^$name" "$workdir/metrics"; then
        echo "serve-smoke: /metrics is missing $name:" >&2
        cat "$workdir/metrics" >&2
        exit 1
    fi
done
if ! grep -q '^microtools_service_jobs_total 2' "$workdir/metrics"; then
    echo "serve-smoke: expected microtools_service_jobs_total 2:" >&2
    grep '^microtools_service' "$workdir/metrics" >&2 || true
    exit 1
fi

# SIGTERM must drain and exit 0.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: daemon exited $rc after SIGTERM:" >&2
    cat "$workdir/served.log" >&2
    exit 1
fi
if ! grep -q '^microserved: drained$' "$workdir/served.log"; then
    echo "serve-smoke: daemon did not report a clean drain:" >&2
    cat "$workdir/served.log" >&2
    exit 1
fi

echo "serve-smoke: ok ($url)"
