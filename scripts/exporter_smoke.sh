#!/usr/bin/env bash
# Prometheus-exporter smoke test for maybms-shell --metrics-addr: start a
# shell serving /metrics, run a couple of statements so the registry and
# the per-kind statement-latency histogram have content, then scrape the
# endpoint with a real HTTP client and check the exposition. Exercises
# the std-only TcpListener exporter end to end — request parsing, the
# Content-Type header, and the kind-labelled latency histogram.
#
# Usage: scripts/exporter_smoke.sh [path-to-maybms-shell]
set -u

SHELL_BIN="${1:-target/release/maybms-shell}"
WORK_DIR="$(mktemp -d)"
PORT="${MAYBMS_SMOKE_PORT:-9187}"
ADDR="127.0.0.1:$PORT"
trap 'rm -rf "$WORK_DIR"; kill "$SHELL_PID" 2>/dev/null' EXIT

fail() {
    echo "exporter_smoke: FAIL — $1" >&2
    exit 1
}

fetch() {
    # curl when available, else a bash /dev/tcp fallback (headers + body).
    if command -v curl >/dev/null 2>&1; then
        curl -fsS --max-time 5 -D - "http://$ADDR$1" 2>/dev/null
    else
        exec 3<>"/dev/tcp/127.0.0.1/$PORT" || return 1
        printf 'GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n' "$1" "$ADDR" >&3
        cat <&3
        exec 3<&- 3>&-
    fi
}

[ -x "$SHELL_BIN" ] || fail "shell binary not found at $SHELL_BIN (build with: cargo build --release)"

# Start a shell with the exporter on, run statements, then idle on an
# open stdin so the process (and its metrics thread) stays alive.
mkfifo "$WORK_DIR/stdin"
"$SHELL_BIN" --metrics-addr "$ADDR" < "$WORK_DIR/stdin" > "$WORK_DIR/shell.out" 2>&1 &
SHELL_PID=$!
{
    echo "create table smoke (a bigint, w double precision);"
    echo "insert into smoke values (1, 1.0), (2, 3.0);"
    echo "select a, conf() as p from (repair key a in smoke weight by w) s group by a;"
    sleep 30
} > "$WORK_DIR/stdin" &

# Wait until the exporter answers.
up=""
for _ in $(seq 1 100); do
    if body="$(fetch /healthz)" && printf '%s' "$body" | grep -q "ok"; then
        up=1
        break
    fi
    kill -0 "$SHELL_PID" 2>/dev/null || fail "shell died: $(cat "$WORK_DIR/shell.out")"
    sleep 0.1
done
[ -n "$up" ] || fail "exporter on $ADDR never became healthy: $(cat "$WORK_DIR/shell.out")"

METRICS="$(fetch /metrics)" || fail "GET /metrics failed"
printf '%s\n' "$METRICS" | grep -q "Content-Type: text/plain; version=0.0.4" \
    || fail "missing Prometheus Content-Type header"
for family in \
    maybms_query_total \
    maybms_query_seconds_bucket \
    maybms_pipe_pipelines_total; do
    printf '%s\n' "$METRICS" | grep -q "$family" \
        || fail "family $family missing from /metrics"
done
# The conf() statement must have landed in the conf latency series.
printf '%s\n' "$METRICS" \
    | grep 'maybms_query_seconds_count{kind="conf"}' | grep -qv ' 0$' \
    || fail "conf statement not recorded in maybms_query_seconds{kind=\"conf\"}"

echo "exporter_smoke: PASS — $ADDR served /healthz and a well-formed /metrics"
