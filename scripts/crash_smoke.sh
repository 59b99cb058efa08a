#!/usr/bin/env bash
# Crash-recovery smoke test for the maybms-shell --data-dir path: populate
# a durable database, kill the process without warning (SIGKILL, so no
# graceful shutdown runs), restart on the same directory, and verify a
# query sees the recovered catalog. Exercises the real StdVfs — fsyncs,
# atomic rename, directory fsync — end to end, complementing the
# in-memory fault-injection matrix.
#
# Usage: scripts/crash_smoke.sh [path-to-maybms-shell]
set -u

SHELL_BIN="${1:-target/release/maybms-shell}"
DATA_DIR="$(mktemp -d)"
trap 'rm -rf "$DATA_DIR"' EXIT

fail() {
    echo "crash_smoke: FAIL — $1" >&2
    exit 1
}

[ -x "$SHELL_BIN" ] || fail "shell binary not found at $SHELL_BIN (build with: cargo build --release)"

# --- Phase 1: populate, checkpoint mid-script, then die hard. ---------
# The shell reads statements from stdin; feed it the demo workload plus a
# checkpoint, then SIGKILL it while it waits for more input — the WAL
# tail after the checkpoint (an INSERT … VALUES, an UPDATE and an
# INSERT … SELECT: every record body that carries cells) must survive
# without any shutdown path.
mkfifo "$DATA_DIR/stdin"
"$SHELL_BIN" --data-dir "$DATA_DIR/db" < "$DATA_DIR/stdin" > "$DATA_DIR/phase1.out" 2>&1 &
SHELL_PID=$!
{
    cat scripts/nba_demo.sql
    echo "\\checkpoint"
    echo "insert into ft values ('PostCrash', 'F', 'F', 0.5);"
    echo "update ft set p = 0.125 where player = 'PostCrash';"
    echo "insert into states select 'Copied' || player, init from ft where player = 'PostCrash';"
    # Keep stdin open so the shell stays alive until the SIGKILL.
    sleep 60
} > "$DATA_DIR/stdin" &
FEED_PID=$!

# Wait for the last post-checkpoint statement to be acknowledged in the
# output: a line ending in exactly `INSERT 1` (the demo's own `INSERT 17`
# must not match) after the `UPDATE 1` that follows the CHECKPOINT line.
acknowledged() {
    awk '/CHECKPOINT/ { seen = 1 } seen && /(^| )UPDATE 1$/ { updated = 1 }
         updated && /(^| )INSERT 1$/ { ok = 1 } END { exit !ok }' \
        "$DATA_DIR/phase1.out" 2>/dev/null
}
for _ in $(seq 1 100); do
    acknowledged && break
    kill -0 "$SHELL_PID" 2>/dev/null || fail "shell died early: $(cat "$DATA_DIR/phase1.out")"
    sleep 0.1
done
acknowledged || fail "post-checkpoint writes never acknowledged: $(cat "$DATA_DIR/phase1.out")"

kill -9 "$SHELL_PID" 2>/dev/null
kill "$FEED_PID" 2>/dev/null
wait "$SHELL_PID" 2>/dev/null
wait "$FEED_PID" 2>/dev/null

[ -f "$DATA_DIR/db/wal" ] || fail "no WAL in data dir after kill"
[ -f "$DATA_DIR/db/snapshot" ] || fail "no snapshot in data dir after kill (\\checkpoint ran)"

# --- Phase 2: restart on the same directory and query. ----------------
RESTART_OUT="$DATA_DIR/phase2.out"
printf "%s\n" \
    "select player, init, p from ft where player = 'PostCrash';" \
    "select player, state from states where player = 'CopiedPostCrash';" \
    "select count(*) as n from ft;" \
    | "$SHELL_BIN" --data-dir "$DATA_DIR/db" > "$RESTART_OUT" 2>&1 \
    || fail "restart failed: $(cat "$RESTART_OUT")"

grep -q "Recovered" "$RESTART_OUT" || fail "banner did not report recovery: $(cat "$RESTART_OUT")"
grep -q "PostCrash" "$RESTART_OUT" || fail "WAL-tail row lost across the crash: $(cat "$RESTART_OUT")"
grep -q "0.125" "$RESTART_OUT" || fail "WAL-tail UPDATE lost across the crash: $(cat "$RESTART_OUT")"
grep -q "CopiedPostCrash" "$RESTART_OUT" \
    || fail "WAL-tail INSERT … SELECT lost across the crash: $(cat "$RESTART_OUT")"

# --- Phase 3: a directory in an older format is refused, untouched. ----
# Rewrite the WAL's version byte (the 8th, last of the magic) to 2, the
# format before the current one (it logged INSERT and UPDATE as row
# images). The shell must exit non-zero naming the version, and leave
# every file byte-identical: no truncate, no reset.
printf '\002' | dd of="$DATA_DIR/db/wal" bs=1 seek=7 count=1 conv=notrunc 2>/dev/null \
    || fail "could not rewrite the WAL version byte"
cp -R "$DATA_DIR/db" "$DATA_DIR/before"
OLD_OUT="$DATA_DIR/phase3.out"
if echo "select count(*) as n from ft;" \
    | "$SHELL_BIN" --data-dir "$DATA_DIR/db" > "$OLD_OUT" 2>&1; then
    fail "shell opened a version-2 WAL: $(cat "$OLD_OUT")"
fi
grep -q "version 2" "$OLD_OUT" || fail "refusal does not name the version: $(cat "$OLD_OUT")"
[ "$(ls "$DATA_DIR/db")" = "$(ls "$DATA_DIR/before")" ] || fail "refused open changed the file list"
for f in "$DATA_DIR/before"/*; do
    cmp -s "$f" "$DATA_DIR/db/$(basename "$f")" || fail "refused open changed $(basename "$f")"
done

echo "crash_smoke: OK (kill -9 survived: snapshot + WAL tail of INSERT, UPDATE and \
INSERT … SELECT recovered, queries verified; version-2 WAL refused untouched)"
