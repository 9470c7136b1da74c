#!/usr/bin/env bash
# CI serve-integration lane: boot the real torchgt-serve binary, drive the
# control plane over HTTP with ci/serveintegration, and verify the
# zero-downtime swap, admission shedding, SIGHUP reload and /metrics counters
# against the traffic actually driven. Run from the repository root.
set -euo pipefail

ADDR="${ADDR:-:18080}"
NODES=512
SEED=7
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -INT "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/torchgt-serve" ./cmd/torchgt-serve
go build -o "$WORK/driver" ./ci/serveintegration

# Two snapshot versions over the SAME dataset (same -dataset/-nodes/-seed):
# different epoch counts give different weights, so the swap is observable.
echo "== train snapshot v1 (2 epochs) and v2 (4 epochs)"
"$WORK/torchgt-serve" -nodes $NODES -seed $SEED -epochs 2 \
    -save-snapshot "$WORK/v1.snap" -train-only
"$WORK/torchgt-serve" -nodes $NODES -seed $SEED -epochs 4 \
    -save-snapshot "$WORK/v2.snap" -train-only

# -max-pending 4 makes overload bursts shed deterministically: a burst far
# wider than the bound arrives while the engine is busy with its first
# requests, so more than 4 are pending at once. The closed-loop load workers
# (4 of them) never exceed the bound.
echo "== boot server on $ADDR (v1 live)"
"$WORK/torchgt-serve" -nodes $NODES -seed $SEED -snapshot "$WORK/v1.snap" \
    -http "$ADDR" -model default -max-pending 4 -batch 8 -deadline 50ms \
    -workers 2 &
SERVER_PID=$!

echo "== phase swap: load + live publish/swap + overload + metrics"
"$WORK/driver" -addr "$ADDR" -model default -snapshot2 "$WORK/v2.snap" \
    -nodes $NODES -phase swap

# SIGHUP re-reads the -snapshot path: point it at new weights first. The
# server still holds the v1.snap path, so overwrite that file with v2's bytes
# — the reload publishes it as version 3 and swaps (generation 3).
echo "== phase reload: SIGHUP publishes the re-read snapshot and swaps"
cp "$WORK/v2.snap" "$WORK/v1.snap"
kill -HUP "$SERVER_PID"
"$WORK/driver" -addr "$ADDR" -model default -phase expect-gen -gen 3

echo "== graceful shutdown"
kill -INT "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "serve-integration: PASS"
