#!/usr/bin/env bash
# CI shard-smoke lane: the out-of-core path end to end through the real
# binaries. Generates a synthetic dataset, shards it, checks inspect/convert
# (converting the shards back must be bitwise-identical to the monolithic
# container, and io=mmap must be refused), trains with
# ego sampling against the disk-resident view under a cache budget far below
# the dataset size (accuracy must match the in-memory run exactly), and
# serves /predict shard-backed (responses must match the in-memory server,
# /metrics must export the shard I/O counters). Run from the repository root.
set -euo pipefail

NODES=2048
SEED=11
ADDR_MEM="${ADDR_MEM:-127.0.0.1:18091}"
ADDR_SHARD="${ADDR_SHARD:-127.0.0.1:18092}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -INT "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/torchgt-data" ./cmd/torchgt-data
go build -o "$WORK/torchgt-train" ./cmd/torchgt-train
go build -o "$WORK/torchgt-serve" ./cmd/torchgt-serve

echo "== convert + shard + inspect"
"$WORK/torchgt-data" convert -in "synth://arxiv-sim?nodes=$NODES&seed=$SEED" -o "$WORK/mono.tgds"
"$WORK/torchgt-data" shard -in "file://$WORK/mono.tgds" -shards 8 -o "$WORK/shards"
"$WORK/torchgt-data" inspect -data "shard://$WORK/shards" | tee "$WORK/inspect.txt"
grep -q "sharded dataset" "$WORK/inspect.txt"
grep -q "shard 0007" "$WORK/inspect.txt"

echo "== io=mmap is refused: pread is the only I/O mode"
if "$WORK/torchgt-data" inspect -data "shard://$WORK/shards?io=mmap" 2>"$WORK/mmap.txt"; then
    echo "io=mmap was accepted" >&2
    exit 1
fi
grep -q "pread is the only I/O mode" "$WORK/mmap.txt"

echo "== convert must reproduce the monolithic container bitwise"
"$WORK/torchgt-data" convert -in "shard://$WORK/shards" -o "$WORK/merged.tgds"
cmp "$WORK/mono.tgds" "$WORK/merged.tgds"

# The cache budget (128 KiB) is far below the dataset's feature payload; the
# trainer must page blocks in and out and still land on the exact accuracy of
# the in-memory run — sampling is deterministic per (seed, serial, target).
echo "== out-of-core ego training vs in-memory (accuracy must match bitwise)"
"$WORK/torchgt-train" -ego -data "file://$WORK/mono.tgds" \
    -epochs 2 -seqlen 16 -seed 3 | tee "$WORK/ego-mem.txt"
"$WORK/torchgt-train" -ego -ego-workers 4 \
    -data "shard://$WORK/shards?cache=128KiB&block=8KiB" \
    -epochs 2 -seqlen 16 -seed 3 | tee "$WORK/ego-shard.txt"
grep -q "disk-resident" "$WORK/ego-shard.txt"
grep -q "shard I/O:" "$WORK/ego-shard.txt"
ACC_MEM="$(grep -o 'final test accuracy: [0-9.]*%' "$WORK/ego-mem.txt")"
ACC_SHARD="$(grep -o 'final test accuracy: [0-9.]*%' "$WORK/ego-shard.txt")"
if [[ "$ACC_MEM" != "$ACC_SHARD" ]]; then
    echo "out-of-core training diverged from in-memory:" >&2
    echo "  memory: $ACC_MEM" >&2
    echo "  shard:  $ACC_SHARD" >&2
    exit 1
fi

echo "== snapshot for serving"
"$WORK/torchgt-serve" -data "file://$WORK/mono.tgds" -epochs 2 \
    -save-snapshot "$WORK/model.snap" -train-only

wait_healthy() {
    local addr="$1"
    for _ in $(seq 1 50); do
        if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "server at $addr never became healthy" >&2
    return 1
}

echo "== boot in-memory and shard-backed servers"
"$WORK/torchgt-serve" -data "file://$WORK/mono.tgds" -snapshot "$WORK/model.snap" \
    -http "$ADDR_MEM" -workers 1 &
PIDS+=($!)
"$WORK/torchgt-serve" -data "shard://$WORK/shards?cache=128KiB&block=8KiB" \
    -snapshot "$WORK/model.snap" -http "$ADDR_SHARD" -workers 2 &
PIDS+=($!)
wait_healthy "$ADDR_MEM"
wait_healthy "$ADDR_SHARD"

echo "== /predict must be identical across backings"
for node in 0 7 100 999 2047; do
    a="$(curl -sf "http://$ADDR_MEM/predict?node=$node" | jq -cS '{node, class, probs}')"
    b="$(curl -sf "http://$ADDR_SHARD/predict?node=$node" | jq -cS '{node, class, probs}')"
    if [[ "$a" != "$b" ]]; then
        echo "node $node: shard-backed response differs" >&2
        echo "  memory: $a" >&2
        echo "  shard:  $b" >&2
        exit 1
    fi
done

echo "== /metrics must export shard I/O counters"
curl -sf "http://$ADDR_SHARD/metrics" >"$WORK/metrics.txt"
grep -q "^torchgt_shard_io_cache_misses_total" "$WORK/metrics.txt"
MISSES="$(awk '/^torchgt_shard_io_cache_misses_total/ {print $NF}' "$WORK/metrics.txt")"
if [[ -z "$MISSES" || "$MISSES" == "0" ]]; then
    echo "shard-backed server reported no cache misses under a tight budget" >&2
    exit 1
fi
BUDGET="$(awk '/^torchgt_shard_io_budget_bytes/ {print $NF}' "$WORK/metrics.txt")"
if [[ "$BUDGET" != "131072" ]]; then
    echo "shard budget gauge reads ${BUDGET:-<absent>}, want 131072" >&2
    exit 1
fi

echo "shard-smoke: PASS"
