#!/usr/bin/env bash
# CI dist-integration lane: the cross-process acceptance check for the TCP
# transport. Train the same job twice with the real torchgt-train binary —
# once single-process under the in-process sequence-parallel plan, once as
# four OS processes rendezvousing over TCP loopback — and require every
# rank's serving snapshot (configuration + final weights) to be bitwise
# identical to the single-process run's.
# Run from the repository root.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:17711}"
WORLD=4
NODES=256
EPOCHS=3
SEED=7
WORK="$(mktemp -d)"

cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

echo "== build"
go build -o "$WORK/torchgt-train" ./cmd/torchgt-train

COMMON=(-dataset arxiv-sim -nodes $NODES -method gp-sparse -epochs $EPOCHS -seed $SEED)

echo "== single-process reference (-seqpar $WORLD)"
"$WORK/torchgt-train" "${COMMON[@]}" -seqpar $WORLD \
    -save-snapshot "$WORK/single.snap"

echo "== $WORLD-process TCP world (-rendezvous $ADDR -world $WORLD)"
"$WORK/torchgt-train" "${COMMON[@]}" -rendezvous "$ADDR" -world $WORLD \
    -save-snapshot "$WORK/dist.snap"

echo "== compare snapshots bitwise"
for r in $(seq 0 $((WORLD - 1))); do
    cmp "$WORK/single.snap" "$WORK/dist.snap.rank$r"
    echo "rank$r: weights bitwise-identical to single-process"
done
echo "dist-integration: PASS"
