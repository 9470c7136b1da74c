#!/usr/bin/env bash
# CI portable-kernels lane: the tree must build for an architecture that has
# no micro-kernels (arm64: the pure-Go loops are the only path there), and the
# kernels' determinism contract must survive that compiler. arm64 is one of
# the targets where Go fuses x*y+z into a single-rounding FMADD/FMSUB unless
# the product is explicitly converted; kernels.go and the oracles in
# kernels_test.go convert every product, so neither may contain a fused
# multiply-add. The grep is scoped to those two files on purpose: code above
# the kernels — LayerNorm, Adam, GELU — is not held to this, and the
# transcendental row ops (vmath.go; vmath_amd64.s is not built here) are
# defined as math.Exp/math.Tanh, which use FMA wherever the architecture's
# own implementation does; see DESIGN.md.
set -euo pipefail
cd "$(dirname "$0")/.."

GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
GOARCH=arm64 go test -c -o "$WORK/tensor.test" ./internal/tensor
fused="$(go tool objdump "$WORK/tensor.test" |
	grep -E '^[[:space:]]*kernels(_test)?\.go:[0-9]+[[:space:]].*[[:space:]]FN?M(ADD|SUB)[SD][[:space:]]' || true)"
if [ -n "$fused" ]; then
	echo "fused multiply-adds in the order-preserving kernels (wrap the product in float32(...)):" >&2
	echo "$fused" >&2
	exit 1
fi
echo "portable kernels: arm64 builds, vet clean, no fused multiply-add in kernels.go / kernels_test.go"
