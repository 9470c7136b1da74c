#!/usr/bin/env bash
# CI portable-kernels lane: the tree must build for an architecture that has
# no micro-kernels (arm64: the pure-Go loops are the only path there), and the
# kernels' determinism contract must survive that compiler. arm64 is one of
# the targets where Go fuses x*y+z into a single-rounding FMADD/FMSUB unless
# the product is explicitly converted. The order-preserving code converts
# every product, so none of it may contain a fused multiply-add: in
# internal/tensor, kernels.go, gather.go and the oracles in kernels_test.go;
# in internal/attention and internal/nn (LayerNorm, Adam, the losses, the LR
# schedules), every non-test source file (the oracles of their tests predate
# the rule). The grep is scoped by file name on purpose: the transcendental
# row ops (vmath.go; vmath_amd64.s is not built here) are
# defined as math.Exp/math.Tanh, which use FMA wherever the architecture's
# own implementation does; see DESIGN.md. objdump prints bare file names and
# the binaries also hold the standard library's, so the package checks
# disassemble only their own package's symbols.
set -euo pipefail
cd "$(dirname "$0")/.."

GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/tensor/ ./internal/attention/ ./internal/nn/

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fma='[[:space:]].*[[:space:]]FN?M(ADD|SUB)[SD][[:space:]]'

GOARCH=arm64 go test -c -o "$WORK/tensor.test" ./internal/tensor
fused="$(go tool objdump "$WORK/tensor.test" |
	grep -E "^[[:space:]]*(kernels(_test)?|gather)\.go:[0-9]+$fma" || true)"

for pkg in attention nn; do
	files="$(cd "internal/$pkg" && ls *.go | grep -v '_test\.go$' | sed 's/\.go$//' | paste -sd '|')"
	GOARCH=arm64 go test -c -o "$WORK/$pkg.test" "./internal/$pkg"
	fused+="$(go tool objdump -s "^torchgt/internal/$pkg\." "$WORK/$pkg.test" |
		grep -E "^[[:space:]]*($files)\.go:[0-9]+$fma" || true)"
done

if [ -n "$fused" ]; then
	echo "fused multiply-adds in the order-preserving kernels (wrap the product in float32(...)):" >&2
	echo "$fused" >&2
	exit 1
fi
echo "portable kernels: arm64 builds, vet clean, no fused multiply-add in kernels.go / gather.go / kernels_test.go, internal/attention or internal/nn"
