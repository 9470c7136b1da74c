#!/usr/bin/env bash
# CI portable-kernels lane: the tree must build for an architecture that has
# no micro-kernels (arm64: the pure-Go loops are the only path there), and the
# determinism contract must survive that compiler. arm64 is one of the
# targets where Go fuses x*y+z into a single-rounding FMADD/FMSUB unless the
# product is explicitly converted (float32(x*y), float64(x*y)). Every
# non-test source file under internal/ converts its products, so none of it
# may contain a fused multiply-add; nor may the kernel oracles in
# internal/tensor/kernels_test.go. The one exemption is vmath.go: the
# transcendental row ops are defined as math.Exp/math.Tanh, which use FMA
# wherever the architecture's own implementation does; see DESIGN.md.
#
# Each package is compiled to its arm64 archive (no linker, so no function is
# dropped as unreachable) and disassembled restricted to its own symbols;
# code inlined from another internal package is checked under the caller too.
set -euo pipefail
cd "$(dirname "$0")/.."

GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/...

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fma='[[:space:]].*[[:space:]]FN?M(ADD|SUB)[SD][[:space:]]'

fused=""
for pkg in $(go list ./internal/...); do
	a="$WORK/$(echo "$pkg" | tr / _).a"
	GOARCH=arm64 go build -o "$a" "$pkg"
	fused+="$(go tool objdump -s "^${pkg//./\\.}\." "$a" |
		grep -E "^[[:space:]]*[A-Za-z0-9_]+\.go:[0-9]+$fma" |
		grep -vE "^[[:space:]]*vmath\.go:" | sed "s|^|$pkg: |" || true)"
done

GOARCH=arm64 go test -c -o "$WORK/tensor.test" ./internal/tensor
fused+="$(go tool objdump -s '^torchgt/internal/tensor\.' "$WORK/tensor.test" |
	grep -E "^[[:space:]]*kernels_test\.go:[0-9]+$fma" || true)"

if [ -n "$fused" ]; then
	echo "fused multiply-adds under internal/ (wrap the product in float32(...) or float64(...)):" >&2
	echo "$fused" >&2
	exit 1
fi
echo "portable: arm64 builds, vet clean, no fused multiply-add in any non-test file under internal/ (vmath.go exempt) or in kernels_test.go"
