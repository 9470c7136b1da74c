package torchgt

import (
	"fmt"

	"torchgt/internal/tensor"
)

// KernelISA names the instruction set the matrix kernels and transcendental
// row ops run on in this process: "avx2" (hand-written lane-wise kernels,
// picked when the CPU has AVX2) or "portable" (the pure-Go loops). There is
// nothing to select: the two produce the same bits, and differ several-fold
// in speed.
func KernelISA() string { return tensor.KernelISA() }

// SetBackend is what remains of backend selection: there is one set of
// kernels, so it accepts "", "ref" and "reference", changes nothing and
// returns "reference"; any other name is an error. It exists only because
// the benchmark harness (benchmark/run.go) still calls SetBackend("ref");
// delete both together.
func SetBackend(name string) (prev string, err error) {
	if name != "" && name != "ref" && name != "reference" {
		return "reference", fmt.Errorf("unknown backend %q: the opt backend was removed; ref is the only one", name)
	}
	return "reference", nil
}
