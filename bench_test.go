package torchgt

// Kernel micro-benchmarks for the compute substrate. The paper's tables and
// figures are regenerated by cmd/torchgt-bench; end-to-end numbers come from
// benchmark/run.sh.

import (
	"math/rand"
	"testing"

	"torchgt/internal/attention"
	"torchgt/internal/dist"
	"torchgt/internal/dist/transport"
	"torchgt/internal/graph"
	"torchgt/internal/partition"
	"torchgt/internal/sparse"
	"torchgt/internal/tensor"
)

func benchQKV(s, d int) (q, k, v *tensor.Mat) {
	rng := rand.New(rand.NewSource(1))
	q, k, v = tensor.New(s, d), tensor.New(s, d), tensor.New(s, d)
	tensor.RandN(q, rng, 0.5)
	tensor.RandN(k, rng, 0.5)
	tensor.RandN(v, rng, 0.5)
	return
}

func BenchmarkAttentionDense1K(b *testing.B) {
	q, k, v := benchQKV(1024, 32)
	kr := attention.NewDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := kr.Forward(q, k, v)
		kr.Backward(o)
	}
}

func BenchmarkAttentionFlash1K(b *testing.B) {
	q, k, v := benchQKV(1024, 32)
	kr := attention.NewFlash(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := kr.Forward(q, k, v)
		kr.Backward(o)
	}
}

func benchPatternAndReformed(s int) (*sparse.Pattern, *sparse.Reformed) {
	rng := rand.New(rand.NewSource(2))
	nb := s / 128
	sizes := make([]int, nb)
	for i := range sizes {
		sizes[i] = s / nb
	}
	g, _ := graph.SBM(graph.SBMConfig{BlockSizes: sizes, AvgDegIn: 12, AvgDegOut: 2}, rng)
	part := partition.Partition(g, 8, 3)
	perm, bounds := partition.ClusterOrder(part, 8)
	g = g.Permute(perm)
	p := sparse.FromGraph(g)
	cl, err := sparse.NewClusterLayout(p, bounds)
	if err != nil {
		panic(err)
	}
	return p, sparse.ReformIndolent(cl, 16)
}

func BenchmarkAttentionSparse4K(b *testing.B) {
	p, _ := benchPatternAndReformed(4096)
	q, k, v := benchQKV(4096, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr := attention.NewSparse(p)
		o := kr.Forward(q, k, v)
		kr.Backward(o)
	}
}

func BenchmarkAttentionClusterSparse4K(b *testing.B) {
	_, r := benchPatternAndReformed(4096)
	q, k, v := benchQKV(4096, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr := attention.NewClusterSparse(r)
		o := kr.Forward(q, k, v)
		kr.Backward(o)
	}
}

func BenchmarkAttentionKernelized4K(b *testing.B) {
	q, k, v := benchQKV(4096, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kr := attention.NewKernelized()
		o := kr.Forward(q, k, v)
		kr.Backward(o)
	}
}

func BenchmarkMatMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.New(512, 512)
	x := tensor.New(512, 512)
	c := tensor.New(512, 512)
	tensor.RandN(a, rng, 1)
	tensor.RandN(x, rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(c, a, x)
	}
}

func BenchmarkPartition8K(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.BarabasiAlbert(8192, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Partition(g, 8, int64(i))
	}
}

func BenchmarkAllToAll(b *testing.B) {
	mesh := transport.NewMem(4)
	groups := make([]*transport.Group, len(mesh))
	for r := range groups {
		groups[r] = transport.WorldGroup(mesh[r])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dist.Run(mesh, func(rank int) {
			parts := make([]*tensor.Mat, 4)
			for d := range parts {
				parts[d] = tensor.New(256, 64)
			}
			if _, err := groups[rank].AllToAll(parts); err != nil {
				panic(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
