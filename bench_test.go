package torchgt

// One benchmark per paper table/figure (each regenerates the experiment at
// smoke scale; run `cmd/torchgt-bench -scale full` for the paper-shape
// reports), plus kernel micro-benchmarks for the compute substrate.

import (
	"io"
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

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(id, io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "fig8") }

func BenchmarkFigure9a(b *testing.B)      { benchExperiment(b, "fig9a") }
func BenchmarkFigure9b(b *testing.B)      { benchExperiment(b, "fig9b") }
func BenchmarkFigure10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkPreprocessing(b *testing.B) { benchExperiment(b, "preproc") }
func BenchmarkDistRuntime(b *testing.B)   { benchExperiment(b, "dist") }

func BenchmarkAblationReorder(b *testing.B) { benchExperiment(b, "ablation-reorder") }
func BenchmarkAblationDb(b *testing.B)      { benchExperiment(b, "ablation-db") }

// ---- kernel micro-benchmarks ----

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
