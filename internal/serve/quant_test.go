package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"torchgt/internal/nn"
)

func TestParseQuant(t *testing.T) {
	cases := []struct {
		in   string
		want Quant
		ok   bool
	}{
		{"", QuantNone, true},
		{"none", QuantNone, true},
		{"f32", QuantNone, true},
		{"int8", QuantInt8, true},
		{"bf16", QuantBF16, true},
		{"int4", QuantNone, false},
		{"INT8", QuantNone, false},
	}
	for _, tc := range cases {
		got, err := ParseQuant(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseQuant(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, name := range QuantNames() {
		if _, err := ParseQuant(name); err != nil {
			t.Fatalf("QuantNames entry %q does not parse: %v", name, err)
		}
	}
}

// quantParams materializes the original and quantized snapshots and returns
// their parameter lists, positionally matched.
func quantParams(t *testing.T, q Quant) (orig, quant []*nn.Param) {
	t.Helper()
	ds := testDataset(64, 41)
	snap := testSnapshot(t, ds, 42)
	qs, err := snap.Quantize(q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Quant() != q {
		t.Fatalf("Quant() = %v, want %v", qs.Quant(), q)
	}
	m0, err := snap.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	m1, err := qs.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return m0.Params(), m1.Params()
}

// TestInt8QuantErrorBound asserts the documented int8 bound: for every
// weight matrix, |ŵ − w| ≤ maxabs_col/254 per element (scale_c = maxabs_c/127,
// round-to-nearest); row vectors (biases, norms) pass through bitwise.
func TestInt8QuantErrorBound(t *testing.T) {
	orig, quant := quantParams(t, QuantInt8)
	matrices := 0
	for i, p0 := range orig {
		p1 := quant[i]
		if p0.W.Rows == 1 {
			if !bitsEqual(p0.W.Data, p1.W.Data) {
				t.Fatalf("%s: row vector not preserved bitwise", p0.Name)
			}
			continue
		}
		matrices++
		for c := 0; c < p0.W.Cols; c++ {
			var maxAbs float64
			for r := 0; r < p0.W.Rows; r++ {
				if a := math.Abs(float64(p0.W.At(r, c))); a > maxAbs {
					maxAbs = a
				}
			}
			bound := maxAbs/254 + 1e-9 // half a quantization step, plus float slack
			for r := 0; r < p0.W.Rows; r++ {
				diff := math.Abs(float64(p0.W.At(r, c)) - float64(p1.W.At(r, c)))
				if diff > bound {
					t.Fatalf("%s[%d,%d]: |dequant-orig| = %g exceeds bound %g", p0.Name, r, c, diff, bound)
				}
			}
		}
	}
	if matrices == 0 {
		t.Fatal("no weight matrices were quantized")
	}
}

// TestBF16QuantErrorBound asserts the documented bf16 bound: relative error
// ≤ 2⁻⁸ per weight (all parameters, including row vectors).
func TestBF16QuantErrorBound(t *testing.T) {
	orig, quant := quantParams(t, QuantBF16)
	const relBound = 1.0 / 256
	for i, p0 := range orig {
		p1 := quant[i]
		for j, w := range p0.W.Data {
			if w == 0 {
				if p1.W.Data[j] != 0 {
					t.Fatalf("%s[%d]: zero not preserved", p0.Name, j)
				}
				continue
			}
			rel := math.Abs(float64(p1.W.Data[j])-float64(w)) / math.Abs(float64(w))
			if rel > relBound {
				t.Fatalf("%s[%d]: rel error %g exceeds %g", p0.Name, j, rel, relBound)
			}
		}
	}
}

func TestQuantizeGuards(t *testing.T) {
	ds := testDataset(64, 41)
	snap := testSnapshot(t, ds, 42)
	if same, err := snap.Quantize(QuantNone); err != nil || same != snap {
		t.Fatalf("Quantize(None) = %v, %v; want receiver, nil", same, err)
	}
	q8, err := snap.Quantize(QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q8.Quantize(QuantBF16); err == nil {
		t.Fatal("re-quantizing a quantized snapshot must fail")
	}
}

// TestQuantSnapshotSaveLoadRoundTrip checks that a quantized snapshot
// survives the file format: same weights bitwise after save/load, quant mode
// preserved, and the int8 file meaningfully smaller than float32.
func TestQuantSnapshotSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(64, 41)
	snap := testSnapshot(t, ds, 42)
	f32Path := filepath.Join(dir, "f32.snap")
	if err := snap.Save(f32Path); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quant{QuantInt8, QuantBF16} {
		qs, err := snap.Quantize(q)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, q.String()+".snap")
		if err := qs.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Quant() != q {
			t.Fatalf("loaded quant = %v, want %v", loaded.Quant(), q)
		}
		if loaded.NumParams() != snap.NumParams() {
			t.Fatalf("numParams %d != %d", loaded.NumParams(), snap.NumParams())
		}
		m0, err := qs.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		m1, err := loaded.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		ps0, ps1 := m0.Params(), m1.Params()
		for i := range ps0 {
			if !bitsEqual(ps0[i].W.Data, ps1[i].W.Data) {
				t.Fatalf("%s: %s weights changed across save/load", q, ps0[i].Name)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		f32Info, err := os.Stat(f32Path)
		if err != nil {
			t.Fatal(err)
		}
		maxFrac := 0.62 // bf16: half the weight bytes plus framing
		if q == QuantInt8 {
			maxFrac = 0.40 // int8: a quarter of the matrix bytes plus scales
		}
		if frac := float64(fi.Size()) / float64(f32Info.Size()); frac > maxFrac {
			t.Fatalf("%s snapshot is %.2f of the f32 size, want ≤ %.2f", q, frac, maxFrac)
		}
	}
}

// TestSnapshotRejectsVersion1 hand-writes a version-1 snapshot file (bare
// config header, float32 checkpoint blob) and checks it is refused with a
// descriptive error.
func TestSnapshotRejectsVersion1(t *testing.T) {
	ds := testDataset(64, 41)
	snap := testSnapshot(t, ds, 42)
	hdr, err := json.Marshal(snap.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	for _, v := range []uint32{snapshotMagic, 1, uint32(len(hdr))} {
		if err := binary.Write(&v1, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	v1.Write(hdr)
	v1.Write(snap.blob)
	_, err = ReadSnapshot(&v1)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("version-1 snapshot must be refused by version, got %v", err)
	}
}

// TestQuantizedServingAccuracy pins the end-to-end serving bound on the synth
// preset (documented in DESIGN.md): against the float32 server, the int8
// replica's class probabilities deviate by at most 0.05 with ≥ 95% argmax
// agreement, bf16 by at most 0.02 with ≥ 98% agreement. (Measured: int8
// ≤ 0.008 / 127 of 128; bf16 ≤ 0.003 / 128 of 128.)
func TestQuantizedServingAccuracy(t *testing.T) {
	ds := testDataset(128, 41)
	snap := testSnapshot(t, ds, 42)
	s0 := mustServer(t, snap, ds, Options{Workers: 1, MaxBatch: 32})
	nodes := make([]int32, ds.G.N)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	r0 := s0.PredictBatch(nodes)
	checkResponses(t, r0)
	cases := []struct {
		q        Quant
		maxDev   float64
		minAgree int
	}{
		{QuantInt8, 0.05, 122}, // ≥ 95% of 128
		{QuantBF16, 0.02, 126}, // ≥ 98% of 128
	}
	for _, tc := range cases {
		qs, err := snap.Quantize(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		s1 := mustServer(t, qs, ds, Options{Workers: 1, MaxBatch: 32})
		r1 := s1.PredictBatch(nodes)
		checkResponses(t, r1)
		agree := 0
		for i := range r0 {
			am0, am1 := 0, 0
			for c := range r0[i].Probs {
				d := math.Abs(float64(r0[i].Probs[c]) - float64(r1[i].Probs[c]))
				if d > tc.maxDev {
					t.Fatalf("%s: node %d class %d prob deviation %.4f > %.2f", tc.q, i, c, d, tc.maxDev)
				}
				if r0[i].Probs[c] > r0[i].Probs[am0] {
					am0 = c
				}
				if r1[i].Probs[c] > r1[i].Probs[am1] {
					am1 = c
				}
			}
			if am0 == am1 {
				agree++
			}
		}
		if agree < tc.minAgree {
			t.Fatalf("%s: argmax agreement %d/%d below %d", tc.q, agree, len(nodes), tc.minAgree)
		}
	}
}
