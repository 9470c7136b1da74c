package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"torchgt/internal/model"
	"torchgt/internal/nn"
)

// snapshotBytes encodes a snapshot stream with the given header and blob, so
// tests can pair a real blob with a header it does not match.
func snapshotBytes(t testing.TB, cfg model.Config, quant string, blob []byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(snapshotHeader{Config: cfg, Quant: quant})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range []uint32{snapshotMagic, snapshotVersion, uint32(len(hdr))} {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	buf.Write(hdr)
	buf.Write(blob)
	return buf.Bytes()
}

// tinySnapshot freezes a one-layer, 2-wide model without degree tables: a
// real snapshot of under a kilobyte, small enough for the fuzzer to mutate
// and minimise quickly.
func tinySnapshot(t testing.TB) *Snapshot {
	t.Helper()
	cfg := model.GraphormerSlim(1, 2, 5)
	cfg.Layers, cfg.Hidden, cfg.Heads, cfg.FFNHidden, cfg.NumBuckets = 1, 2, 1, 2, 2
	cfg.UseDegreeEnc = false
	snap, err := Freeze(model.NewGraphTransformer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotRejectsBadHeader: a header configuration the constructor cannot
// build, or one promising more parameters than its blob holds, is a 400 at
// /publish and an error from ReadSnapshot — never a panic, never an
// allocation sized by the header.
func TestSnapshotRejectsBadHeader(t *testing.T) {
	ds := testDataset(64, 31)
	snap := testSnapshot(t, ds, 32)
	if _, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, snap.cfg, "none", snap.blob))); err != nil {
		t.Fatalf("the unmodified header must load: %v", err)
	}
	r := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}})
	h := r.Handler()
	// The negative width comes first: a decoder without the check panics on
	// it before reaching the cases it would try to allocate.
	for _, tc := range []struct {
		name   string
		mutate func(*model.Config)
	}{
		{"negative hidden", func(c *model.Config) { c.Hidden = -4 }},
		{"zero layers", func(c *model.Config) { c.Layers = 0 }},
		{"zero in dim", func(c *model.Config) { c.InDim = 0 }},
		{"negative out dim", func(c *model.Config) { c.OutDim = -1 }},
		{"zero heads", func(c *model.Config) { c.Heads = 0 }},
		{"heads not dividing", func(c *model.Config) { c.Heads = 3 }},
		{"negative ffn", func(c *model.Config) { c.FFNHidden = -1 }},
		{"negative buckets", func(c *model.Config) { c.NumBuckets = -1 }},
		{"negative lap dim", func(c *model.Config) { c.LapDim = -1 }},
		{"hidden beyond blob", func(c *model.Config) { c.Hidden = 1 << 40 }},
		{"layers beyond blob", func(c *model.Config) { c.Layers = 1 << 30 }},
		{"in dim beyond blob", func(c *model.Config) { c.InDim = 1 << 20 }},
		{"lap table beyond blob", func(c *model.Config) { c.UseLapPE, c.LapDim = true, 1<<30 }},
	} {
		cfg := snap.cfg
		tc.mutate(&cfg)
		raw := snapshotBytes(t, cfg, "none", snap.blob)
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: ReadSnapshot accepted %+v", tc.name, cfg)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish?model=m", bytes.NewReader(raw)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: /publish answered %d, want 400", tc.name, rec.Code)
		}
	}
}

// TestParamCountMatchesModel pins the header check's shape arithmetic to the
// constructor: paramCount is nn.NumParams of the built model on every preset
// and on the optional parts they leave off.
func TestParamCountMatchesModel(t *testing.T) {
	cfgs := []model.Config{
		model.GraphormerSlim(12, 4, 1),
		model.GraphormerLargeScaled(12, 4, 8, 1),
		model.GTConfig(12, 4, 1),
		model.NodeFormerLite(12, 4, 1),
	}
	odd := model.GraphormerSlim(7, 5, 1)
	odd.FFNHidden, odd.NumBuckets, odd.GlobalToken = 0, 0, true
	odd.UseLapPE, odd.LapDim = true, 6
	cfgs = append(cfgs, odd)
	for _, cfg := range cfgs {
		if got, want := paramCount(cfg), nn.NumParams(model.NewGraphTransformer(cfg)); got != float64(want) {
			t.Errorf("%s %+v: paramCount %.0f, nn.NumParams %d", cfg.Name, cfg, got, want)
		}
	}
}

// FuzzReadSnapshot: any byte stream either fails to decode or decodes to a
// snapshot whose parameters its blob could hold.
func FuzzReadSnapshot(f *testing.F) {
	snap := tinySnapshot(f)
	f.Add(snapshotBytes(f, snap.cfg, "none", snap.blob))
	q8, err := snap.Quantize(QuantInt8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshotBytes(f, q8.cfg, "int8", q8.blob))
	bad := snap.cfg
	bad.Hidden = -4
	f.Add(snapshotBytes(f, bad, "none", snap.blob))
	f.Add([]byte("not a snapshot"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if s.NumParams() > len(raw) {
			t.Fatalf("%d-byte stream decoded to %d parameters", len(raw), s.NumParams())
		}
	})
}
