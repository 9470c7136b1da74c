package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"torchgt/internal/model"
	"torchgt/internal/nn"
)

// snapshotBytes encodes a snapshot stream with the given header and blob, so
// tests can pair a real blob with a header it does not match; encoding is the
// header's "quant" field.
func snapshotBytes(t testing.TB, cfg model.Config, encoding string, blob []byte) []byte {
	t.Helper()
	hdr, err := json.Marshal(snapshotHeader{Config: cfg, Encoding: encoding})
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
// /publish and a header error from ReadSnapshot — never a panic, never an
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
		// Twice the real parameter count: fewer parameters than blob bytes,
		// more than the blob's float32s.
		{"params beyond blob/4", func(c *model.Config) { c.InDim += int(paramCount(*c)) / c.Hidden }},
	} {
		cfg := snap.cfg
		tc.mutate(&cfg)
		raw := snapshotBytes(t, cfg, "none", snap.blob)
		if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "corrupt snapshot header") {
			t.Errorf("%s: ReadSnapshot of %+v: %v, want a header error", tc.name, cfg, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish?model=m", bytes.NewReader(raw)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: /publish answered %d, want 400", tc.name, rec.Code)
		}
	}
}

// TestSnapshotQuantHeader: a version-2 header naming the float32 encoding
// ("none", as earlier builds wrote it) loads and serves exactly what the
// frozen model serves; one naming a quantized encoding is refused with a
// request to freeze the model again, at ReadSnapshot and at /publish.
func TestSnapshotQuantHeader(t *testing.T) {
	ds := testDataset(64, 33)
	snap := testSnapshot(t, ds, 34)
	loaded, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, snap.cfg, "none", snap.blob)))
	if err != nil {
		t.Fatalf(`"quant":"none" must load: %v`, err)
	}
	nodes := []int32{0, 7, 21, 63}
	want := mustServer(t, snap, ds, Options{Workers: 1}).PredictBatch(nodes)
	got := mustServer(t, loaded, ds, Options{Workers: 1}).PredictBatch(nodes)
	for i := range nodes {
		if got[i].Err != nil || !bitsEqual(got[i].Probs, want[i].Probs) {
			t.Fatalf("node %d: loaded snapshot serves %v (err %v), frozen model %v", nodes[i], got[i].Probs, got[i].Err, want[i].Probs)
		}
	}
	raw := snapshotBytes(t, snap.cfg, "int8", snap.blob)
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), `"int8"`) || !strings.Contains(err.Error(), "freeze the model again") {
		t.Fatalf(`"quant":"int8" must be refused with a re-freeze message, got %v`, err)
	}
	rec := httptest.NewRecorder()
	h := testRegistry(t, ds, ModelOptions{Serve: Options{Workers: 1}}).Handler()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/publish?model=m", bytes.NewReader(raw)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf(`/publish of an "int8" snapshot answered %d, want 400`, rec.Code)
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
	f.Add(snapshotBytes(f, snap.cfg, "int8", snap.blob))
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
