package nn

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l1 := NewLinear("a", 4, 3, true, rng)
	l2 := NewLinear("b", 3, 2, false, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, CollectParams(l1, l2)); err != nil {
		t.Fatal(err)
	}
	// fresh modules with different init
	rng2 := rand.New(rand.NewSource(99))
	m1 := NewLinear("a", 4, 3, true, rng2)
	m2 := NewLinear("b", 3, 2, false, rng2)
	if m1.W.W.Equal(l1.W.W, 1e-9) {
		t.Fatal("test setup: inits should differ")
	}
	if err := LoadParams(&buf, CollectParams(m1, m2)); err != nil {
		t.Fatal(err)
	}
	if !m1.W.W.Equal(l1.W.W, 0) || !m2.W.W.Equal(l2.W.W, 0) || !m1.B.W.Equal(l1.B.W, 0) {
		t.Fatal("round trip lost data")
	}
}

func TestLoadParamsRejectsMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("a", 4, 3, false, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	// wrong count
	other := NewLinear("a", 4, 3, true, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("param count mismatch must error")
	}
	// wrong shape
	shaped := NewLinear("a", 4, 5, false, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), shaped.Params()); err == nil {
		t.Fatal("shape mismatch must error")
	}
	// wrong name
	named := NewLinear("z", 4, 3, false, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), named.Params()); err == nil {
		t.Fatal("name mismatch must error")
	}
	// garbage input
	if err := LoadParams(bytes.NewReader([]byte("not a checkpoint")), l.Params()); err == nil {
		t.Fatal("garbage must error")
	}
}

// TestWriteFileAtomicKeepsOldFileOnError: a write that fails part-way leaves
// the previous file whole and no temporary sibling.
func TestWriteFileAtomicKeepsOldFileOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w *bufio.Writer) error {
		w.WriteString("a partly written new file")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic returned %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("after a failed write the file holds %q (%v), want %q", got, err, "old")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a failed write left %s.tmp behind (%v)", path, err)
	}
}
