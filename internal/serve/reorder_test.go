package serve

import (
	"testing"

	"torchgt/internal/data"
)

// TestServeReorderedDatasetExternalIDs pins the reorder transparency
// contract at the serving boundary: a server over a cluster-reordered
// dataset, queried with EXTERNAL node IDs, returns bitwise the same
// responses as a server over the identical storage with the translation
// disabled and the storage rows pre-translated by hand. External IDs are
// the request vocabulary; the locality layout is invisible to clients.
func TestServeReorderedDatasetExternalIDs(t *testing.T) {
	base := testDataset(256, 5)
	d, err := data.Apply(&data.Dataset{Node: base}, data.ReorderCluster(4, 99))
	if err != nil {
		t.Fatal(err)
	}
	rd := d.Node
	if rd.Reorder == nil {
		t.Fatal("transform must record the permutation")
	}
	// Identical storage, identity translation: queries address storage rows.
	raw := *rd
	raw.Reorder = nil

	t.Run("sparse", func(t *testing.T) {
		opts := Options{Workers: 1}
		sExt := mustServer(t, testSnapshot(t, rd, 7), rd, opts)
		sInt := mustServer(t, testSnapshot(t, rd, 7), &raw, opts)

		batch := []int32{0, 3, 17, 100, 255, 17}
		rows := make([]int32, len(batch))
		for i, n := range batch {
			rows[i] = rd.Reorder[n]
		}
		ext := sExt.PredictBatch(batch)
		internal := sInt.PredictBatch(rows)
		checkResponses(t, ext)
		for i := range batch {
			if ext[i].Node != batch[i] {
				t.Fatalf("response %d echoes node %d, want the external ID %d", i, ext[i].Node, batch[i])
			}
			if ext[i].Class != internal[i].Class {
				t.Fatalf("external %d: class %d != %d via pre-translated row", batch[i], ext[i].Class, internal[i].Class)
			}
			if !bitsEqual(ext[i].Probs, internal[i].Probs) {
				t.Fatalf("external %d: probs differ from the pre-translated row (not bitwise)", batch[i])
			}
		}
	})
}

// TestServeReorderedRangeCheck pins that request validation happens in the
// external vocabulary: IDs outside [0, N) error before translation.
func TestServeReorderedRangeCheck(t *testing.T) {
	base := testDataset(64, 6)
	d, err := data.Apply(&data.Dataset{Node: base}, data.ReorderCluster(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, testSnapshot(t, d.Node, 7), d.Node, Options{Workers: 1})
	for _, bad := range []int32{-1, 64, 1 << 20} {
		rs := s.PredictBatch([]int32{bad})
		if rs[0].Err == nil {
			t.Fatalf("external ID %d out of range must error", bad)
		}
	}
}
