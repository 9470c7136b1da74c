// Datasets: the spec-based data API end to end — generate a
// synthetic preset from a spec, save it as a universal tGDS container,
// ingest an external CSV edge list, stack declarative transforms, and
// train through a Session built straight from a spec string (which records
// the spec into checkpoints, so a resume needs no dataset code at all).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"torchgt"
)

func main() {
	dir, err := os.MkdirTemp("", "torchgt-datasets")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A spec names a dataset: provider scheme + name + params + seed.
	//    Same spec ⇒ bitwise-same dataset, every time.
	d, err := torchgt.OpenDataset("synth://arxiv-sim?nodes=1024&seed=1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened %s: %d nodes, %d edges, %d classes\n",
		d.Name(), d.Node.G.N, d.Node.G.NumEdges(), d.Node.NumClasses)

	// 2. Any dataset — either kind — round-trips through one container.
	tgds := filepath.Join(dir, "arxiv.tgds")
	if err := torchgt.SaveDataset(tgds, d); err != nil {
		log.Fatal(err)
	}
	back, err := torchgt.OpenDataset("file://" + tgds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tGDS round trip: %d nodes back from %s\n", back.Node.G.N, filepath.Base(tgds))

	// 3. External data streams in line by line (no whole-file slurp): a CSV
	//    edge list with a labels file becomes a trainable node dataset.
	csv := filepath.Join(dir, "edges.csv")
	labels := filepath.Join(dir, "labels.csv")
	writeFixture(csv, labels)
	spec := fmt.Sprintf("edgelist://%s?labels=%s&featdim=16&seed=7", csv, labels)
	ingested, err := torchgt.OpenDataset(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %s: %d nodes, %d edges, %d classes\n",
		ingested.Name(), ingested.Node.G.N, ingested.Node.G.NumEdges(), ingested.Node.NumClasses)

	// 4. Transforms ride declaratively on the spec, applied in a fixed
	//    order: subsample → selfloops → permute → resplit.
	shaped, err := torchgt.OpenDataset("synth://products-sim?nodes=2048&subsample=512&selfloops=1&resplit=0.7:0.1&seed=3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformed products-sim: %d nodes, self-loop on node 0: %v\n",
		shaped.Node.G.N, shaped.Node.G.HasEdge(0, 0))

	// 5. A Session built from a spec task records the spec in checkpoints:
	//    ResumeSessionFromSpec re-opens the data by itself.
	task, err := torchgt.TaskFromSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	nd := task.Data().Node
	cfg := torchgt.GraphormerSlim(nd.X.Cols, nd.NumClasses, 7)
	sess, err := torchgt.NewSession(torchgt.MethodGPSparse, cfg, task, torchgt.WithEpochs(4))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	ckpt := filepath.Join(dir, "run.ckpt")
	if err := sess.Checkpoint(ckpt); err != nil {
		log.Fatal(err)
	}
	resumed, err := torchgt.ResumeSessionFromSpec(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d epochs on the ingested data; checkpoint resumes at epoch %d with no dataset argument\n",
		sess.Epoch(), resumed.Epoch())
	fmt.Printf("recorded spec: %s\n", task.DataSpec())
}

// writeFixture emits a two-community ring graph as CSV edge + label files.
func writeFixture(csv, labels string) {
	const half = 100
	var eb, lb []byte
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			eb = fmt.Appendf(eb, "%d,%d\n%d,%d\n", base+i, base+(i+1)%half, base+i, base+(i+9)%half)
			lb = fmt.Appendf(lb, "%d,%d\n", base+i, c)
		}
	}
	for i := 0; i < 8; i++ {
		eb = fmt.Appendf(eb, "%d,%d\n", i*11, half+i*11)
	}
	if err := os.WriteFile(csv, eb, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(labels, lb, 0o644); err != nil {
		log.Fatal(err)
	}
}
