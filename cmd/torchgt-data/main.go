// torchgt-data is the dataset tool: it generates synthetic presets,
// converts external data (edge lists, JSONL) into the universal tGDS
// container, inspects any dataset spec, and re-splits datasets — all over
// the same URI-style specs the training, serving and bench tools accept.
//
// Usage:
//
//	torchgt-data list
//	torchgt-data gen -dataset arxiv-sim -nodes 4096 -seed 1 -o arxiv.tgds
//	torchgt-data convert -in "edgelist://edges.csv?labels=labels.csv" -o real.tgds
//	torchgt-data inspect -data "synth://products-sim?subsample=2048"
//	torchgt-data inspect -data file://real.tgds
//	torchgt-data split -in file://real.tgds -train 0.7 -val 0.1 -seed 3 -o resplit.tgds
//	torchgt-data shard -in file://real.tgds -shards 8 -o real-shards
//	torchgt-data inspect -data shard://real-shards
//	torchgt-data merge -in shard://real-shards -o merged.tgds
//
// shard writes a dataset as an out-of-core sharded directory (manifest +
// per-shard segment files) that opens disk-resident through shard:// specs;
// merge materialises a sharded directory back into one monolithic tGDS
// container, bitwise-identical to the dataset the shards were written from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"torchgt"
	"torchgt/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "torchgt-data:", err)
		os.Exit(1)
	}
}

const usage = `usage: torchgt-data <command> [flags]

commands:
  list      list providers, presets and the spec grammar
  gen       generate a synthetic preset and write a tGDS container
  convert   open any dataset spec and write a tGDS container
  inspect   open any dataset spec and print a summary
  split     re-draw a dataset's train/val/test split and write a tGDS container
  shard     write a node dataset as an out-of-core sharded directory
  merge     materialise a sharded directory back into one tGDS container
`

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		fmt.Fprint(out, usage)
		return nil
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list", "-list", "--list":
		return runList(out)
	case "gen":
		return runGen(rest, out)
	case "convert":
		return runConvert(rest, out)
	case "inspect":
		return runInspect(rest, out)
	case "split":
		return runSplit(rest, out)
	case "shard":
		return runShard(rest, out)
	case "merge":
		return runMerge(rest, out)
	case "help", "-h", "--help":
		fmt.Fprint(out, usage)
		return nil
	}
	return fmt.Errorf("unknown command %q\n%s", cmd, usage)
}

func runList(out io.Writer) error {
	fmt.Fprintln(out, "providers:")
	for _, s := range torchgt.DatasetSchemes() {
		fmt.Fprintf(out, "  %s://\n", s)
	}
	fmt.Fprintln(out, "synthetic node-level presets (synth://<name>?nodes=N&seed=S):")
	for _, n := range torchgt.NodeDatasetNames() {
		fmt.Fprintln(out, "  ", n)
	}
	fmt.Fprintln(out, "synthetic graph-level presets (synth://<name>?seed=S):")
	for _, n := range torchgt.GraphDatasetNames() {
		fmt.Fprintln(out, "  ", n)
	}
	fmt.Fprintln(out, "transforms (any spec): subsample=N  selfloops=1  permute=1  resplit=TRAIN:VAL")
	return nil
}

func runGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	dataset := fs.String("dataset", "", "synthetic preset name (see list)")
	nodes := fs.Int("nodes", 0, "node count override for node-level presets (0 = preset size)")
	seed := fs.Int64("seed", 1, "generation seed")
	outPath := fs.String("o", "", "output tGDS path (omit to print a summary only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataset == "" {
		return fmt.Errorf("gen: -dataset is required (see torchgt-data list)")
	}
	return openAndWrite(cli.SynthSpec(*dataset, *nodes, *seed), *outPath, out)
}

func runConvert(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input dataset spec (edgelist://, jsonl://, synth://, file://)")
	outPath := fs.String("o", "", "output tGDS path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("convert: -in and -o are required")
	}
	return openAndWrite(*in, *outPath, out)
}

func runInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	spec := fs.String("data", "", "dataset spec to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" {
		return fmt.Errorf("inspect: -data is required")
	}
	sp, err := torchgt.ParseDatasetSpec(*spec)
	if err != nil {
		return err
	}
	if sp.Scheme == "shard" {
		return inspectShards(out, sp.Name)
	}
	d, err := torchgt.OpenDataset(*spec)
	if err != nil {
		return err
	}
	describe(out, d)
	return nil
}

// inspectShards prints a sharded directory's manifest: header, shard table
// (row ranges, edges, file sizes) and each shard's segment layout — all
// without reading any payload bytes.
func inspectShards(out io.Writer, dir string) error {
	man, err := torchgt.LoadShardManifest(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sharded dataset %s (manifest v1): %d nodes, %d edges, %d classes, feat dim %d\n",
		man.Name, man.NumNodes, man.NumEdges, man.Classes, man.FeatDim)
	fmt.Fprintf(out, "%d shards", len(man.Shards))
	if man.HasBlocks {
		fmt.Fprint(out, ", planted communities")
	}
	if man.HasReorder {
		fmt.Fprint(out, ", reorder map (external IDs differ from storage rows)")
	}
	fmt.Fprintln(out)
	for i, s := range man.Shards {
		fmt.Fprintf(out, "shard %04d: rows [%d, %d), %d edges, %d bytes\n",
			i, s.RowStart, s.RowStart+s.RowCount, s.EdgeCount, s.FileSize)
		for _, g := range s.Segments {
			fmt.Fprintf(out, "  %-8s offset %8d  %10d bytes\n", g.KindName(), g.Offset, g.Length)
		}
	}
	return nil
}

func runShard(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shard", flag.ContinueOnError)
	in := fs.String("in", "", "input dataset spec (must be node-level)")
	shards := fs.Int("shards", 4, "shard count (boundaries balance edge counts)")
	outDir := fs.String("o", "", "output directory for the shards + manifest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outDir == "" {
		return fmt.Errorf("shard: -in and -o are required")
	}
	d, err := torchgt.OpenDataset(*in)
	if err != nil {
		return err
	}
	if d, err = d.Materialize(); err != nil {
		return err
	}
	if d.Node == nil {
		return fmt.Errorf("shard: %s is a graph-level dataset; sharding applies to node datasets", *in)
	}
	man, err := torchgt.ShardNodeDataset(*outDir, d.Node, *shards)
	if err != nil {
		return err
	}
	describe(out, d)
	fmt.Fprintf(out, "written %d shards to %s (open with -data shard://%s)\n", len(man.Shards), *outDir, *outDir)
	return nil
}

func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	in := fs.String("in", "", "input sharded directory (or shard:// spec)")
	outPath := fs.String("o", "", "output tGDS path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("merge: -in and -o are required")
	}
	spec := *in
	if !strings.Contains(spec, "://") {
		spec = "shard://" + spec
	}
	d, err := torchgt.OpenDataset(spec)
	if err != nil {
		return err
	}
	if d, err = d.Materialize(); err != nil {
		return err
	}
	if err := torchgt.SaveDataset(*outPath, d); err != nil {
		return err
	}
	describe(out, d)
	fmt.Fprintf(out, "merged to %s (open with -data file://%s)\n", *outPath, *outPath)
	return nil
}

func runSplit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("split", flag.ContinueOnError)
	in := fs.String("in", "", "input dataset spec")
	trainFrac := fs.Float64("train", 0.6, "train fraction")
	valFrac := fs.Float64("val", 0.2, "validation fraction")
	seed := fs.Int64("seed", 1, "split seed")
	outPath := fs.String("o", "", "output tGDS path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("split: -in and -o are required")
	}
	d, err := torchgt.OpenDataset(*in)
	if err != nil {
		return err
	}
	d, err = torchgt.ApplyTransforms(d, torchgt.TransformResplit(*trainFrac, *valFrac, *seed))
	if err != nil {
		return err
	}
	if err := torchgt.SaveDataset(*outPath, d); err != nil {
		return err
	}
	describe(out, d)
	fmt.Fprintf(out, "written to %s\n", *outPath)
	return nil
}

// openAndWrite opens a spec, prints its summary and optionally writes the
// tGDS container.
func openAndWrite(spec, outPath string, out io.Writer) error {
	d, err := torchgt.OpenDataset(spec)
	if err != nil {
		return err
	}
	describe(out, d)
	if outPath == "" {
		return nil
	}
	if err := torchgt.SaveDataset(outPath, d); err != nil {
		return err
	}
	fmt.Fprintf(out, "written to %s (open with -data file://%s)\n", outPath, outPath)
	return nil
}

// describe prints the summary block for either dataset kind.
func describe(out io.Writer, d *torchgt.Dataset) {
	if gd := d.Graph; gd != nil {
		var nodesTot, edgesTot int
		for _, g := range gd.Graphs {
			nodesTot += g.N
			edgesTot += g.NumEdges()
		}
		fmt.Fprintf(out, "dataset %s: %d graphs, task %s, %d classes, feat dim %d\n",
			gd.Name, len(gd.Graphs), gd.Task, gd.NumClasses, gd.FeatDim)
		fmt.Fprintf(out, "avg nodes %.1f, avg edges %.1f\n",
			float64(nodesTot)/float64(len(gd.Graphs)), float64(edgesTot)/float64(len(gd.Graphs)))
		fmt.Fprintf(out, "splits: train %d / val %d / test %d\n",
			len(gd.TrainIdx), len(gd.ValIdx), len(gd.TestIdx))
		return
	}
	if d.Node == nil {
		// Disk-resident stream: summarise through the access interface
		// without materialising (split counts would read every row).
		src := d.Source()
		fmt.Fprintf(out, "dataset %s (disk-resident): %d nodes, %d edges, %d classes, feat dim %d\n",
			src.DatasetName(), src.NumNodes(), src.NumEdges(), src.Classes(), src.FeatDim())
		return
	}
	ds := d.Node
	g := ds.G
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges, %d classes, feat dim %d\n",
		ds.Name, g.N, g.NumEdges(), ds.NumClasses, ds.X.Cols)
	fmt.Fprintf(out, "sparsity β_G = %.6f, avg degree %.2f, max degree %d, connected: %v\n",
		g.Sparsity(), g.AvgDegree(), g.MaxDegree(), g.IsConnected())
	train, val, test := 0, 0, 0
	for i := range ds.Y {
		switch {
		case ds.TrainMask[i]:
			train++
		case ds.ValMask[i]:
			val++
		case ds.TestMask[i]:
			test++
		}
	}
	fmt.Fprintf(out, "splits: train %d / val %d / test %d\n", train, val, test)
}
