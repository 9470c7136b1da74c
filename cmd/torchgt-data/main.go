// torchgt-data is the dataset tool over the same URI-style specs the
// training, serving and bench tools accept. convert is the one command that
// writes a tGDS container: it opens any spec — a synthetic preset, external
// data (edge lists, JSONL), a spec with transforms, a sharded directory —
// and writes what it opened. shard writes a node dataset as an out-of-core
// sharded directory (manifest + per-shard segment files) that opens
// disk-resident through shard:// specs.
//
// Usage:
//
//	torchgt-data list
//	torchgt-data convert -in "synth://arxiv-sim?nodes=4096&seed=1" -o arxiv.tgds
//	torchgt-data convert -in "edgelist://edges.csv?labels=labels.csv" -o real.tgds
//	torchgt-data convert -in "file://real.tgds?resplit=0.7:0.1&seed=3" -o resplit.tgds
//	torchgt-data inspect -data "synth://products-sim?subsample=2048"
//	torchgt-data shard -in file://real.tgds -shards 8 -o real-shards
//	torchgt-data inspect -data shard://real-shards
//	torchgt-data convert -in shard://real-shards -o merged.tgds
//
// convert over a shard:// spec materialises the shards into one container,
// bitwise-identical to the dataset they were written from.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"torchgt"
	"torchgt/internal/data"
	"torchgt/internal/data/shard"
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
  convert   open any dataset spec and write a tGDS container
  inspect   open any dataset spec and print a summary
  shard     write a node dataset as an out-of-core sharded directory
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
	case "convert":
		return runConvert(rest, out)
	case "inspect":
		return runInspect(rest, out)
	case "shard":
		return runShard(rest, out)
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
	fmt.Fprintln(out, "transforms (any in-memory spec):", strings.Join(data.TransformParams(), "  "))
	return nil
}

func runConvert(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input dataset spec (any scheme; shard:// is materialised)")
	outPath := fs.String("o", "", "output tGDS path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("convert: -in and -o are required")
	}
	d, err := torchgt.OpenDataset(*in)
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
	fmt.Fprintf(out, "written to %s (open with -data file://%s)\n", *outPath, *outPath)
	return nil
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
	d, err := torchgt.OpenDataset(*spec)
	if err != nil {
		return err
	}
	if v, ok := d.Stream.(*shard.View); ok {
		defer v.Close()
		describeShards(out, v.Manifest())
		return nil
	}
	describe(out, d)
	return nil
}

// describeShards prints a sharded directory's manifest: header, shard table
// (row ranges, edges, file sizes) and each shard's segment layout — all
// without reading any payload bytes.
func describeShards(out io.Writer, man *torchgt.ShardManifest) {
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
