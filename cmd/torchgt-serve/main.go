// torchgt-serve runs the batched inference engine: it obtains a trained
// model (training one quickly, or loading a frozen snapshot), starts the
// dynamic micro-batching server, and either serves HTTP or sweeps a set of
// offered loads and prints a latency/throughput report.
//
// Usage:
//
//	torchgt-serve -dataset arxiv-sim -nodes 2048 -epochs 10            # load sweep
//	torchgt-serve -reorder 8 -epochs 10        # cluster-contiguous layout, external IDs

//	torchgt-serve -data file://real.tgds -epochs 10                   # serve ingested data
//	torchgt-serve -snapshot model.snap -http :8080                    # HTTP serving
//	torchgt-serve -epochs 10 -save-snapshot model.snap -loads 200,800 # train, save, sweep
//	torchgt-serve -epochs 10 -save-snapshot model.snap -train-only    # train, save, exit
//	torchgt-serve -quant int8 -save-snapshot model-int8.snap          # quantized snapshot
//	torchgt-serve -backend opt -quant bf16 -loads 200,800             # quantized serving path
//
// HTTP mode serves the full control plane (a Registry): the model named by
// -model gets the loaded/trained snapshot published as version 1 and swapped
// live. New versions roll out with zero downtime, three ways:
//
//	torchgt-serve -swap :8080 -model arxiv -snapshot v2.snap   # publish v2 + swap to it
//	torchgt-serve -swap :8080 -model arxiv@1                   # roll back to version 1
//	kill -HUP <pid>                                            # re-read -snapshot, publish + swap
//
// -quant int8|bf16 re-encodes the snapshot's weights for compact storage
// (int8: per-output-channel scales; bf16: truncated float32) with a
// documented, test-pinned accuracy bound; replicas dequantize once at
// startup. -backend opt serves with the fast float32 exp/softmax/GELU paths.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"torchgt"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "torchgt-serve:", err)
	os.Exit(1)
}

func main() {
	dataSpec := flag.String("data", "", "node-level dataset spec (synth://, file://, edgelist://); overrides -dataset")
	dataset := flag.String("dataset", "arxiv-sim", "synthetic node-level dataset name")
	nodes := flag.Int("nodes", 2048, "node count (0 = preset size)")
	seed := flag.Int64("seed", 1, "random seed")
	reorderK := flag.Int("reorder", 0, "cluster-reorder the dataset into K partition-contiguous blocks before training/serving; requests keep using external node IDs (0 = off)")
	method := flag.String("method", "torchgt", "training method for the quick train")
	epochs := flag.Int("epochs", 10, "training epochs before serving")
	snapshotPath := flag.String("snapshot", "", "load a frozen snapshot instead of training (SIGHUP re-reads it in -http mode)")
	saveSnapshot := flag.String("save-snapshot", "", "write the frozen snapshot to this path")
	trainOnly := flag.Bool("train-only", false, "obtain + save the snapshot, then exit without serving")
	backend := flag.String("backend", "", "compute backend: ref (bitwise-pinned default) | opt (fast float32 exp/softmax/GELU)")
	quant := flag.String("quant", "", "quantize the snapshot before serving/saving: none | int8 | bf16")

	workers := flag.Int("workers", 0, "replica workers (0 = default)")
	minWorkers := flag.Int("min-workers", 0, "replica-scaling floor (0 = fixed pool at -workers)")
	maxWorkers := flag.Int("max-workers", 0, "replica-scaling ceiling (0 = fixed pool at -workers)")
	batch := flag.Int("batch", 16, "max batch size (flush-on-size trigger)")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "max batching delay (flush-on-deadline trigger)")
	mode := flag.String("mode", "sparse", "attention kernel: sparse | dense | flash | flash-bf16 | cluster-sparse | kernelized")
	hops := flag.Int("hops", 2, "ego-context BFS radius per request")
	ctx := flag.Int("ctx", 32, "max ego-context size per request")
	maxPending := flag.Int("max-pending", 0, "admission bound per model: requests beyond it shed with 429 (0 = default)")
	cacheCap := flag.Int("cache-cap", 0, "shared ego-context cache entries (0 = default)")

	httpAddr := flag.String("http", "", "serve HTTP on this address instead of running the load sweep")
	modelSpec := flag.String("model", "default", "model name, optionally name@version (version used by -swap rollbacks)")
	swapURL := flag.String("swap", "", "client mode: roll out against a running server at this address, then exit")
	loads := flag.String("loads", "200,1000,4000", "comma-separated offered loads (requests/second)")
	dur := flag.Duration("duration", 2*time.Second, "duration per offered load")
	flag.Parse()

	modelName, modelVersion, err := parseModelSpec(*modelSpec)
	if err != nil {
		fail(err)
	}
	if *swapURL != "" {
		if err := runSwapClient(*swapURL, modelName, modelVersion, *snapshotPath); err != nil {
			fail(err)
		}
		return
	}

	m, err := torchgt.ParseServeMode(*mode)
	if err != nil {
		fail(err)
	}
	qm, err := torchgt.ParseQuantMode(*quant)
	if err != nil {
		fail(err)
	}
	if *backend != "" {
		if _, err := torchgt.SetBackend(*backend); err != nil {
			fail(err)
		}
	}
	fmt.Printf("compute backend: %s, kernels: %s\n", torchgt.ActiveBackend().Name(), torchgt.KernelISA())
	var ds *torchgt.NodeDataset // in-memory dataset (nil for shard:// streams)
	var src torchgt.NodeSource  // the access interface every serving path reads through
	spec := withReorder(*dataSpec, *reorderK)
	if spec == "" && *reorderK > 0 {
		// Route the legacy -dataset path through the spec machinery so the
		// reorder transform applies there too.
		s := fmt.Sprintf("synth://%s?seed=%d", *dataset, *seed)
		if *nodes > 0 {
			s = fmt.Sprintf("synth://%s?nodes=%d&seed=%d", *dataset, *nodes, *seed)
		}
		spec = withReorder(s, *reorderK)
	}
	if spec != "" {
		d, err := torchgt.OpenDataset(spec)
		if err != nil {
			fail(err)
		}
		src = d.Source()
		if src == nil {
			fail(fmt.Errorf("-data %s is a graph-level dataset; serving needs a node dataset", spec))
		}
		ds = d.Node // nil for disk-resident shard:// datasets
		if ds == nil {
			fmt.Printf("dataset %s is disk-resident (%d nodes); serving out-of-core\n",
				src.DatasetName(), src.NumNodes())
		}
	} else {
		if ds, err = torchgt.LoadNodeDataset(*dataset, *nodes, *seed); err != nil {
			fail(err)
		}
		src = (&torchgt.Dataset{Node: ds}).Source()
	}

	var snap *torchgt.Snapshot
	if *snapshotPath != "" {
		if snap, err = torchgt.LoadSnapshot(*snapshotPath); err != nil {
			fail(err)
		}
		desc := ""
		if q := snap.Quant(); q != torchgt.QuantNone {
			desc = fmt.Sprintf(", %s-quantized", q)
		}
		fmt.Printf("loaded snapshot %s (%s, %d params%s)\n", *snapshotPath, snap.Config().Name, snap.NumParams(), desc)
	} else {
		if ds == nil {
			fail(fmt.Errorf("-data %s is disk-resident; the quick train needs the arrays in memory — pass -snapshot, or materialize once with torchgt-data merge", spec))
		}
		tm, err := torchgt.ParseMethod(*method)
		if err != nil {
			fail(err)
		}
		cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, *seed)
		fmt.Printf("training %s on %s (%d nodes) for %d epochs...\n", cfg.Name, ds.Name, ds.G.N, *epochs)
		var res *torchgt.Result
		res, snap, err = torchgt.TrainNodeSnapshot(tm, cfg, ds, torchgt.TrainOptions{
			Epochs: *epochs, LR: 2e-3, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("trained: final test accuracy %.2f%%\n", res.FinalTestAcc*100)
	}
	if qm != torchgt.QuantNone && snap.Quant() != qm {
		if snap, err = torchgt.QuantizeSnapshot(snap, qm); err != nil {
			fail(err)
		}
		fmt.Printf("snapshot quantized to %s\n", snap.Quant())
	}
	if *saveSnapshot != "" {
		if err := torchgt.SaveSnapshot(*saveSnapshot, snap); err != nil {
			fail(err)
		}
		fmt.Printf("snapshot written to %s\n", *saveSnapshot)
	}
	if *trainOnly {
		if *saveSnapshot == "" {
			fail(fmt.Errorf("-train-only needs -save-snapshot"))
		}
		return
	}

	opts := torchgt.ServeOptions{
		Workers: *workers, MinWorkers: *minWorkers, MaxWorkers: *maxWorkers,
		MaxBatch: *batch, MaxDelay: *deadline,
		Mode: m, CtxHops: *hops, CtxSize: *ctx, CacheCap: *cacheCap,
	}

	if *httpAddr != "" {
		serveHTTP(*httpAddr, modelName, *snapshotPath, src, snap, opts, *maxPending, *cacheCap)
		return
	}

	srv, err := torchgt.NewServerSource(snap, src, opts)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	o := srv.Options()
	fmt.Printf("server: %d workers, batch≤%d, deadline %s, %s kernel, ctx %d nodes\n",
		o.Workers, o.MaxBatch, o.MaxDelay, o.Mode, o.CtxSize)

	rates, err := parseLoads(*loads)
	if err != nil {
		fail(err)
	}
	targets := make([]int32, 256)
	for i := range targets {
		targets[i] = int32((i * 31) % src.NumNodes())
	}
	warm := min(o.MaxBatch, len(targets))
	srv.PredictBatch(targets[:warm]) // warm up pools before measuring

	fmt.Printf("\n%-12s  %-12s  %-10s  %-10s  %-9s  %s\n",
		"offered r/s", "achieved r/s", "p50 ms", "p99 ms", "avg batch", "errors")
	for _, r := range rates {
		lp := torchgt.RunServeLoad(srv, targets, r, *dur)
		fmt.Printf("%-12.0f  %-12.1f  %-10.3f  %-10.3f  %-9.1f  %d\n",
			lp.OfferedRPS, lp.AchievedRPS,
			float64(lp.P50.Microseconds())/1000, float64(lp.P99.Microseconds())/1000,
			lp.AvgBatch, lp.Errors)
	}
	st := srv.Stats()
	fmt.Printf("\ntotals: %d requests, %d batches (%.1f avg), %d full / %d deadline flushes\n",
		st.Requests, st.Batches, st.AvgBatchSize, st.FlushFull, st.FlushDeadline)
	if io, ok := srv.SourceIOStats(); ok {
		fmt.Printf("shard I/O: %d cache hits, %d misses, %d evictions, %.1f MB read\n",
			io.Hits, io.Misses, io.Evictions, float64(io.BytesRead)/(1<<20))
	}
}

// parseModelSpec splits "name" or "name@version".
func parseModelSpec(s string) (string, int, error) {
	name, ver, found := strings.Cut(s, "@")
	if name == "" {
		return "", 0, fmt.Errorf("empty model name in -model %q", s)
	}
	if !found {
		return name, 0, nil
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v < 0 {
		return "", 0, fmt.Errorf("bad version in -model %q (want name@N)", s)
	}
	return name, v, nil
}

// runSwapClient rolls a running server forward (or back) and exits: with a
// snapshot path it publishes the snapshot as a new version and swaps to it;
// without one it swaps to the version named in -model (0 = latest).
func runSwapClient(addr, model string, version int, snapshotPath string) error {
	base := addr
	if strings.HasPrefix(base, ":") {
		base = "localhost" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 60 * time.Second}
	if snapshotPath != "" {
		blob, err := os.ReadFile(snapshotPath)
		if err != nil {
			return err
		}
		var pub struct {
			Version int `json:"version"`
		}
		if err := postJSON(client, base+"/publish?model="+model, bytes.NewReader(blob), &pub); err != nil {
			return fmt.Errorf("publish %s: %w", snapshotPath, err)
		}
		fmt.Printf("published %s as %s version %d\n", snapshotPath, model, pub.Version)
		version = pub.Version
	}
	var sw struct {
		Generation uint64 `json:"generation"`
	}
	if err := postJSON(client, fmt.Sprintf("%s/swap?model=%s&version=%d", base, model, version), nil, &sw); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	fmt.Printf("swapped %s to version %d: generation %d\n", model, version, sw.Generation)
	return nil
}

func postJSON(client *http.Client, url string, body io.Reader, out any) error {
	resp, err := client.Post(url, "application/octet-stream", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// serveHTTP runs the registry control plane until SIGINT/SIGTERM: the
// snapshot is published as version 1 of the named model and swapped live, and
// /publish + /swap stay open for zero-downtime rollouts. SIGHUP re-reads the
// -snapshot path (when one was given), publishes it as the next version and
// swaps to it — the classic config-reload signal, applied to weights.
// Shutdown drains in-flight HTTP requests via http.Server.Shutdown, then
// closes the registry (draining every model's replica pool).
func serveHTTP(addr, model, snapshotPath string, src torchgt.NodeSource, snap *torchgt.Snapshot, opts torchgt.ServeOptions, maxPending, cacheCap int) {
	reg := torchgt.NewServeRegistry(cacheCap)
	if err := reg.RegisterSource(model, src, torchgt.ServeModelOptions{Serve: opts, MaxPending: maxPending}); err != nil {
		fail(err)
	}
	ver, err := reg.Publish(model, snap)
	if err != nil {
		fail(err)
	}
	gen, err := reg.Swap(model, ver)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model %s: version %d live (generation %d)\n", model, ver, gen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	hs := &http.Server{Addr: addr, Handler: reg.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("listening on %s (/predict, /publish, /swap, /models, /stats, /healthz, /metrics); SIGHUP reloads, SIGINT drains and exits\n", addr)

	for {
		select {
		case err := <-errCh:
			fail(err)
		case <-hup:
			if snapshotPath == "" {
				fmt.Fprintln(os.Stderr, "torchgt-serve: SIGHUP ignored: no -snapshot path to reload")
				continue
			}
			if err := reloadSnapshot(reg, model, snapshotPath); err != nil {
				fmt.Fprintln(os.Stderr, "torchgt-serve: reload:", err)
			}
			continue
		case <-ctx.Done():
		}
		break
	}
	fmt.Println("\nshutting down: draining in-flight requests...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "torchgt-serve: shutdown:", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "torchgt-serve:", err)
	}
	st := reg.Stats()
	reg.Close() // drains every model's replica pool
	for _, ms := range st.Models {
		fmt.Printf("drained %s: generation %d, %d admitted, %d shed, %d engine requests\n",
			ms.Name, ms.Generation, ms.Admitted, ms.Shed, ms.Engine.Requests)
	}
}

// reloadSnapshot is the SIGHUP path: re-read the snapshot file, publish it as
// the next version and swap traffic to it.
func reloadSnapshot(reg *torchgt.ServeRegistry, model, path string) error {
	snap, err := torchgt.LoadSnapshot(path)
	if err != nil {
		return err
	}
	ver, err := reg.Publish(model, snap)
	if err != nil {
		return err
	}
	gen, err := reg.Swap(model, ver)
	if err != nil {
		return err
	}
	fmt.Printf("reloaded %s: version %d live (generation %d)\n", path, ver, gen)
	return nil
}

// withReorder appends the cluster-reorder transform parameters to a dataset
// spec (passes through unchanged when spec is empty or k ≤ 0).
func withReorder(spec string, k int) string {
	if spec == "" || k <= 0 {
		return spec
	}
	sep := "?"
	if strings.Contains(spec, "?") {
		sep = "&"
	}
	return fmt.Sprintf("%s%sreorder=cluster&reorderk=%d", spec, sep, k)
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad load %q (want positive req/s)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no loads given")
	}
	return out, nil
}
