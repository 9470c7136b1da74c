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
//	torchgt-serve -quant bf16 -loads 200,800                          # quantized serving path
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
// startup.
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
	"torchgt/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "torchgt-serve:", err)
		os.Exit(1)
	}
}

// run is the whole command: ctx ends -http serving (and cancels the quick
// train), everything the tool reports goes to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("torchgt-serve", flag.ContinueOnError)
	var data cli.Data
	data.Register(fs)
	method := fs.String("method", "torchgt", "training method for the quick train")
	epochs := fs.Int("epochs", 10, "training epochs before serving")
	snapshotPath := fs.String("snapshot", "", "load a frozen snapshot instead of training (SIGHUP re-reads it in -http mode)")
	saveSnapshot := fs.String("save-snapshot", "", "write the frozen snapshot to this path")
	trainOnly := fs.Bool("train-only", false, "obtain + save the snapshot, then exit without serving")
	quant := fs.String("quant", "", "quantize the snapshot before serving/saving: none | int8 | bf16")

	workers := fs.Int("workers", 0, "replica workers (0 = default)")
	minWorkers := fs.Int("min-workers", 0, "replica-scaling floor (0 = fixed pool at -workers)")
	maxWorkers := fs.Int("max-workers", 0, "replica-scaling ceiling (0 = fixed pool at -workers)")
	batch := fs.Int("batch", 16, "max batch size (flush-on-size trigger)")
	deadline := fs.Duration("deadline", 2*time.Millisecond, "longest a request waits for company while a forward is running (flush-on-deadline trigger; an idle engine flushes at once)")
	mode := fs.String("mode", "sparse", "attention kernel: sparse | dense | flash | flash-bf16 | cluster-sparse | kernelized")
	hops := fs.Int("hops", 2, "ego-context BFS radius per request")
	ctxSize := fs.Int("ctx", 32, "max ego-context size per request")
	maxPending := fs.Int("max-pending", 0, "admission bound per model: requests beyond it shed with 429 (0 = default)")
	cacheCap := fs.Int("cache-cap", 0, "shared ego-context cache entries (0 = default)")

	httpAddr := fs.String("http", "", "serve HTTP on this address instead of running the load sweep")
	modelSpec := fs.String("model", "default", "model name, optionally name@version (version used by -swap rollbacks)")
	swapURL := fs.String("swap", "", "client mode: roll out against a running server at this address, then exit")
	loads := fs.String("loads", "200,1000,4000", "comma-separated offered loads (requests/second)")
	dur := fs.Duration("duration", 2*time.Second, "duration per offered load")
	if err := fs.Parse(args); err != nil {
		return err
	}

	modelName, modelVersion, err := parseModelSpec(*modelSpec)
	if err != nil {
		return err
	}
	if *swapURL != "" {
		return runSwapClient(stdout, *swapURL, modelName, modelVersion, *snapshotPath)
	}
	if *trainOnly && *saveSnapshot == "" {
		return fmt.Errorf("-train-only needs -save-snapshot")
	}

	m, err := torchgt.ParseServeMode(*mode)
	if err != nil {
		return err
	}
	qm, err := torchgt.ParseQuantMode(*quant)
	if err != nil {
		return err
	}
	rates, err := parseLoads(*loads)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "kernels: %s\n", torchgt.KernelISA())
	spec := data.Resolve()
	d, err := torchgt.OpenDataset(spec)
	if err != nil {
		return err
	}
	src := d.Source() // the access interface every serving path reads through
	if src == nil {
		return fmt.Errorf("%s is a graph-level dataset; serving needs a node dataset", spec)
	}
	ds := d.Node // nil for disk-resident shard:// datasets
	if ds == nil {
		fmt.Fprintf(stdout, "dataset %s is disk-resident (%d nodes); serving out-of-core\n",
			src.DatasetName(), src.NumNodes())
	}

	var snap *torchgt.Snapshot
	if *snapshotPath != "" {
		if snap, err = torchgt.LoadSnapshot(*snapshotPath); err != nil {
			return err
		}
		desc := ""
		if q := snap.Quant(); q != torchgt.QuantNone {
			desc = fmt.Sprintf(", %s-quantized", q)
		}
		fmt.Fprintf(stdout, "loaded snapshot %s (%s, %d params%s)\n", *snapshotPath, snap.Config().Name, snap.NumParams(), desc)
	} else {
		if ds == nil {
			return fmt.Errorf("%s is disk-resident; the quick train needs the arrays in memory — pass -snapshot, or materialize once with torchgt-data merge", spec)
		}
		tm, err := torchgt.ParseMethod(*method)
		if err != nil {
			return err
		}
		cfg := torchgt.GraphormerSlim(ds.X.Cols, ds.NumClasses, data.Seed)
		fmt.Fprintf(stdout, "training %s on %s (%d nodes) for %d epochs...\n", cfg.Name, ds.Name, ds.G.N, *epochs)
		sess, err := torchgt.NewSession(tm, cfg, torchgt.NodeTask(ds),
			torchgt.WithEpochs(*epochs), torchgt.WithLR(2e-3), torchgt.WithSeed(data.Seed))
		if err != nil {
			return err
		}
		res, err := sess.Run(ctx)
		if err != nil {
			return err
		}
		if snap, err = torchgt.Freeze(sess.Model()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trained: final test accuracy %.2f%%\n", res.FinalTestAcc*100)
	}
	if qm != torchgt.QuantNone && snap.Quant() != qm {
		if snap, err = torchgt.QuantizeSnapshot(snap, qm); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot quantized to %s\n", snap.Quant())
	}
	if *saveSnapshot != "" {
		if err := torchgt.SaveSnapshot(*saveSnapshot, snap); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *saveSnapshot)
	}
	if *trainOnly {
		return nil
	}

	opts := torchgt.ServeOptions{
		Workers: *workers, MinWorkers: *minWorkers, MaxWorkers: *maxWorkers,
		MaxBatch: *batch, MaxDelay: *deadline,
		Mode: m, CtxHops: *hops, CtxSize: *ctxSize, CacheCap: *cacheCap,
	}

	if *httpAddr != "" {
		return serveHTTP(ctx, stdout, *httpAddr, modelName, *snapshotPath, src, snap, opts, *maxPending, *cacheCap)
	}

	srv, err := torchgt.NewServerSource(snap, src, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	o := srv.Options()
	fmt.Fprintf(stdout, "server: %d workers, batch≤%d, deadline %s, %s kernel, ctx %d nodes\n",
		o.Workers, o.MaxBatch, o.MaxDelay, o.Mode, o.CtxSize)

	targets := make([]int32, 256)
	for i := range targets {
		targets[i] = int32((i * 31) % src.NumNodes())
	}
	warm := min(o.MaxBatch, len(targets))
	srv.PredictBatch(targets[:warm]) // warm up pools before measuring

	fmt.Fprintf(stdout, "\n%-12s  %-12s  %-10s  %-10s  %-9s  %s\n",
		"offered r/s", "achieved r/s", "p50 ms", "p99 ms", "avg batch", "errors")
	for _, r := range rates {
		lp := torchgt.RunServeLoad(srv, targets, r, *dur)
		fmt.Fprintf(stdout, "%-12.0f  %-12.1f  %-10.3f  %-10.3f  %-9.1f  %d\n",
			lp.OfferedRPS, lp.AchievedRPS,
			float64(lp.P50.Microseconds())/1000, float64(lp.P99.Microseconds())/1000,
			lp.AvgBatch, lp.Errors)
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "\ntotals: %d requests, %d batches (%.1f avg), %d full / %d deadline / %d idle flushes\n",
		st.Requests, st.Batches, st.AvgBatchSize, st.FlushFull, st.FlushDeadline, st.FlushIdle)
	if io, ok := srv.SourceIOStats(); ok {
		fmt.Fprintf(stdout, "shard I/O: %d cache hits, %d misses, %d evictions, %.1f MB read\n",
			io.Hits, io.Misses, io.Evictions, float64(io.BytesRead)/(1<<20))
	}
	return nil
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
func runSwapClient(stdout io.Writer, addr, model string, version int, snapshotPath string) error {
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
		fmt.Fprintf(stdout, "published %s as %s version %d\n", snapshotPath, model, pub.Version)
		version = pub.Version
	}
	var sw struct {
		Generation uint64 `json:"generation"`
	}
	if err := postJSON(client, fmt.Sprintf("%s/swap?model=%s&version=%d", base, model, version), nil, &sw); err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	fmt.Fprintf(stdout, "swapped %s to version %d: generation %d\n", model, version, sw.Generation)
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

// serveHTTP runs the registry control plane until ctx ends (SIGINT/SIGTERM):
// the snapshot is published as version 1 of the named model and swapped live,
// and /publish + /swap stay open for zero-downtime rollouts. SIGHUP re-reads
// the -snapshot path (when one was given), publishes it as the next version
// and swaps to it — the classic config-reload signal, applied to weights.
// Shutdown drains in-flight HTTP requests via http.Server.Shutdown, then
// closes the registry (draining every model's replica pool).
func serveHTTP(ctx context.Context, stdout io.Writer, addr, model, snapshotPath string, src torchgt.NodeSource, snap *torchgt.Snapshot, opts torchgt.ServeOptions, maxPending, cacheCap int) error {
	reg := torchgt.NewServeRegistry(cacheCap)
	defer reg.Close() // drains every model's replica pool
	if err := reg.RegisterSource(model, src, torchgt.ServeModelOptions{Serve: opts, MaxPending: maxPending}); err != nil {
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
	fmt.Fprintf(stdout, "model %s: version %d live (generation %d)\n", model, ver, gen)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	hs := &http.Server{Addr: addr, Handler: reg.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(stdout, "listening on %s (/predict, /publish, /swap, /models, /stats, /healthz, /metrics); SIGHUP reloads, SIGINT drains and exits\n", addr)

	for serving := true; serving; {
		select {
		case err := <-errCh:
			return err
		case <-hup:
			if snapshotPath == "" {
				fmt.Fprintln(os.Stderr, "torchgt-serve: SIGHUP ignored: no -snapshot path to reload")
			} else if err := reloadSnapshot(stdout, reg, model, snapshotPath); err != nil {
				fmt.Fprintln(os.Stderr, "torchgt-serve: reload:", err)
			}
		case <-ctx.Done():
			serving = false
		}
	}
	fmt.Fprintln(stdout, "\nshutting down: draining in-flight requests...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "torchgt-serve: shutdown:", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "torchgt-serve:", err)
	}
	st := reg.Stats()
	reg.Close() // before reporting: the counts below are final
	for _, ms := range st.Models {
		fmt.Fprintf(stdout, "drained %s: generation %d, %d admitted, %d shed, %d engine requests\n",
			ms.Name, ms.Generation, ms.Admitted, ms.Shed, ms.Engine.Requests)
	}
	return nil
}

// reloadSnapshot is the SIGHUP path: re-read the snapshot file, publish it as
// the next version and swap traffic to it.
func reloadSnapshot(stdout io.Writer, reg *torchgt.ServeRegistry, model, path string) error {
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
	fmt.Fprintf(stdout, "reloaded %s: version %d live (generation %d)\n", path, ver, gen)
	return nil
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
