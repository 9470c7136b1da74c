// torchgt-train trains a graph transformer on a synthetic dataset with one
// of the paper's methods, streaming per-epoch progress. Runs are full
// training sessions: they can be interrupted (SIGINT checkpoints and exits),
// checkpointed periodically, and resumed exactly.
//
// Usage:
//
//	torchgt-train -dataset arxiv-sim -model gph-slim -method torchgt -epochs 20
//	torchgt-train -data "edgelist://edges.csv?labels=labels.csv" -epochs 20
//	torchgt-train -data "synth://products-sim?subsample=2048&selfloops=1"
//	torchgt-train -data file://real.tgds -model gt -method gp-sparse
//	torchgt-train -checkpoint-dir ckpts -checkpoint-every 5 -epochs 100
//	torchgt-train -resume ckpts/epoch-00010.ckpt
//	torchgt-train -seqlen 512 -patience 8
//	torchgt-train -ego -data shard://run/arxiv-shards -seqlen 32
//	torchgt-train -reorder 8 -method torchgt    # cluster-contiguous node layout
//	torchgt-train -seqpar 4 -method torchgt
//	torchgt-train -beta 0.01 -rendezvous :7700 -world 4
//	torchgt-train -beta 0.01 -rendezvous coord:7700 -world 4 -rank 2
//
// -data accepts any dataset spec (see torchgt-data list); the session
// records the spec in checkpoints, so -resume needs no dataset flags at
// all. -seqpar P trains under the simulated sequence-parallel execution
// plan (P ranks resharding sequence↔heads through channel all-to-alls).
// The trajectory is bitwise identical to the serial run, so every other
// feature — events, checkpoints, resume, early stopping — composes with it.
//
// -ego trains on sampled 2-hop ego-graphs of -seqlen nodes (default 32), 32
// targets per optimiser step, with gp-sparse attention (the default method
// under -ego, and the only one it takes). It runs on the same session as
// every other mode — SIGINT checkpoints, -resume and -patience apply — and
// reads through the dataset's node source, so shard:// specs stay
// disk-resident end to end; their block-cache counters print at the end.
//
// -rendezvous runs real cross-process sequence parallelism over TCP: rank 0
// listens on the address, the other ranks dial in, and the world trains one
// model with every rank holding S/P rows of the sequence (resharded to its
// own heads at each attention layer) — bitwise-identical to -seqpar with the
// same world size. Without -rank the command is a launcher: it forks the
// whole world as local processes and propagates their exit codes. With -rank
// it is one worker of a (possibly multi-machine) job. -dp R splits the world
// into R data-parallel replicas (world = R × sequence ranks). The torchgt
// methods need -beta B here: it pins βthre, which the Auto Tuner would
// otherwise move from wall-clock epoch times that differ from rank to rank;
// every flag but the per-rank ones (-rank, -rendezvous, the output paths)
// must agree across ranks. If a peer dies mid-run the survivors roll back to
// the last completed optimiser step, write a checkpoint (with
// -checkpoint-dir) and exit with code 75 — resume at a smaller world with
// -resume + -rendezvous. See DESIGN.md "Cross-process execution".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"torchgt"
	"torchgt/internal/cli"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		var code exitCode
		if errors.As(err, &code) {
			os.Exit(int(code))
		}
		fmt.Fprintln(os.Stderr, "torchgt-train:", err)
		os.Exit(1)
	}
}

// exitCode is returned by run when the process must exit with this status,
// its message already printed: 130 after an interrupt, 75 after a lost peer
// rank, or a launched rank's own code.
type exitCode int

func (c exitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("torchgt-train", flag.ContinueOnError)
	var data cli.Data
	data.Bind(fs)
	modelName := fs.String("model", "gph-slim", "gph-slim | gph-large | gt | nodeformer")
	method := fs.String("method", "torchgt", "gp-raw | gp-flash | gp-sparse | torchgt | torchgt-bf16 | nodeformer")
	epochs := fs.Int("epochs", 20, "training epochs")
	lr := fs.Float64("lr", 2e-3, "learning rate")
	seqLen := fs.Int("seqlen", 0, "mini-batched sequence length (node-level; 0 = full-graph sequence); with -ego, nodes per ego-graph (0 = 32)")
	ego := fs.Bool("ego", false, "train on sampled ego-graphs of -seqlen nodes (gp-sparse); shard:// specs stay disk-resident (out-of-core)")
	beta := fs.Float64("beta", -1, "pin βthre for the torchgt methods instead of running the Auto Tuner (negative = tuner; required with -rendezvous, where wall-clock tuning would diverge across ranks)")
	seqPar := fs.Int("seqpar", 1, "sequence-parallel ranks (simulated; bitwise-identical to serial, heads must divide)")
	patience := fs.Int("patience", 0, "early-stopping patience in epochs (0 = off)")
	ckptDir := fs.String("checkpoint-dir", "", "write periodic checkpoints into this directory (also the SIGINT checkpoint)")
	ckptEvery := fs.Int("checkpoint-every", 10, "checkpoint period in epochs (with -checkpoint-dir)")
	resume := fs.String("resume", "", "resume from a checkpoint file instead of starting fresh")
	rendezvous := fs.String("rendezvous", "", "cross-process training: rendezvous address (rank 0 listens, others dial)")
	world := fs.Int("world", 1, "cross-process world size (with -rendezvous)")
	rank := fs.Int("rank", -1, "this process's rank (with -rendezvous; omit to launch the whole world locally)")
	dpReplicas := fs.Int("dp", 1, "data-parallel replicas: world = dp × sequence-parallel ranks (with -rendezvous)")
	finalWeights := fs.String("final-weights", "", "write final model weights to this file (distributed ranks append .rank<N>)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Only explicitly-given flags override a resumed checkpoint's
	// configuration.
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if *ego && !given["method"] {
		*method = "gp-sparse"
	}
	// Launcher mode: -rendezvous without -rank forks the whole world as
	// local worker processes and waits for them.
	if *rendezvous != "" && *rank < 0 {
		return launchWorld(ctx, args, *world)
	}

	m, err := torchgt.ParseMethod(*method)
	if err != nil {
		return err
	}
	fmt.Printf("kernels: %s\n", torchgt.KernelISA())
	seed := data.Seed // -seed seeds the synthetic preset, the model and the run
	cfgFor := func(in, out int) torchgt.ModelConfig {
		switch *modelName {
		case "gph-large":
			return torchgt.GraphormerLargeScaled(in, out, 4, seed)
		case "gt":
			return torchgt.GT(in, out, seed)
		case "nodeformer":
			return torchgt.NodeFormerLite(in, out, seed)
		default:
			return torchgt.GraphormerSlim(in, out, seed)
		}
	}
	fresh := *resume == ""

	opts := []torchgt.SessionOption{torchgt.WithEventSink(printEvents)}
	addIf := func(cond bool, o torchgt.SessionOption) {
		if cond {
			opts = append(opts, o)
		}
	}
	addIf(fresh || given["epochs"], torchgt.WithEpochs(*epochs))
	addIf(fresh || given["lr"], torchgt.WithLR(*lr))
	addIf(fresh, torchgt.WithSeed(seed))
	// An explicit -patience always applies (0 disables early stopping, also
	// when a resumed checkpoint carried a non-zero patience).
	addIf(given["patience"] || (fresh && *patience > 0), torchgt.WithEarlyStopping(*patience))
	addIf(given["beta"], torchgt.WithFixedBeta(*beta))
	addIf(fresh && *seqLen > 0, torchgt.WithSeqLen(*seqLen))
	// Structural like the seed: a resumed checkpoint keeps its own plan.
	addIf(fresh && *seqPar > 1, torchgt.WithSeqParallel(*seqPar))
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		opts = append(opts, torchgt.WithCheckpointEvery(*ckptEvery, *ckptDir))
	}

	// Worker mode: join the cross-process job before touching any data, so a
	// misconfigured world fails in the rendezvous, not mid-training: peers
	// whose fingerprint differs are rejected at hello time.
	var tr torchgt.Transport
	if *rendezvous != "" {
		if *dpReplicas < 1 || *world%*dpReplicas != 0 {
			return fmt.Errorf("-dp %d does not divide -world %d", *dpReplicas, *world)
		}
		var err error
		tr, err = torchgt.Rendezvous(ctx, *rendezvous, *rank, *world, torchgt.TransportOptions{Fingerprint: fingerprint(fs)})
		if err != nil {
			return fmt.Errorf("rendezvous %s: %w", *rendezvous, err)
		}
		defer tr.Close()
		fmt.Printf("rank %d of %d joined via %s\n", tr.Rank(), *world, *rendezvous)
		opts = append(opts, torchgt.WithTransport(tr))
		if *dpReplicas > 1 {
			opts = append(opts, torchgt.WithDistPlan(*dpReplicas, *world / *dpReplicas))
		}
	}

	// Resuming with no dataset flag given re-opens the spec the checkpoint
	// recorded; otherwise the flags name the dataset.
	if !fresh && !given["data"] && !given["dataset"] && !given["nodes"] {
		sess, err := torchgt.ResumeSessionFromSpec(*resume, opts...)
		if err != nil {
			return fmt.Errorf("%w (pass -data or -dataset to supply the dataset explicitly)", err)
		}
		fmt.Printf("resumed %s at epoch %d (dataset re-opened from the recorded spec)\n", *resume, sess.Epoch())
		return finish(ctx, sess, *ckptDir, *finalWeights, tr)
	}
	task, err := torchgt.TaskFromSpec(data.Resolve())
	if err != nil {
		return err
	}
	// same opened dataset, sampled regime
	if *ego {
		if task, err = task.Ego(); err != nil {
			return err
		}
	} else if *seqLen > 0 && task.Data().Kind() == torchgt.DatasetKindNode {
		if task, err = task.Seq(); err != nil {
			return err
		}
	}

	d := task.Data()
	src := d.Source() // nil for graph-level datasets
	in, out := 0, 0
	if gd := d.Graph; gd != nil {
		in, out = gd.FeatDim, max(gd.NumClasses, 1)
	} else {
		in, out = src.FeatDim(), src.Classes()
	}
	_, disk := torchgt.DatasetIOStatsOf(src)
	if *ego {
		kind := "in-memory"
		if disk {
			kind = "disk-resident"
		}
		fmt.Printf("ego training on %s (%s, %d nodes)\n", src.DatasetName(), kind, src.NumNodes())
	}
	sess, err := openSession(*resume, m, cfgFor(in, out), task, opts)
	if err != nil {
		return err
	}
	if err := finish(ctx, sess, *ckptDir, *finalWeights, tr); err != nil {
		return err
	}
	if mae := sess.EvalMAE(); mae > 0 {
		fmt.Printf("final test MAE: %.4f\n", mae)
	} else {
		res := sess.Result()
		fmt.Printf("final test accuracy: %.2f%%  (preprocess %.3fs, avg epoch %.3fs)\n",
			res.FinalTestAcc*100, res.PreprocessTime.Seconds(), res.AvgEpochTime.Seconds())
	}
	if cb := sess.CommBytes(); cb > 0 {
		fmt.Printf("sequence-parallel collective traffic: %.1f MB\n", float64(cb)/(1<<20))
	}
	if st, _ := torchgt.DatasetIOStatsOf(src); *ego && disk {
		fmt.Printf("shard I/O: %d cache hits, %d misses, %d evictions, %.1f MB read, %.1f/%.1f MB cached\n",
			st.Hits, st.Misses, st.Evictions, float64(st.BytesRead)/(1<<20),
			float64(st.CachedBytes)/(1<<20), float64(st.BudgetBytes)/(1<<20))
	}
	return nil
}

// perRank names the flags that may differ between the ranks of one job:
// where a rank sits and where it reads and writes.
var perRank = map[string]bool{
	"rank": true, "rendezvous": true, "checkpoint-dir": true, "final-weights": true,
}

// fingerprint digests every other flag, set or defaulted, so ranks started
// with a different learning rate, dataset or layout — anything that
// would break the bitwise-equal-to-serial contract or leave one rank waiting
// in a collective — never get past the rendezvous.
func fingerprint(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		if !perRank[f.Name] {
			fmt.Fprintf(&b, "%s=%s ", f.Name, f.Value)
		}
	})
	return b.String()
}

// openSession builds a fresh session or resumes a checkpoint with an
// explicitly supplied task.
func openSession(resume string, m torchgt.Method, cfg torchgt.ModelConfig, task torchgt.TaskSpec, opts []torchgt.SessionOption) (*torchgt.Session, error) {
	if resume != "" {
		s, err := torchgt.ResumeSession(resume, task, opts...)
		if err != nil {
			return nil, err
		}
		fmt.Printf("resumed %s at epoch %d\n", resume, s.Epoch())
		return s, nil
	}
	return torchgt.NewSession(m, cfg, task, opts...)
}

// launchWorld forks the whole world as local worker processes (the same
// command line plus an explicit -rank each) and waits for all of them,
// propagating the first non-zero exit code.
func launchWorld(ctx context.Context, args []string, world int) error {
	if world < 2 {
		return fmt.Errorf("-rendezvous without -rank launches a local world: need -world ≥ 2, have %d", world)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("launching %d local ranks\n", world)
	cmds := make([]*exec.Cmd, world)
	for r := 0; r < world; r++ {
		c := exec.CommandContext(ctx, exe, append(append([]string{}, args...), "-rank", strconv.Itoa(r))...)
		c.Stdout, c.Stderr = os.Stdout, os.Stderr
		if err := c.Start(); err != nil {
			for _, prev := range cmds[:r] {
				prev.Process.Kill()
				prev.Wait()
			}
			return fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds[r] = c
	}
	code := 0
	for r, c := range cmds {
		if err := c.Wait(); err != nil {
			rc := 1
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				rc = ee.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "torchgt-train: rank %d exited with code %d\n", r, rc)
			if code == 0 {
				code = rc
			}
		}
	}
	if code != 0 {
		return exitCode(code)
	}
	return nil
}

// finish drives the session; on SIGINT it checkpoints the partial run (when
// -checkpoint-dir is set) and exits cleanly. A lost peer rank checkpoints the
// survivor's rolled-back state the same way and exits 75 — the job resumes
// from that file at a new world size.
func finish(ctx context.Context, sess *torchgt.Session, ckptDir, finalWeights string, tr torchgt.Transport) error {
	fmt.Println("epoch  loss      test-acc  epoch-time")
	_, err := sess.Run(ctx)
	if err == nil {
		if finalWeights != "" {
			p := finalWeights
			if tr != nil {
				p = fmt.Sprintf("%s.rank%d", p, tr.Rank())
			}
			if err := torchgt.SaveModel(p, sess.Model()); err != nil {
				return err
			}
			fmt.Printf("final weights written to %s\n", p)
		}
		if tr != nil {
			// Peers may still be consuming this rank's final collectives;
			// the barrier guarantees everything was drained before Close.
			tr.Barrier()
		}
		return nil
	}
	if errors.Is(err, torchgt.ErrRankLost) {
		fmt.Fprintf(os.Stderr, "peer rank lost; state rolled back to the last completed step (epoch %d)\n", sess.Epoch())
		if ckptDir == "" {
			fmt.Fprintln(os.Stderr, "no -checkpoint-dir set; progress not saved")
			return exitCode(75)
		}
		path := filepath.Join(ckptDir, "ranklost.ckpt")
		if cerr := sess.Checkpoint(path); cerr != nil {
			return cerr
		}
		fmt.Printf("survivor checkpoint written to %s (resume at a new world size: -resume %s -rendezvous ... -world M)\n", path, path)
		return exitCode(75)
	}
	if !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Printf("\ninterrupted at epoch %d\n", sess.Epoch())
	if ckptDir == "" {
		fmt.Println("no -checkpoint-dir set; progress not saved")
		return exitCode(130)
	}
	path := filepath.Join(ckptDir, "interrupted.ckpt")
	if err := sess.Checkpoint(path); err != nil {
		return err
	}
	fmt.Printf("checkpoint written to %s (resume with -resume %s)\n", path, path)
	return exitCode(130)
}

// printEvents streams session events as they happen.
func printEvents(e torchgt.Event) {
	switch ev := e.(type) {
	case torchgt.EpochEvent:
		p := ev.Point
		fmt.Printf("%5d  %-8.4f  %-7.4f   %s\n", p.Epoch, p.Loss, p.TestAcc, p.EpochTime)
	case torchgt.PhaseEvent:
		mode := "dense"
		if ev.Sparse {
			mode = "sparse"
		}
		fmt.Printf("       [interleave] epoch %d enters a %s phase\n", ev.Epoch, mode)
	case torchgt.BetaEvent:
		fmt.Printf("       [auto-tuner] epoch %d: βthre → %.5f (ladder %d)\n", ev.Epoch, ev.Beta, ev.Index)
	case torchgt.CheckpointEvent:
		if ev.Err != nil {
			fmt.Fprintf(os.Stderr, "       [checkpoint] epoch %d: %v\n", ev.Epoch, ev.Err)
		} else {
			fmt.Printf("       [checkpoint] %s\n", ev.Path)
		}
	case torchgt.EarlyStopEvent:
		fmt.Printf("       [early-stop] epoch %d: no improvement in %d epochs (best %.4f)\n",
			ev.Epoch, ev.Patience, ev.Best)
	}
}
