package torchgt

import (
	"context"
	"fmt"

	"torchgt/internal/dist/transport"
	"torchgt/internal/model"
	"torchgt/internal/train"
)

// Cross-process training. A Transport connects the ranks of one training
// job; attach one to a Session with WithTransport (and optionally
// WithDistPlan for hybrid data-parallel × sequence-parallel layouts) and
// every rank trains the same model on its own rows of the token sequence,
// resharding to its own attention heads at each attention layer. The
// trajectory is pinned bitwise-equal to a serial or in-process
// sequence-parallel session at every world size — see DESIGN.md "Cross-process execution".
type (
	// Transport is point-to-point communication among the ranks of one
	// job. Obtain one from Rendezvous (TCP, real processes) or MemCluster
	// (in-process, testing).
	Transport = transport.Transport
	// TransportOptions tunes the TCP transport's rendezvous and IO
	// behaviour (timeouts, retry backoff, job fingerprint).
	TransportOptions = transport.Options
)

// ErrRankLost is the typed error surfaced when a peer rank disappears
// mid-job (connection drop, process kill). Run returns it from the
// interrupted step with the training state rolled back to the last
// completed optimiser step, so survivors can Checkpoint and the job can
// resume at a new world size. Match with errors.Is.
var ErrRankLost = transport.ErrRankLost

// Rendezvous joins this process to a distributed training job over TCP.
// Rank 0 coordinates: it listens on addr while every other rank dials in;
// ranks and the world configuration are agreed before step 0 (pass rank -1
// to have the coordinator assign one). Set TransportOptions.Fingerprint to
// a digest of the job configuration — peers whose fingerprint differs are
// rejected before training starts. Close the returned transport when done.
func Rendezvous(ctx context.Context, addr string, rank, world int, o TransportOptions) (Transport, error) {
	return transport.Join(ctx, addr, rank, world, o)
}

// MemCluster builds an in-process world of connected transports, one per
// rank — the same collectives as TCP without sockets. Run each rank's
// session in its own goroutine; payloads move by pointer, so it is the
// cheap way to test distributed layouts (and the engine behind the
// simulated in-process communicator).
func MemCluster(world int) []Transport {
	mesh := transport.NewMem(world)
	ts := make([]Transport, len(mesh))
	for i, m := range mesh {
		ts[i] = m
	}
	return ts
}

// WithTransport attaches a distributed transport to the session: this
// process becomes one rank of a cross-process training job, running the
// transport's whole world as one sequence-parallel group (use WithDistPlan
// to split it into data-parallel replicas). Requires WithFixedBeta for
// TorchGT methods — the Auto Tuner adapts βthre from wall-clock epoch
// times, which would diverge across ranks — and is mutually exclusive with
// WithSeqParallel. The session does not close the transport; the caller
// owns its lifecycle.
func WithTransport(t Transport) SessionOption {
	return func(s *sessionSettings) { s.transport = t }
}

// WithDistPlan lays the transport's world out as replicas data-parallel
// replicas, each a seqRanks-wide sequence-parallel group (world =
// replicas × seqRanks; global rank g sits in replica g/seqRanks). Each
// optimiser step ends with the fixed-order cross-replica gradient mean, so
// replicas stay bitwise identical. Requires WithTransport.
func WithDistPlan(replicas, seqRanks int) SessionOption {
	return func(s *sessionSettings) {
		s.distReplicas, s.distSeqRanks, s.distSet = replicas, seqRanks, true
	}
}

// applyDist attaches the distributed execution plan to a freshly built (or
// resumed) loop — the shared wiring behind NewSession and ResumeSession.
func applyDist(st *sessionSettings, loop *train.Loop) error {
	if st.transport == nil && !st.distSet {
		return nil
	}
	if st.transport == nil {
		return fmt.Errorf("torchgt: WithDistPlan requires WithTransport")
	}
	if loop.Task.Kind() == train.TaskEgo {
		return fmt.Errorf("torchgt: ego-sampled training has no cross-process plan (WithTransport)")
	}
	t := st.transport
	replicas, seqRanks := st.distReplicas, st.distSeqRanks
	if !st.distSet {
		replicas, seqRanks = 1, t.World()
	}
	if replicas < 1 || seqRanks < 1 || replicas*seqRanks != t.World() {
		return fmt.Errorf("torchgt: WithDistPlan(%d, %d) needs a world of %d ranks, transport has %d",
			replicas, seqRanks, replicas*seqRanks, t.World())
	}
	cfg := loop.Cfg
	if cfg.SeqParallel > 1 {
		return fmt.Errorf("torchgt: WithSeqParallel and WithTransport are mutually exclusive — the distributed plan replaces the in-process one")
	}
	if (cfg.Method == MethodTorchGT || cfg.Method == MethodTorchGTBF16) && cfg.FixedBeta < 0 {
		return fmt.Errorf("torchgt: distributed TorchGT training requires WithFixedBeta — the Auto Tuner adapts βthre from wall-clock epoch times, which would diverge across ranks")
	}
	m := loop.Model()
	if m.Cfg.GlobalToken && seqRanks > 1 {
		return fmt.Errorf("torchgt: sequence-parallel ranks shard the full-sequence node form only — graph-level tasks (global readout token, packed batches) cannot run under WithTransport with %d sequence-parallel ranks; use WithDistPlan(world, 1) for pure data parallelism", seqRanks)
	}
	if m.Cfg.Heads%seqRanks != 0 {
		return fmt.Errorf("torchgt: model has %d attention heads, not divisible by %d sequence-parallel ranks (WithDistPlan)",
			m.Cfg.Heads, seqRanks)
	}
	plan, err := model.NewDistSeqParallel(t, replicas, model.ExecOptions{PoolEnabled: true})
	if err != nil {
		return err
	}
	m.SetPlan(plan)
	return nil
}
