package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; the package test keeps the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload trains and
// then serves, so every workload reports every one of them, from the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},            // median set-up: dataset, shards, partition+reform, rendezvous, snapshot, registry, warm pass
	{"train_s", "s", "lower"},            // sum of the timed epochs
	{"final_loss", "nats", "lower"},      // training loss of the last epoch
	{"peak_rss_mb", "MiB", "lower"},      // ru_maxrss of the run
	{"predict_p50_ms", "ms", "lower"},    // open loop, from the due time, quieter half of the windows
	{"predict_p95_ms", "ms", "lower"},    // open loop, from the due time, quieter half of the windows
	{"predict_sat_rps", "1/s", "higher"}, // closed loop, completed requests per second
}

// perLayer is the traced run's output; the module name is the prefix. A
// metric of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"train.epochs_timed", "count", "higher"},
	{"train.epoch_sparse_s", "s", "lower"}, // median timed cluster-sparse (or ego) epoch
	{"train.epoch_dense_s", "s", "lower"},  // median timed dense-flash epoch
	{"train.step_s", "s", "lower"},         // median Task.Step (full-graph) or epoch time per optimiser step (ego)
	{"train.opt_gap_s", "s", "lower"},      // Step return → next Task call: gradient sync + optimiser + reset
	{"train.epoch_point_s", "s", "lower"},
	{"train.allocs_per_epoch", "count", "lower"},
	{"train.alloc_mb_per_epoch", "MiB", "lower"},
	{"train.unattributed_share", "ratio", "lower"}, // 1 − Σ probes ÷ measured step

	{"model.fwd_sparse_s", "s", "lower"},
	{"model.bwd_sparse_s", "s", "lower"},
	{"model.fwd_dense_s", "s", "lower"},
	{"model.bwd_dense_s", "s", "lower"},
	{"model.fwd_ego_s", "s", "lower"},
	{"model.bwd_ego_s", "s", "lower"},
	{"model.pairs_per_epoch", "count", "lower"},

	{"attention.clustersparse_step_s", "s", "lower"},
	{"attention.flash_step_s", "s", "lower"},
	{"attention.sparse_step_s", "s", "lower"},
	{"attention.pairs", "count", "lower"},

	{"tensor.matmul_gflops", "GFLOP/s", "higher"},
	{"tensor.pool_hit_ratio", "ratio", "higher"},
	{"tensor.pool_gets_per_step", "count", "lower"},

	{"nn.adam_step_s", "s", "lower"},
	{"nn.loss_s", "s", "lower"},
	{"nn.params", "count", "lower"},

	{"partition.partition_s", "s", "lower"},
	{"sparse.pattern_s", "s", "lower"},
	{"sparse.reform_s", "s", "lower"},
	{"sparse.keep_nnz", "count", "lower"},
	{"sparse.pattern_ego_s", "s", "lower"},
	{"encoding.degree_s", "s", "lower"},

	{"sample.contexts", "count", "lower"},
	{"sample.sample_s", "s", "lower"},
	{"sample.each_wait_s", "s", "lower"},
	{"sample.ctx_nodes_mean", "count", "lower"},

	{"data.open_s", "s", "lower"},
	{"shard.calls", "count", "lower"},
	{"shard.busy_s", "s", "lower"},
	{"shard.block_hit_ratio", "ratio", "higher"},
	{"shard.block_misses", "count", "lower"},
	{"shard.bytes_read", "MiB", "lower"},
	{"shard.serve_block_hit_ratio", "ratio", "higher"},
	{"shard.serve_bytes_read", "MiB", "lower"},

	{"dist.bytes_per_epoch", "MiB", "lower"},
	{"dist.sends_per_epoch", "count", "lower"},
	{"dist.send_busy_s", "s", "lower"},    // per epoch, rank 0
	{"dist.recv_wait_s", "s", "lower"},    // per epoch, rank 0
	{"dist.barrier_wait_s", "s", "lower"}, // per epoch, rank 0
	{"dist.alltoall_s", "s", "lower"},
	{"dist.allreduce_s", "s", "lower"},
	{"dist.rendezvous_s", "s", "lower"},
	{"dist.scaling_eff", "ratio", "higher"}, // serial train_s ÷ (ranks × this train_s)

	{"serve.requests", "count", "higher"},
	{"serve.batches", "count", "lower"},
	{"serve.avg_batch", "count", "higher"},
	{"serve.flush_full", "count", "higher"},
	{"serve.flush_deadline", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.batch1_forward_s", "s", "lower"},
	{"serve.batch16_forward_s", "s", "lower"},
	{"serve.handler_overhead_s", "s", "lower"},
	{"serve.gen_lateness_p99_ms", "ms", "lower"},
	{"serve.over_50ms", "count", "lower"},
	{"serve.p99_ms", "ms", "lower"}, // open loop; one scheduler stall sets it, so it is not an end-to-end metric

	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.num_gc", "count", "lower"},
	{"proc.heap_inuse_mb", "MiB", "lower"},
	{"proc.keep_awake", "count", "higher"}, // spinning children that held the CPUs out of HLT while serving was timed
	// The traced run's own end-to-end numbers: set against the untraced
	// run's train_s and predict_p50_ms they are the tracing overhead.
	{"trace.train_s", "s", "lower"},
	{"trace.predict_p50_ms", "ms", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newMetrics returns a metric set holding every name in defs at 0, and a
// setter that refuses names outside it.
func newMetrics(defs []metricDef) (map[string]metricValue, func(string, float64)) {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m, func(name string, v float64) {
		mv, ok := m[name]
		if !ok {
			panic("benchmark: metric " + name + " is not declared in metrics.go")
		}
		mv.Value = v
		m[name] = mv
	}
}
