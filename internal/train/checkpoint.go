package train

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"torchgt/internal/model"
	"torchgt/internal/nn"
	"torchgt/internal/tensor"
)

// Training checkpoint file format (versioned like serve.Snapshot):
//
//	magic uint32 | version uint32 | metaLen uint32 | meta JSON |
//	paramsLen uint64 | params blob (nn checkpoint encoding) |
//	momentsFlag uint8 | [per param: m float32s, v float32s]
//
// The JSON meta carries everything needed for a bitwise resume besides the
// float32 tensors: task kind, the full training and model configurations,
// the schedule position (epoch/step/global step), the Adam time step, the
// RNG stream positions (task shuffle source + every dropout layer), the
// Auto Tuner state, the early-stopping state and the convergence curve so
// far. Float64 values survive the JSON round trip exactly (Go marshals the
// shortest representation that parses back to the same bits).
//
// Mid-epoch checkpoints (taken after a cancelled Run) additionally record
// the task RNG position at the start of the epoch plus the epoch
// accumulators; Resume seeks the RNG to the epoch start, replays BeginEpoch
// (re-drawing the identical shuffle) and restores the accumulators, leaving
// every stream exactly where the uninterrupted run had it.
const (
	checkpointMagic   = 0x74474350 // "tGCP"
	checkpointVersion = 2
	maxMetaBytes      = 1 << 24
)

type checkpointMeta struct {
	Task        string       `json:"task"`
	TrainConfig Config       `json:"train_config"`
	ModelConfig model.Config `json:"model_config"`

	Epoch       int     `json:"epoch"`
	StepInEpoch int     `json:"step_in_epoch"`
	EpochBegun  bool    `json:"epoch_begun"`
	GlobalStep  int     `json:"global_step"`
	AdamT       int     `json:"adam_t"`
	Curve       []Point `json:"curve"`
	Preprocess  int64   `json:"preprocess_ns"`

	RNGDraws      uint64   `json:"rng_draws"`
	RNGEpochStart uint64   `json:"rng_epoch_start"`
	DropoutDraws  []uint64 `json:"dropout_draws"`

	Tuner *TunerState `json:"tuner,omitempty"`

	Best     float64 `json:"early_stop_best"`
	BestSet  bool    `json:"early_stop_best_set"`
	Bad      int     `json:"early_stop_bad"`
	Stopped  bool    `json:"early_stopped"`
	Finished bool    `json:"finished"`
	// FinalTestAcc/BestTestAcc preserve the completed run's clean final
	// evaluation (meaningful only when Finished).
	FinalTestAcc float64 `json:"final_test_acc,omitempty"`
	BestTestAcc  float64 `json:"best_test_acc,omitempty"`

	EpLoss  float64 `json:"ep_loss"`
	EpTerms int     `json:"ep_terms"`
	EpPairs int64   `json:"ep_pairs"`
}

// Checkpoint writes the Loop's full training state to path. The file is
// written atomically (temp file + rename) so a crash mid-write never leaves
// a truncated checkpoint behind under the final name.
func (l *Loop) Checkpoint(path string) error {
	meta := checkpointMeta{
		Task:        l.Task.Kind(),
		TrainConfig: l.Cfg,
		ModelConfig: l.model.Cfg,
		Epoch:       l.epoch,
		StepInEpoch: l.stepInEpoch,
		EpochBegun:  l.epochBegun,
		GlobalStep:  l.globalStep,
		AdamT:       l.opt.StepCount(),
		Curve:       l.curve,
		Preprocess:  int64(l.preprocess),
		Best:        l.best,
		BestSet:     l.bestSet,
		Bad:         l.bad,
		Stopped:     l.stopped,
		Finished:    l.finished,
	}
	if l.final != nil {
		meta.FinalTestAcc = l.final.FinalTestAcc
		meta.BestTestAcc = l.final.BestTestAcc
	}
	if src := l.Task.runRNG(); src != nil {
		meta.RNGDraws = src.Draws()
		meta.RNGEpochStart = l.epochStartDraws
	}
	for _, d := range l.model.Dropouts() {
		meta.DropoutDraws = append(meta.DropoutDraws, d.RNGDraws())
	}
	if nt, ok := l.Task.(*NodeTrainer); ok && nt.tuner != nil {
		st := nt.tuner.State()
		meta.Tuner = &st
	}
	b := l.Task.base()
	meta.EpLoss, meta.EpTerms, meta.EpPairs = b.epLoss, b.epTerms, b.epPairs

	hdr, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("train: checkpoint meta: %w", err)
	}
	var params bytes.Buffer
	if err := nn.SaveParams(&params, l.params); err != nil {
		return fmt.Errorf("train: checkpoint params: %w", err)
	}

	return nn.WriteFileAtomic(path, func(bw *bufio.Writer) error {
		for _, v := range []uint32{checkpointMagic, checkpointVersion, uint32(len(hdr))} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if _, err := bw.Write(hdr); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(params.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(params.Bytes()); err != nil {
			return err
		}
		return l.writeMoments(bw)
	})
}

// writeMoments appends the Adam moment tensors in parameter order.
func (l *Loop) writeMoments(w io.Writer) error {
	flag := uint8(0)
	if l.opt.StepCount() > 0 {
		flag = 1
	}
	if err := binary.Write(w, binary.LittleEndian, flag); err != nil {
		return err
	}
	if flag == 0 {
		return nil
	}
	for _, p := range l.params {
		m, v := l.opt.Moments(p)
		if m == nil || v == nil {
			return fmt.Errorf("train: checkpoint: param %q has no optimiser moments", p.Name)
		}
		if err := binary.Write(w, binary.LittleEndian, m.Data); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, v.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpointInfo reads just the header of a checkpoint file: the task
// kind plus the training and model configurations. Used by callers that
// must rebuild the matching trainer before restoring state; the weights and
// optimiser moments after the header are not read.
func ReadCheckpointInfo(path string) (kind string, cfg Config, mcfg model.Config, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", Config{}, model.Config{}, err
	}
	defer f.Close()
	meta, err := decodeCheckpointHeader(bufio.NewReader(f), path)
	if err != nil {
		return "", Config{}, model.Config{}, err
	}
	return meta.Task, meta.TrainConfig, meta.ModelConfig, nil
}

// readCheckpoint parses a checkpoint file into meta + params blob + the
// raw moments section.
func readCheckpoint(path string) (*checkpointMeta, []byte, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	return decodeCheckpoint(f, path)
}

// decodeCheckpointHeader parses a checkpoint's header — magic, version and
// the JSON meta, retired keys refused — leaving br at the params length.
func decodeCheckpointHeader(br *bufio.Reader, path string) (*checkpointMeta, error) {
	var magic, version, metaLen uint32
	for _, dst := range []*uint32{&magic, &version, &metaLen} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("train: corrupt checkpoint %s: %w", path, err)
		}
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("train: %s is not a training checkpoint (magic %#x)", path, magic)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("train: unsupported checkpoint version %d in %s (this build reads and writes version %d only); retrain to write a current checkpoint", version, path, checkpointVersion)
	}
	if metaLen == 0 || metaLen > maxMetaBytes {
		return nil, fmt.Errorf("train: corrupt checkpoint header (%d bytes)", metaLen)
	}
	hdr := make([]byte, metaLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("train: corrupt checkpoint %s: %w", path, err)
	}
	meta := &checkpointMeta{}
	if err := json.Unmarshal(hdr, meta); err != nil {
		return nil, fmt.Errorf("train: corrupt checkpoint meta: %w", err)
	}
	if err := checkRetiredKeys(hdr); err != nil {
		return nil, fmt.Errorf("train: checkpoint %s: %w", path, err)
	}
	return meta, nil
}

// decodeCheckpoint parses a checkpoint stream (named path in errors): the
// header, then the params blob and the moments section behind it.
func decodeCheckpoint(r io.Reader, path string) (*checkpointMeta, []byte, []byte, error) {
	br := bufio.NewReader(r)
	meta, err := decodeCheckpointHeader(br, path)
	if err != nil {
		return nil, nil, nil, err
	}
	var paramsLen uint64
	if err := binary.Read(br, binary.LittleEndian, &paramsLen); err != nil {
		return nil, nil, nil, fmt.Errorf("train: truncated checkpoint %s: no params length after the header: %w", path, err)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, nil, nil, err
	}
	if uint64(len(rest)) < paramsLen {
		return nil, nil, nil, fmt.Errorf("train: truncated checkpoint %s: params blob %d of %d bytes",
			path, len(rest), paramsLen)
	}
	return meta, rest[:paramsLen], rest[paramsLen:], nil
}

// checkRetiredKeys guards the train_config keys this build no longer has.
// The JSON decode of Config ignores unknown keys, which is right for keys
// that never moved a bit (the execution engine's Exec, the graph-level
// Pack), but the LR schedule's Warmup and the dense-bias cap DenseBiasMaxN
// became constants (no schedule, a cap of 256): a checkpoint that recorded
// any other value would quietly resume on a different trajectory, so it is
// refused with the key named.
func checkRetiredKeys(hdr []byte) error {
	var old struct {
		TrainConfig struct {
			Warmup        int
			DenseBiasMaxN int
		} `json:"train_config"`
	}
	if err := json.Unmarshal(hdr, &old); err != nil {
		return fmt.Errorf("corrupt meta: %w", err)
	}
	if w := old.TrainConfig.Warmup; w != 0 {
		return fmt.Errorf("train_config key Warmup is %d, but this build trains at a constant learning rate (no warmup schedule); resuming would change the trajectory", w)
	}
	if n := old.TrainConfig.DenseBiasMaxN; n != 0 && n != denseBiasMaxN {
		return fmt.Errorf("train_config key DenseBiasMaxN is %d, but this build fixes it at %d; resuming would change the trajectory", n, denseBiasMaxN)
	}
	return nil
}

// Resume reconstructs a Loop from a checkpoint file so training continues
// bitwise-identically to an uninterrupted run. bind receives the
// checkpointed task kind plus the training and model configurations, and
// must build the matching trainer over the caller's dataset (validating the
// dataset against mcfg); it returns the Task and the model it trains.
func Resume(path string, bind func(kind string, cfg Config, mcfg model.Config) (Task, *model.GraphTransformer, error)) (*Loop, error) {
	meta, paramsBlob, momentsBlob, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	switch meta.Task {
	case TaskNode, TaskGraph, TaskSeq, TaskEgo:
	default:
		return nil, fmt.Errorf("train: checkpoint has unknown task kind %q", meta.Task)
	}
	task, m, err := bind(meta.Task, meta.TrainConfig, meta.ModelConfig)
	if err != nil {
		return nil, err
	}
	if task.Kind() != meta.Task {
		return nil, fmt.Errorf("train: checkpoint is a %q task, bound trainer is %q", meta.Task, task.Kind())
	}
	if err := nn.LoadParams(bytes.NewReader(paramsBlob), m.Params()); err != nil {
		return nil, fmt.Errorf("train: checkpoint does not match the rebuilt model (mismatched ModelConfig or corrupt file): %w", err)
	}

	l := NewLoop(task, m, meta.TrainConfig)
	if err := l.restoreMoments(meta, momentsBlob); err != nil {
		return nil, err
	}

	drops := m.Dropouts()
	if len(drops) != len(meta.DropoutDraws) {
		return nil, fmt.Errorf("train: checkpoint has %d dropout streams, model has %d (mismatched ModelConfig)",
			len(meta.DropoutDraws), len(drops))
	}
	for i, d := range drops {
		d.SeekRNG(meta.DropoutDraws[i])
	}

	l.curve = meta.Curve
	l.epoch = meta.Epoch
	l.stepInEpoch = meta.StepInEpoch
	l.globalStep = meta.GlobalStep
	l.preprocess = time.Duration(meta.Preprocess)
	l.best, l.bestSet, l.bad = meta.Best, meta.BestSet, meta.Bad
	l.stopped, l.finished = meta.Stopped, meta.Finished
	l.epochStartDraws = meta.RNGEpochStart
	if meta.Finished {
		// Rebuild the completed result with the recorded clean evaluation,
		// so a resumed finished run reports what the original run reported.
		l.final = summarise(l.Cfg.Method, l.curve, l.preprocess)
		l.final.FinalTestAcc = meta.FinalTestAcc
		l.final.BestTestAcc = meta.BestTestAcc
	}

	if src := task.runRNG(); src != nil {
		if meta.EpochBegun {
			src.Seek(meta.RNGEpochStart)
		} else {
			src.Seek(meta.RNGDraws)
		}
	}
	if meta.EpochBegun {
		// Replay the epoch opening: identical shuffle, then put the
		// accumulators back where the interrupted epoch left them.
		task.BeginEpoch(l.epoch)
		l.epochBegun = true
		if src := task.runRNG(); src != nil && src.Draws() != meta.RNGDraws {
			return nil, fmt.Errorf("train: RNG replay drift resuming %s: at %d draws, checkpoint recorded %d",
				path, src.Draws(), meta.RNGDraws)
		}
		b := task.base()
		b.epLoss, b.epTerms, b.epPairs = meta.EpLoss, meta.EpTerms, meta.EpPairs
	}
	if meta.Tuner != nil {
		nt, ok := task.(*NodeTrainer)
		if !ok || nt.tuner == nil {
			return nil, fmt.Errorf("train: checkpoint carries Auto Tuner state but the rebuilt trainer has no tuner")
		}
		nt.tuner.Restore(*meta.Tuner)
	}
	return l, nil
}

// restoreMoments reads the Adam moment section back into the optimiser.
func (l *Loop) restoreMoments(meta *checkpointMeta, blob []byte) error {
	r := bytes.NewReader(blob)
	var flag uint8
	if err := binary.Read(r, binary.LittleEndian, &flag); err != nil {
		return fmt.Errorf("train: truncated checkpoint (moments flag): %w", err)
	}
	l.opt.SetStepCount(meta.AdamT)
	if flag == 0 {
		if meta.AdamT != 0 {
			return fmt.Errorf("train: corrupt checkpoint: %d optimiser steps recorded but no moments stored", meta.AdamT)
		}
		return nil
	}
	for _, p := range l.params {
		m := tensor.New(p.W.Rows, p.W.Cols)
		v := tensor.New(p.W.Rows, p.W.Cols)
		if err := binary.Read(r, binary.LittleEndian, m.Data); err != nil {
			return fmt.Errorf("train: truncated checkpoint (moments of %q): %w", p.Name, err)
		}
		if err := binary.Read(r, binary.LittleEndian, v.Data); err != nil {
			return fmt.Errorf("train: truncated checkpoint (moments of %q): %w", p.Name, err)
		}
		l.opt.SetMoments(p, m, v)
	}
	if r.Len() != 0 {
		return fmt.Errorf("train: corrupt checkpoint: %d trailing bytes after moments", r.Len())
	}
	return nil
}
