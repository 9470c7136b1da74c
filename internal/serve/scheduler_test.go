package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Work-conserving scheduler: a partial batch waits for company only while a
// batch is in flight. Every queued answer is compared bitwise with the
// PredictBatch reference.

// TestIdleEngineFlushesAtOnce: with no forward running, a lone request goes
// out at once as an idle flush, even under an hour-long MaxDelay.
func TestIdleEngineFlushesAtOnce(t *testing.T) {
	ds := testDataset(128, 120)
	snap := testSnapshot(t, ds, 121)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := mustServer(t, snap, ds, Options{Workers: workers, MaxDelay: time.Hour})
			// The reference runs after: on a fresh engine no finished batch
			// has left a wake token, so only the idle check can flush.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			r := s.Predict(ctx, 17)
			if r.Err != nil {
				t.Fatalf("lone request on an idle engine: %v", r.Err)
			}
			want := s.PredictBatch([]int32{17})[0]
			if r.BatchSize != 1 || !bitsEqual(r.Probs, want.Probs) {
				t.Fatalf("batch size %d, bitwise equal to PredictBatch: %v", r.BatchSize, bitsEqual(r.Probs, want.Probs))
			}
			if st := s.Stats(); st.FlushIdle != 1 || st.FlushDeadline != 0 {
				t.Fatalf("want one idle flush and no deadline flush: %+v", st)
			}
		})
	}
}

// TestBusyEngineCollectsThenFlushesIdle: while a batch is in flight, three
// requests at MaxBatch 4 wait; when it finishes they go out as ONE idle
// batch of three.
func TestBusyEngineCollectsThenFlushesIdle(t *testing.T) {
	ds := testDataset(128, 122)
	snap := testSnapshot(t, ds, 123)
	s := mustServer(t, snap, ds, Options{Workers: 1, MaxBatch: 4, MaxDelay: time.Hour})
	nodes := []int32{3, 50, 99}
	want := s.PredictBatch(nodes)
	release := holdEngine(s)
	defer release()

	chans := make([]<-chan Response, len(nodes))
	for i, n := range nodes {
		chans[i] = s.PredictAsync(context.Background(), n)
	}
	waitFor(t, "the scheduler to take every request", func() bool { return s.Stats().QueueDepth == 0 })
	time.Sleep(50 * time.Millisecond) // a flush, if one were coming, would be answered by now
	for i, ch := range chans {
		select {
		case r := <-ch:
			t.Fatalf("node %d answered while the engine was busy (batch size %d)", nodes[i], r.BatchSize)
		default:
		}
	}

	release()
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil || r.BatchSize != 3 || !bitsEqual(r.Probs, want[i].Probs) {
				t.Fatalf("node %d: err %v, batch size %d (want 3), bitwise equal %v",
					nodes[i], r.Err, r.BatchSize, bitsEqual(r.Probs, want[i].Probs))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("node %d never flushed after the engine went idle", nodes[i])
		}
	}
	if st := s.Stats(); st.FlushIdle != 1 || st.FlushFull != 0 || st.FlushDeadline != 0 {
		t.Fatalf("want exactly one idle flush: %+v", st)
	}
}

// TestPredictBatchCountsAsInFlight: a request arriving while a PredictBatch
// runs waits for it instead of taking the idle second worker.
func TestPredictBatchCountsAsInFlight(t *testing.T) {
	ds := testDataset(192, 124)
	snap := testSnapshot(t, ds, 125)
	s := mustServer(t, snap, ds, Options{Workers: 2, MaxDelay: time.Hour})
	want := s.PredictBatch([]int32{42})[0]
	waitFor(t, "the reference batch to leave the engine", func() bool { return s.inflight.Load() == 0 })

	big := make([]int32, 128)
	for i := range big {
		big[i] = int32(i)
	}
	done := make(chan []Response, 1)
	go func() { done <- s.PredictBatch(big) }()
	waitFor(t, "PredictBatch to be in flight", func() bool { return s.inflight.Load() == 1 })

	r := s.Predict(context.Background(), 42)
	// The queued request may leave only once the in-flight count is back to
	// zero, which PredictBatch's job does after counting its batch.
	if st := s.Stats(); st.Batches < 2 {
		t.Fatalf("the queued request ran beside PredictBatch: %+v", st)
	}
	if r.Err != nil || r.BatchSize != 1 || !bitsEqual(r.Probs, want.Probs) {
		t.Fatalf("err %v, batch size %d, bitwise equal %v", r.Err, r.BatchSize, bitsEqual(r.Probs, want.Probs))
	}
	for _, br := range <-done {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
}

// TestSchedulerHammer mixes concurrent Predict, PredictAsync, PredictBatch,
// cancellations and a Close in mid-traffic (a -race target): every request
// gets exactly one response — the reference answer, its context's error or
// ErrClosed — nothing sends on a closed channel, and the in-flight count
// ends at zero.
func TestSchedulerHammer(t *testing.T) {
	ds := testDataset(96, 128)
	snap := testSnapshot(t, ds, 129)
	s := mustServer(t, snap, ds, Options{
		Workers: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
	})
	nodes := []int32{0, 7, 19, 31, 44, 58, 63, 77, 85, 95}
	ref := map[int32][]float32{}
	for i, r := range s.PredictBatch(nodes) {
		ref[nodes[i]] = r.Probs
	}
	check := func(r Response) error {
		switch {
		case r.Err == nil:
			if !bitsEqual(r.Probs, ref[r.Node]) {
				return fmt.Errorf("node %d: answer differs from PredictBatch", r.Node)
			}
		case !errors.Is(r.Err, ErrClosed) && !errors.Is(r.Err, context.Canceled):
			return fmt.Errorf("node %d: unexpected error %v", r.Node, r.Err)
		}
		return nil
	}

	const clients, perClient = 6, 24
	var (
		issued   atomic.Int64
		closeNow = make(chan struct{})
		closed   = make(chan struct{})
		wg       sync.WaitGroup
		async    [clients][]<-chan Response
	)
	go func() {
		defer close(closed)
		<-closeNow
		s.Close()
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if issued.Add(1) == clients*perClient/2 {
					close(closeNow)
				}
				n := nodes[(c*5+i)%len(nodes)]
				switch i % 4 {
				case 0:
					async[c] = append(async[c], s.PredictAsync(context.Background(), n))
				case 1:
					ctx, cancel := context.WithCancel(context.Background())
					async[c] = append(async[c], s.PredictAsync(ctx, n))
					if i%8 == 1 {
						time.Sleep(time.Duration(c) * 100 * time.Microsecond)
					}
					cancel()
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					if c%2 == 0 {
						cancel()
					}
					if err := check(s.Predict(ctx, n)); err != nil {
						t.Error(err)
					}
					cancel()
				case 3:
					for _, r := range s.PredictBatch([]int32{n, nodes[(i+3)%len(nodes)], 9999}) {
						if r.Node == 9999 {
							if r.Err == nil {
								t.Error("out-of-range node answered")
							}
							continue
						}
						if err := check(r); err != nil {
							t.Error(err)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	<-closed

	for c := range async {
		for _, ch := range async[c] {
			select {
			case r := <-ch:
				if err := check(r); err != nil {
					t.Error(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a request was never answered")
			}
			select {
			case r := <-ch:
				t.Fatalf("node %d answered twice", r.Node)
			default:
			}
		}
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("in-flight count %d after Close, want 0", n)
	}
}
