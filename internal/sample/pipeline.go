package sample

import (
	"sync"
	"sync/atomic"
)

// Pipeline drives the sampler over ordered target lists with a bounded
// worker pool, prefetching ahead of the consumer while delivering contexts
// strictly in submission order — the consumer (an optimiser step, a batch
// builder) sees exactly the sequence a synchronous loop would produce, while
// the disk reads of upcoming samples overlap its compute.
//
// Ordering scheme: with W workers the pipeline owns L = 2W pooled contexts
// and L slot channels of capacity 1; sample i is delivered through slot
// i mod L. Workers claim indices from an atomic counter and block sending
// into their slot until the consumer has drained the slot's previous
// occupant (sample i−L). Because a worker must first take a context from the
// free pool — refilled only as the consumer finishes samples — at most L
// samples are ever in flight, so the slot a worker sends to is always
// already drained: no reordering, no deadlock, lookahead capped at L.
//
// The contexts and the slot channels are built on the first Each and kept:
// every Each hands all L contexts back to the pool and leaves every slot
// drained before it returns, so the next call — one per optimiser step in the
// ego trainer — starts from them instead of rebuilding maps, scratch and a
// feature matrix per context. Only the worker goroutines are per call. A
// Pipeline therefore serves one Each at a time.
type Pipeline struct {
	s     *Sampler
	free  chan *Context   // the L pooled contexts, all home between calls
	slots []chan *Context // slot i mod L delivers sample i
}

// NewPipeline builds a pipeline over s.
func NewPipeline(s *Sampler) *Pipeline { return &Pipeline{s: s} }

// pool builds the contexts and slots on first use: L = 2·Workers, or the one
// context of a synchronous pipeline.
func (p *Pipeline) pool() {
	if p.free != nil {
		return
	}
	l := max(2*p.s.cfg.Workers, 1)
	p.free = make(chan *Context, l)
	p.slots = make([]chan *Context, l)
	for i := range p.slots {
		p.free <- p.s.NewContext()
		p.slots[i] = make(chan *Context, 1)
	}
}

// Each samples every target in order, invoking fn with the filled context of
// target i (serial startSerial+i) in exactly the order given. fn must not
// retain the context. Returns the source's sticky I/O error, if any, after
// the last sample — disk-resident sources degrade to zero-filled samples on
// I/O failure rather than panicking, and the error surfaces here.
func (p *Pipeline) Each(targets []int32, startSerial uint64, fn func(*Context)) error {
	p.pool()
	w := min(p.s.cfg.Workers, len(targets))
	if w <= 1 {
		c := <-p.free
		for i, t := range targets {
			p.s.Sample(c, t, startSerial+uint64(i))
			fn(c)
		}
		p.free <- c
		return p.s.src.SourceErr()
	}
	free, slots := p.free, p.slots
	lookahead := len(slots)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The context MUST be acquired before the index is claimed:
				// each claimed-but-unsent sample then holds one of the L
				// pooled contexts, and a context only returns to the pool
				// after the consumer drains a slot, so sample i+L cannot be
				// claimed until sample i has been consumed and slot i mod L
				// is empty. Claiming first would let a descheduled worker be
				// overtaken by a full lap and deliver out of order.
				c := <-free
				i := int(next.Add(1)) - 1
				if i >= len(targets) {
					free <- c
					return
				}
				p.s.Sample(c, targets[i], startSerial+uint64(i))
				slots[i%lookahead] <- c
			}
		}()
	}
	for i := range targets {
		c := <-slots[i%lookahead]
		fn(c)
		free <- c
	}
	wg.Wait()
	return p.s.src.SourceErr()
}
