// Package dist is what the in-process side of the multi-rank runtime needs
// beyond internal/dist/transport — the rank fan-out of a goroutine job and
// its traffic counters — plus analytic performance and memory models of the
// paper's two testbeds. Collectives are transport.Group's, in process and
// across processes alike; sequence parallelism itself (the Ulysses
// resharding of the paper's §III-C) lives in internal/model.
package dist

import (
	"fmt"
	"sync"

	"torchgt/internal/dist/transport"
)

// Comm is the in-process mesh of a goroutine job: one endpoint per rank.
type Comm []*transport.Mem

// Run launches one goroutine per rank of the mesh and blocks until all
// return — the moral equivalent of torchrun spawning one process per GPU. A
// panicking rank does not deadlock its peers: the panic is recovered, the
// mesh is torn down (unblocking every rank stuck in a collective), and the
// panic comes back as Run's error. When one rank's failure cascades — peers
// observe transport.ErrRankLost once the mesh is poisoned — the error
// reported is the primary failure, not a victim's.
func Run(c Comm, f func(rank int)) error {
	var wg sync.WaitGroup
	failed := make([]error, len(c))
	for r := range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("dist: rank %d panicked: %v", r, rec)
					}
					failed[r] = err
					c[r].Abort(err)
				}
			}()
			f(r)
		}()
	}
	wg.Wait()
	var victim error
	for _, err := range failed {
		if err != nil && !transport.IsRankLost(err) {
			return err
		}
		if victim == nil {
			victim = err
		}
	}
	return victim
}

// TotalBytes reports the payload bytes sent by all ranks.
func (c Comm) TotalBytes() int64 {
	var t int64
	for _, m := range c {
		t += m.BytesSent()
	}
	return t
}
