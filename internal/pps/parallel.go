package pps

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file schedules the compute phase of a wave across
// Options.Parallelism workers. The frontier is split into per-worker
// index ranges; a worker drains its own range and, when empty, steals
// the larger half of the fullest victim range. Which worker computes
// which state is deliberately irrelevant: every output lands in the
// outs slot of its frontier index and the commit loop consumes the
// slots in order, so scheduling noise can never reach the Result.
// Worker w computes with scratch slot w alone, and nothing a state's
// output holds is overwritten before the commit loop has read it, so
// reusing the slots across states and waves is invisible too.
//
// minParallelFrontier keeps tiny waves on the inline path — below it
// the goroutine handoff costs more than the states themselves, and the
// small programs of the paper's figures never leave the fast path.
const minParallelFrontier = 8

// computeWave runs computeState for every frontier state, leaving the
// output of frontier[i] in e.scratch.outs[i]. It returns true when a context
// cancellation interrupted the wave — the partial outputs must then be
// discarded, never committed.
func (e *explorer) computeWave(frontier []*PPS) bool {
	t := e.scratch
	if n := len(frontier) - len(t.outs); n > 0 {
		t.outs = append(t.outs, make([]stepOut, n)...)
	}
	outs := t.outs
	if e.par <= 1 || len(frontier) < minParallelFrontier {
		sc := &e.scratchFor(1)[0]
		sc.beginWave()
		for i, p := range frontier {
			if e.opts.Ctx != nil && i%ctxCheckInterval == 0 && e.opts.Ctx.Err() != nil {
				return true
			}
			e.computeState(p, sc, &outs[i])
		}
		return false
	}

	workers := e.par
	if workers > len(frontier) {
		workers = len(frontier)
	}
	scratch := e.scratchFor(workers)
	q := newWaveQueue(len(frontier), workers)
	var (
		stop       atomic.Bool
		panicMu    sync.Mutex
		panicVal   any
		panicStack []byte
		wg         sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// A panic must not escape the worker goroutine: it would kill
			// the process instead of reaching the analysis layer's
			// recover-into-Degradation ladder. Capture the first one,
			// stop the siblings, and re-raise it on the exploring
			// goroutine below.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
						panicStack = debug.Stack()
					}
					panicMu.Unlock()
					stop.Store(true)
				}
			}()
			sc := &scratch[self]
			sc.beginWave()
			polled := 0
			for !stop.Load() {
				i, ok := q.take(self)
				if !ok {
					return
				}
				if e.opts.Ctx != nil {
					if polled++; polled%ctxCheckInterval == 0 && e.opts.Ctx.Err() != nil {
						stop.Store(true)
						return
					}
				}
				e.computeState(frontier[i], sc, &outs[i])
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(fmt.Sprintf("pps: wave worker panicked: %v\n%s", panicVal, panicStack))
	}
	return stop.Load()
}

// waveQueue is the sharded work-stealing index queue of one wave: each
// worker owns a contiguous [lo, hi) range of frontier indices.
type waveQueue struct {
	shards []waveShard
}

type waveShard struct {
	mu     sync.Mutex
	lo, hi int
}

func newWaveQueue(n, workers int) *waveQueue {
	q := &waveQueue{shards: make([]waveShard, workers)}
	per, rem := n/workers, n%workers
	lo := 0
	for i := range q.shards {
		size := per
		if i < rem {
			size++
		}
		q.shards[i].lo, q.shards[i].hi = lo, lo+size
		lo += size
	}
	return q
}

// take pops the next index for worker self: first from its own shard,
// then by stealing the upper half of the fullest other shard. Returns
// ok=false only when every shard is empty.
func (q *waveQueue) take(self int) (int, bool) {
	s := &q.shards[self]
	s.mu.Lock()
	if s.lo < s.hi {
		i := s.lo
		s.lo++
		s.mu.Unlock()
		return i, true
	}
	s.mu.Unlock()
	for {
		victim, most := -1, 0
		for v := range q.shards {
			if v == self {
				continue
			}
			vs := &q.shards[v]
			vs.mu.Lock()
			n := vs.hi - vs.lo
			vs.mu.Unlock()
			if n > most {
				victim, most = v, n
			}
		}
		if victim < 0 {
			return 0, false
		}
		vs := &q.shards[victim]
		vs.mu.Lock()
		n := vs.hi - vs.lo
		if n == 0 {
			// Lost the race for this victim; rescan.
			vs.mu.Unlock()
			continue
		}
		if n == 1 {
			i := vs.lo
			vs.lo++
			vs.mu.Unlock()
			return i, true
		}
		mid := vs.lo + n/2
		stolenLo, stolenHi := mid, vs.hi
		vs.hi = mid
		vs.mu.Unlock()
		// Refill our own shard with the stolen tail. Only the owner ever
		// refills a shard, and ours is empty, so this cannot clobber
		// pending work.
		s.mu.Lock()
		s.lo, s.hi = stolenLo+1, stolenHi
		s.mu.Unlock()
		return stolenLo, true
	}
}
