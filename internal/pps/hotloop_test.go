package pps

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"uafcheck/internal/ccfg"
	"uafcheck/internal/sym"
)

// Successors share Pending slices with their parent and siblings, and an
// expansion's prefix usually has spare capacity. Merging into two states
// that share one backing array must copy before appending, or the second
// merge overwrites the node the first appended.
func TestMergeKeepsSharedPendingApart(t *testing.T) {
	nodes := make([]*ccfg.Node, 4)
	for i := range nodes {
		nodes[i] = &ccfg.Node{ID: i}
	}
	sync := &ccfg.Node{ID: len(nodes), Sync: &ccfg.SyncEvent{Op: sym.OpReadFE}}
	g := &ccfg.Graph{Nodes: append(nodes[:len(nodes):len(nodes)], sync)}
	e := newExplorer(g, Options{Parallelism: 1})

	backing := make([]*ccfg.Node, 1, 4)
	backing[0] = nodes[0]
	state := func(pending ...*ccfg.Node) *PPS {
		return &PPS{Entries: []Entry{{Sync: sync, Pending: pending}}}
	}
	a, b := state(backing...), state(backing...)
	if !e.merge(a, state(nodes[0], nodes[1])) || !e.merge(b, state(nodes[2], nodes[0])) {
		t.Fatal("merging a new pending node must report a change")
	}
	ids := func(p *PPS) string {
		var s []string
		for _, n := range p.Entries[0].Pending {
			s = append(s, fmt.Sprint(n.ID))
		}
		return strings.Join(s, ",")
	}
	if got := ids(a); got != "0,1" {
		t.Errorf("first merge target pending = %s, want 0,1", got)
	}
	if got := ids(b); got != "0,2" {
		t.Errorf("second merge target pending = %s, want 0,2", got)
	}
	if backing[:cap(backing)][1] != nil {
		t.Error("merge appended into the shared backing array")
	}
	if e.merge(a, state(nodes[1], nodes[0])) {
		t.Error("merging pending nodes already present must not report a change")
	}
}

// maxAllocsPerState and maxBytesPerState gate the hot loop: heap
// allocations and bytes per processed state of the sequential explorer
// on allocFanoutSrc, measured at 0.28 allocations and 627 B (0.29 and
// 657 B under the race detector) and bounded with ~25% headroom.
// Allocation counts at Parallelism 1 are deterministic, so a regression
// fails here rather than only in the benchmark.
const (
	maxAllocsPerState = 0.35
	maxBytesPerState  = 800
)

// allocFanoutSrc is a fixed 8-task fanout with two branch diamonds in
// the parent.
var allocFanoutSrc = fanoutSrc(8, 2)

func TestExploreAllocsPerState(t *testing.T) {
	g := buildGraph(t, allocFanoutSrc)
	opts := Options{Parallelism: 1}
	states := Explore(g, opts).Stats.StatesProcessed
	if states < 200 {
		t.Fatalf("fanout explored only %d states; the gate needs a dense run", states)
	}
	allocs, bytes := cheapestRun(8, func() { Explore(g, opts) })
	perState, bytesPerState := allocs/float64(states), bytes/float64(states)
	t.Logf("%d states, %.2f allocs/state, %.0f B/state", states, perState, bytesPerState)
	if perState > maxAllocsPerState {
		t.Errorf("%.2f allocs per processed state, bound %v", perState, maxAllocsPerState)
	}
	if bytesPerState > maxBytesPerState {
		t.Errorf("%.0f bytes per processed state, bound %v", bytesPerState, maxBytesPerState)
	}
}

// cheapestRun returns the heap allocations and bytes of the cheapest of
// runs calls of f, after a warm-up call, with GOMAXPROCS at 1. The
// cheapest call is one that reuses the pooled scratch table: under the
// race detector, sync.Pool drops a random quarter of its puts.
func cheapestRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs - before.Mallocs)
		b := float64(after.TotalAlloc - before.TotalAlloc)
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}
