package pps

import (
	"fmt"
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

// maxAllocsPerState gates the hot loop: allocations per processed state
// of the sequential explorer on allocFanoutSrc, measured at 12.3 and
// bounded with ~25% headroom. Allocation counts at Parallelism 1 are
// deterministic, so a regression fails here rather than only in the
// benchmark.
const maxAllocsPerState = 15

// allocFanoutSrc is a fixed 8-task fanout with two branch diamonds in
// the parent.
var allocFanoutSrc = func() string {
	var sb strings.Builder
	sb.WriteString("config const flag = true;\nproc fan() {\n  var x: int = 1;\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", i+1, i)
	}
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&sb, "  if (flag) { writeln(%d); } else { writeln(0); }\n", i)
	}
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}()

func TestExploreAllocsPerState(t *testing.T) {
	g := buildGraph(t, allocFanoutSrc)
	opts := Options{Parallelism: 1}
	states := Explore(g, opts).Stats.StatesProcessed
	if states < 200 {
		t.Fatalf("fanout explored only %d states; the gate needs a dense run", states)
	}
	perState := testing.AllocsPerRun(5, func() { Explore(g, opts) }) / float64(states)
	t.Logf("%d states, %.2f allocs/state", states, perState)
	if perState > maxAllocsPerState {
		t.Errorf("%.2f allocs per processed state, bound %d", perState, maxAllocsPerState)
	}
}
