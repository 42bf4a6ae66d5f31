package pps

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Worker scratch tables are pooled across explorations. These tests
// interleave explorations of different graphs through the shared pool
// and require every result to be byte-identical to a run on a fresh
// table: a stale per-graph remark cache, an arena not rewound, or a
// canonical state aliasing scratch memory would all show up as drift.

// fanoutSrc builds a proc with n sync-chained tasks and m branch
// diamonds in the parent.
func fanoutSrc(tasks, branches int) string {
	var sb strings.Builder
	sb.WriteString("config const flag = true;\nproc fan() {\n  var x: int = 1;\n")
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n    d%d$ = true;\n  }\n", i+1, i)
	}
	for i := 0; i < branches; i++ {
		fmt.Fprintf(&sb, "  if (flag) { writeln(%d); } else { writeln(0); }\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ladderSrc builds a proc with n sync-chained tasks, each carrying
// rungs branch diamonds before its signal, so every fire forks several
// successors.
func ladderSrc(tasks, rungs int) string {
	var sb strings.Builder
	sb.WriteString("config const flag = true;\nproc ladder() {\n  var x: int = 1;\n")
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  var d%d$: sync bool;\n", i)
	}
	for i := 0; i < tasks; i++ {
		fmt.Fprintf(&sb, "  begin with (ref x) {\n    x += %d;\n", i+1)
		for j := 0; j < rungs; j++ {
			fmt.Fprintf(&sb, "    if (flag) { x = x + %d; } else { writeln(%d); }\n", j+1, j)
		}
		fmt.Fprintf(&sb, "    d%d$ = true;\n  }\n", i)
	}
	for i := 0; i < tasks; i++ {
		if i%2 == 1 {
			fmt.Fprintf(&sb, "  if (flag) { writeln(%d); } else { writeln(0); }\n", i)
		}
		fmt.Fprintf(&sb, "  d%d$;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// poolRun is one exploration of the interleaving: an Explore with
// tracing, or a BuildMHP when mhp is set.
type poolRun struct {
	name string
	src  string
	opts Options
	mhp  bool
}

func poolRuns(t *testing.T) []poolRun {
	t.Helper()
	figure1, err := os.ReadFile("../../testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	traced := Options{Trace: true}
	return []poolRun{
		{name: "figure1", src: string(figure1), opts: traced},
		{name: "fanout9", src: fanoutSrc(9, 1), opts: traced},
		{name: "ladder", src: ladderSrc(5, 2), opts: traced},
		{name: "figure1 again", src: string(figure1), opts: traced},
		{name: "nomerge", src: fanoutSrc(4, 1), opts: Options{Trace: true, DisableMerge: true}},
		{name: "mhp", src: string(figure1), mhp: true},
	}
}

// render runs r at the given parallelism and encodes everything it
// produces: Stats, warnings with provenance, deadlocks, trace rows and
// edges, or the MHP pair set.
func (r poolRun) render(t *testing.T, par int) string {
	t.Helper()
	g := buildGraph(t, r.src)
	opts := r.opts
	opts.Parallelism = par
	if r.mhp {
		return BuildMHP(g, opts).pairs.String()
	}
	res := Explore(g, opts)
	type unsafe struct {
		Access string
		Reason string
		Prov   *Provenance
	}
	out := struct {
		Stats     Stats
		Unsafe    []unsafe
		Deadlocks []Deadlock
		Trace     []TraceRow
		Edges     []Edge
	}{Stats: res.Stats, Deadlocks: res.Deadlocks, Trace: res.Trace, Edges: res.Edges}
	for _, u := range res.Unsafe {
		out.Unsafe = append(out.Unsafe, unsafe{u.Access.Label(), u.Reason.String(), u.Prov})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// freshRender renders r on a fresh scratch table: two collections
// empty the pool.
func (r poolRun) freshRender(t *testing.T, par int) string {
	t.Helper()
	runtime.GC()
	runtime.GC()
	return r.render(t, par)
}

func TestScratchPoolReuseAcrossGraphs(t *testing.T) {
	runs := poolRuns(t)
	for _, par := range []int{1, 4} {
		want := make([]string, len(runs))
		for i, r := range runs {
			want[i] = r.freshRender(t, par)
		}
		for i, r := range runs {
			if got := r.render(t, par); got != want[i] {
				t.Errorf("Parallelism %d: %s through the shared pool differs from a fresh run", par, r.name)
			}
		}
	}
}

// TestScratchPoolConcurrentExplores runs the interleaving from several
// goroutines at once, at Parallelism 1 and 4, so that the race detector
// sees tables handed between explorations of different graphs.
func TestScratchPoolConcurrentExplores(t *testing.T) {
	runs := poolRuns(t)
	pars := []int{1, 4}
	want := make(map[int][]string)
	for _, par := range pars {
		for _, r := range runs {
			want[par] = append(want[par], r.freshRender(t, par))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		par := pars[w%len(pars)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, r := range runs {
					if got := r.render(t, par); got != want[par][i] {
						t.Errorf("Parallelism %d, round %d: concurrent %s differs from a fresh run", par, round, r.name)
					}
				}
			}
		}()
	}
	wg.Wait()
}
