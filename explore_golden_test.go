package uafcheck_test

// Golden pin of the PPS explorer. Each case analyzes one program and
// compares, byte for byte, the canonical public report and the raw
// exploration of every procedure (warnings with provenance chains,
// deadlocks, every trace row and edge, Stats) against a file committed
// under testdata/explore. TestParallelDeterminism only compares the
// sequential and parallel explorers of one build, so a change that
// shifts both the same way shows up here and nowhere else.
//
// Regenerate deliberately, after checking that a change in output is
// intended:
//
//	go test -run TestExploreGolden -update-explore .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/ir"
	"uafcheck/internal/pps"
	"uafcheck/internal/source"
)

var updateExplore = flag.Bool("update-explore", false, "rewrite testdata/explore golden files")

// ladderFanout builds a proc with n sync-chained tasks, each carrying
// rungs branch diamonds before its signal, so every fire forks several
// successors.
func ladderFanout(tasks, rungs int) string {
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

// countingSrc is a counting-atomics protocol with one under-counted
// wait: c reaches 2 only after both fetchAdds, while y's task signals
// through a second counter the parent waits on too early.
const countingSrc = `proc counting() {
  var x: int = 1;
  var y: int = 1;
  var c: atomic int;
  var e: atomic int;
  begin with (ref x) {
    x = 2;
    c.fetchAdd(1);
  }
  begin with (ref x) {
    x = 3;
    c.fetchAdd(1);
  }
  begin with (ref y) {
    y = 2;
    e.fetchAdd(1);
    y = 4;
    e.fetchAdd(1);
  }
  c.waitFor(2);
  e.waitFor(1);
}
`

type exploreCase struct {
	name     string
	src      string
	maxState int
	noMerge  bool
	counting bool
}

func exploreCases(t *testing.T) []exploreCase {
	t.Helper()
	return []exploreCase{
		{name: "figure1", src: readProgram(t, "figure1.chpl")},
		{name: "figure1_safe", src: readProgram(t, "figure1_safe.chpl")},
		{name: "figure6", src: readProgram(t, "figure6.chpl")},
		{name: "fanout6", src: syntheticFanout(6, 2)},
		{name: "fanout9", src: syntheticFanout(9, 1)},
		{name: "ladder", src: ladderFanout(5, 2)},
		{name: "counting", src: countingSrc, counting: true},
		{name: "budget", src: syntheticFanout(7, 2), maxState: 60},
		{name: "nomerge", src: syntheticFanout(4, 1), noMerge: true},
	}
}

// goldenUnsafe is one reported access of a raw exploration.
type goldenUnsafe struct {
	Access       string
	Reason       string
	Conservative bool
	Prov         *pps.Provenance
}

// exploreGolden renders one case at the given parallelism: the
// canonical report, then per procedure its Stats, warnings, deadlocks,
// trace rows and edges, one JSON value per line.
func exploreGolden(t *testing.T, c exploreCase, par int) []byte {
	t.Helper()
	opts := []uafcheck.Option{uafcheck.WithTrace(true), uafcheck.WithParallelism(par)}
	if c.maxState > 0 {
		opts = append(opts, uafcheck.WithMaxStates(c.maxState))
	}
	if c.noMerge {
		opts = append(opts, uafcheck.WithMergeDisabled(true))
	}
	if c.counting {
		opts = append(opts, uafcheck.WithAtomicsCounting(true))
	}
	rep, err := uafcheck.AnalyzeContext(context.Background(), c.name+".chpl", c.src, opts...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var b bytes.Buffer
	line := func(tag string, v any) {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tag)
		b.WriteByte(' ')
		b.Write(buf)
		b.WriteByte('\n')
	}
	line("report", json.RawMessage(canonicalReport(t, rep)))

	ao := analysis.DefaultOptions()
	ao.CountAtomics = c.counting
	ao.KeepGraphs = true
	ao.PPS = pps.Options{Trace: true, MaxStates: c.maxState, DisableMerge: c.noMerge, Parallelism: par}
	res := analysis.AnalyzeSource(c.name+".chpl", c.src, ao)
	for _, pr := range res.Procs {
		if pr.PPS == nil {
			continue
		}
		line("proc", pr.Proc.Name.Name)
		line("stats", pr.PPS.Stats)
		for _, u := range pr.PPS.Unsafe {
			line("unsafe", goldenUnsafe{Access: u.Access.Label(), Reason: u.Reason.String(),
				Conservative: u.Conservative, Prov: u.Prov})
		}
		for _, d := range pr.PPS.Deadlocks {
			line("deadlock", d)
		}
		for _, r := range pr.PPS.Trace {
			line("row", r)
		}
		for _, e := range pr.PPS.Edges {
			line("edge", e)
		}
	}
	return b.Bytes()
}

// TestExploreGolden pins every case's reports, at Parallelism 1 and 4,
// to the committed goldens.
func TestExploreGolden(t *testing.T) {
	for _, c := range exploreCases(t) {
		path := filepath.Join("testdata", "explore", c.name+".golden")
		got := exploreGolden(t, c, 1)
		if *updateExplore {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: exploration drifted from %s", c.name, path)
		}
		if par := exploreGolden(t, c, 4); !bytes.Equal(par, want) {
			t.Errorf("%s: Parallelism=4 drifted from %s", c.name, path)
		}
	}
}

// TestMHPGolden pins the may-happen-in-parallel pair sets of the
// paper's Figures 1 and 6 to testdata/explore/mhp.txt.
func TestMHPGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range []struct{ file, proc string }{
		{"figure1.chpl", "outerVarUse"},
		{"figure6.chpl", "multipleUse"},
	} {
		src := readProgram(t, f.file)
		info, _ := mustFrontend(t, f.file, src)
		diags := &source.Diagnostics{}
		g := ccfg.Build(ir.Lower(info, info.Module.Proc(f.proc), diags), diags, ccfg.DefaultBuildOptions())
		o := pps.BuildMHP(g, pps.Options{Parallelism: 1})
		fmt.Fprintf(&b, "%s %s: %d pairs\n", f.file, f.proc, o.PairCount())
		for _, x := range g.Nodes {
			for _, y := range g.Nodes {
				if x.ID < y.ID && o.MHP(x, y) {
					fmt.Fprintf(&b, "%d %d\n", x.ID, y.ID)
				}
			}
		}
	}
	path := filepath.Join("testdata", "explore", "mhp.txt")
	if *updateExplore {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("MHP pairs drifted from %s:\n%s", path, b.String())
	}
}
