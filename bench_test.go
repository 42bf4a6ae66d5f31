// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md (PPS merging §III-C, pruning rules A-D §III-A) and substrate
// throughput baselines.
//
// Run all:
//
//	go test -bench=. -benchmem
package uafcheck_test

import (
	"context"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"testing"

	"uafcheck"
	"uafcheck/internal/analysis"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/corpus"
	"uafcheck/internal/eval"
	"uafcheck/internal/ir"
	"uafcheck/internal/obs"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/pst"
	"uafcheck/internal/repair"
	"uafcheck/internal/runtime"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
)

func mustRead(b *testing.B, path string) string {
	b.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

func mustFrontend(b testing.TB, name, src string) (*sym.Info, *source.Diagnostics) {
	b.Helper()
	diags := &source.Diagnostics{}
	mod := parser.ParseSource(name, src, diags)
	if diags.HasErrors() {
		b.Fatalf("frontend:\n%s", diags)
	}
	info := sym.Resolve(mod, diags)
	if diags.HasErrors() {
		b.Fatalf("resolve:\n%s", diags)
	}
	return info, diags
}

// ---------------------------------------------------------------- Fig 1

// BenchmarkFigure1Analyze runs the complete pass (parse → resolve →
// lower → CCFG → prune → PPS → warnings) on the paper's Figure 1.
func BenchmarkFigure1Analyze(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := uafcheck.Analyze("figure1.chpl", src)
		if err != nil || len(rep.Warnings) != 1 {
			b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
		}
	}
}

// ---------------------------------------------------------------- Fig 2

// BenchmarkFigure2CCFGConstruction isolates lowering + CCFG construction
// + pruning + frontier computation for Figure 1 (the paper's Figure 2
// artifact).
func BenchmarkFigure2CCFGConstruction(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	proc := info.Module.Proc("outerVarUse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags := &source.Diagnostics{}
		prog := ir.Lower(info, proc, diags)
		g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
		if len(g.Nodes) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// ------------------------------------------------------------- Fig 3/7

// BenchmarkFigure3PPSExploration isolates the PPS exploration on the
// prebuilt Figure 1 CCFG (the paper's Figure 3 table).
func BenchmarkFigure3PPSExploration(b *testing.B) {
	benchExplore(b, "testdata/figure1.chpl", "outerVarUse", 1)
}

// BenchmarkFigure7BranchingPPS explores the Figure 6 program, whose
// branches fork the initial PPS set (the paper's Figure 7 table).
func BenchmarkFigure7BranchingPPS(b *testing.B) {
	benchExplore(b, "testdata/figure6.chpl", "multipleUse", 1)
}

func benchExplore(b *testing.B, path, procName string, wantUnsafe int) {
	src := mustRead(b, path)
	info, _ := mustFrontend(b, path, src)
	proc := info.Module.Proc(procName)
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pps.Explore(g, pps.Options{})
		if len(r.Unsafe) != wantUnsafe {
			b.Fatalf("unsafe=%d want %d", len(r.Unsafe), wantUnsafe)
		}
	}
}

// --------------------------------------------------------------- Table I

// BenchmarkTableICorpus runs the entire §V evaluation: generate the
// 5127-program synthetic suite and analyze every program. One iteration
// is one full Table I reproduction.
func BenchmarkTableICorpus(b *testing.B) {
	cases := corpus.Generate(corpus.DefaultParams(1711))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, _ := eval.RunTableI(cases, analysis.DefaultOptions())
		if table.TruePositives != 63 || table.WarningsReported != 437 {
			b.Fatalf("table drifted: %+v", table)
		}
	}
}

// BenchmarkTableICorpusParallel runs the same evaluation with a worker
// pool — one goroutine per core; test programs are independent.
func BenchmarkTableICorpusParallel(b *testing.B) {
	cases := corpus.Generate(corpus.DefaultParams(1711))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, _ := eval.RunTableIParallel(cases, analysis.DefaultOptions(), 0)
		if table.TruePositives != 63 {
			b.Fatalf("table drifted: %+v", table)
		}
	}
}

// BenchmarkScheduleExplorers compares the three oracle drivers on
// Figure 1: random sampling, preemption-bounded, exhaustive (budgeted).
func BenchmarkScheduleExplorers(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	mod := info.Module
	b.Run("random-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.ExploreRandom(mod, info, "outerVarUse", 100, int64(i))
		}
	})
	b.Run("bounded-2", func(b *testing.B) {
		var runs int
		for i := 0; i < b.N; i++ {
			er := runtime.ExploreBounded(mod, info, "outerVarUse", 5000, 2)
			if len(er.UAF) == 0 {
				b.Fatal("bounded missed the bug")
			}
			runs = er.Runs
		}
		b.ReportMetric(float64(runs), "runs/op")
	})
	b.Run("exhaustive-5000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runtime.ExploreExhaustive(mod, info, "outerVarUse", 5000)
		}
	})
}

// BenchmarkTableICorpusGeneration isolates suite generation.
func BenchmarkTableICorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cases := corpus.Generate(corpus.DefaultParams(1711))
		if len(cases) != 5127 {
			b.Fatal("wrong corpus size")
		}
	}
}

// ------------------------------------------------------------- ablations

// syntheticFanout builds a proc with n sync-chained tasks and m branch
// diamonds — the knob for state-space ablations.
func syntheticFanout(tasks, branches int) string {
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

// BenchmarkExploreSeq and BenchmarkExplorePar compare the wave explorer
// at Parallelism 1 and 4 on a wide synthetic fanout whose frontiers are
// broad enough to cross the parallel threshold. The states/op metric
// must be identical between the two: the exploration is deterministic
// by construction regardless of worker count.
func BenchmarkExploreSeq(b *testing.B) { benchExploreWorkers(b, 1) }

func BenchmarkExplorePar(b *testing.B) { benchExploreWorkers(b, 4) }

func benchExploreWorkers(b *testing.B, par int) {
	src := syntheticFanout(6, 2)
	info, _ := mustFrontend(b, "fan.chpl", src)
	proc := info.Module.Proc("fan")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		r := pps.Explore(g, pps.Options{Parallelism: par})
		states = r.Stats.StatesProcessed
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkExploreLadder explores the branch-ladder fanout of the
// explore goldens at Parallelism 1. Every fire forks several successors
// and most of them merge away, so allocs/state shows a per-state
// regression of the merge path without the end-to-end harness.
func BenchmarkExploreLadder(b *testing.B) {
	info, _ := mustFrontend(b, "ladder.chpl", ladderFanout(5, 2))
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, info.Module.Proc("ladder"), diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	opts := pps.Options{Parallelism: 1}
	states := pps.Explore(g, opts).Stats.StatesProcessed
	b.ReportAllocs()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pps.Explore(g, opts)
	}
	b.StopTimer()
	goruntime.ReadMemStats(&after)
	b.ReportMetric(float64(states), "states/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(states), "allocs/state")
}

// BenchmarkAnalyzeCached measures the content-addressed cache's hit
// path against the full pipeline (the miss that populates it happens
// outside the timer).
func BenchmarkAnalyzeCached(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	opts := uafcheck.DefaultOptions()
	opts.Cache = uafcheck.NewCache(uafcheck.CacheConfig{})
	if _, err := uafcheck.AnalyzeWithOptions("figure1.chpl", src, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := uafcheck.AnalyzeWithOptions("figure1.chpl", src, opts)
		if err != nil || len(rep.Warnings) != 1 {
			b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
		}
	}
}

// BenchmarkPPSMerge quantifies the §III-C merge optimization: identical
// (ASN, state-table) states are folded. Without it the same program
// explores many times more states.
func BenchmarkPPSMerge(b *testing.B) {
	src := syntheticFanout(4, 2)
	info, _ := mustFrontend(b, "fan.chpl", src)
	proc := info.Module.Proc("fan")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	for _, merge := range []bool{true, false} {
		name := "on"
		if !merge {
			name = "off"
		}
		b.Run("merge="+name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				r := pps.Explore(g, pps.Options{DisableMerge: !merge})
				states = r.Stats.StatesProcessed
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}

// BenchmarkPruning quantifies rules A-D on a corpus slice dominated by
// safe tasks: pruning removes whole strands before exploration.
func BenchmarkPruning(b *testing.B) {
	params := corpus.Params{Seed: 5, Tests: 64, BeginTests: 64,
		UnsafeTests: 4, TrueSites: 12, AtomicFPTests: 4, FalseSites: 16}
	cases := corpus.Generate(params)
	for _, prune := range []bool{true, false} {
		name := "on"
		if !prune {
			name = "off"
		}
		b.Run("prune="+name, func(b *testing.B) {
			opts := analysis.DefaultOptions()
			opts.Prune = prune
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range cases {
					analysis.AnalyzeSource(cases[j].Name, cases[j].Source, opts)
				}
			}
		})
	}
}

// ------------------------------------------------------------- baselines

// BenchmarkBaselineComparison runs the §VI baseline comparison over the
// corpus's begin cases.
func BenchmarkBaselineComparison(b *testing.B) {
	params := corpus.Params{Seed: 9, Tests: 128, BeginTests: 64,
		UnsafeTests: 6, TrueSites: 18, AtomicFPTests: 6, FalseSites: 24}
	cases := corpus.Generate(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := eval.RunBaselines(cases, analysis.DefaultOptions())
		if rep.ClearedByPPS <= 0 {
			b.Fatal("baseline comparison degenerate")
		}
	}
}

// ------------------------------------------------------------ extensions

// BenchmarkAtomicsExtension measures the Table I run under each atomics
// mode; the guard assertions double as the experiment's regression test
// (warnings 437 → 250 → 63).
func BenchmarkAtomicsExtension(b *testing.B) {
	cases := corpus.Generate(corpus.DefaultParams(1711))
	for _, mode := range []struct {
		name  string
		opts  analysis.Options
		wantW int
	}{
		{"default", analysis.Options{Prune: true}, 437},
		{"model", analysis.Options{Prune: true, ModelAtomics: true}, 250},
		{"count", analysis.Options{Prune: true, ModelAtomics: true, CountAtomics: true}, 63},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				table, _ := eval.RunTableI(cases, mode.opts)
				if table.WarningsReported != mode.wantW {
					b.Fatalf("warnings = %d, want %d", table.WarningsReported, mode.wantW)
				}
			}
		})
	}
}

// BenchmarkRepairFigure1 measures the full synthesize-and-verify repair
// loop (static re-analysis + bounded dynamic schedule exploration).
func BenchmarkRepairFigure1(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repair.Repair("figure1.chpl", src, analysis.DefaultOptions())
		if err != nil || !res.Clean() {
			b.Fatalf("repair failed: %v / %+v", err, res)
		}
	}
}

// BenchmarkPSTBaseline measures the §VI Program Structure Tree MHP check
// on Figure 1 — the tree-based alternative the paper argues against.
func BenchmarkPSTBaseline(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	proc := info.Module.Proc("outerVarUse")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := pst.Build(info, proc)
		if len(tree.CheckUAF()) == 0 {
			b.Fatal("PST flagged nothing")
		}
	}
}

// ------------------------------------------------------------ substrates

// BenchmarkParserThroughput measures frontend bytes/sec over the
// concatenated corpus sources.
func BenchmarkParserThroughput(b *testing.B) {
	cases := corpus.Generate(corpus.Params{Seed: 3, Tests: 256, BeginTests: 32,
		UnsafeTests: 4, TrueSites: 8, AtomicFPTests: 4, FalseSites: 16})
	var total int64
	for i := range cases {
		total += int64(len(cases[i].Source))
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cases {
			diags := &source.Diagnostics{}
			parser.ParseSource(cases[j].Name, cases[j].Source, diags)
			if diags.HasErrors() {
				b.Fatal("parse error")
			}
		}
	}
}

// BenchmarkInterpreterSchedule measures one random-schedule execution of
// the Figure 1 program on the task runtime.
func BenchmarkInterpreterSchedule(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runtime.Run(info.Module, info, runtime.Config{
			Entry:  "outerVarUse",
			Policy: runtime.NewRandomPolicy(int64(i)),
		})
		if r.Steps == 0 {
			b.Fatal("no steps")
		}
	}
}

// BenchmarkRaceDetection measures the vector-clock detector's overhead
// on one random schedule of Figure 1.
func BenchmarkRaceDetection(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	info, _ := mustFrontend(b, "figure1.chpl", src)
	for _, detect := range []bool{false, true} {
		name := "off"
		if detect {
			name = "on"
		}
		b.Run("races="+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runtime.Run(info.Module, info, runtime.Config{
					Entry:       "outerVarUse",
					DetectRaces: detect,
					Policy:      runtime.NewRandomPolicy(int64(i)),
				})
			}
		})
	}
}

// ----------------------------------------------------------- telemetry

// BenchmarkObsOverhead measures the telemetry tax on the full pass:
// no sinks (Report.Metrics still populated), a text sink, and a JSONL
// trace sink. The hot PPS loop accumulates into plain integers and
// flushes once per phase, so the spread should be flush-sized, not
// per-state.
func BenchmarkObsOverhead(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	sinks := []struct {
		name string
		mk   func() []uafcheck.MetricsSink
	}{
		{"nil-sink", func() []uafcheck.MetricsSink { return nil }},
		{"text-sink", func() []uafcheck.MetricsSink {
			return []uafcheck.MetricsSink{uafcheck.TextMetricsSink(io.Discard)}
		}},
		{"jsonl-sink", func() []uafcheck.MetricsSink {
			return []uafcheck.MetricsSink{uafcheck.JSONLinesMetricsSink(io.Discard)}
		}},
	}
	for _, s := range sinks {
		b.Run(s.name, func(b *testing.B) {
			opts := uafcheck.DefaultOptions()
			opts.MetricsSinks = s.mk()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := uafcheck.AnalyzeWithOptions("figure1.chpl", src, opts)
				if err != nil || len(rep.Warnings) != 1 {
					b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
				}
			}
		})
	}
}

// BenchmarkTracingOverhead pins the cost of span recording on the whole
// pipeline: the same analysis with tracing off, with a report-owned
// trace, and attached to an ambient caller trace (the server shape).
// The warning output is identical in all three; only the span tree and
// wall-clock histograms are added.
func BenchmarkTracingOverhead(b *testing.B) {
	src := mustRead(b, "testdata/figure1.chpl")
	run := func(b *testing.B, opts ...uafcheck.Option) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", src, opts...)
			if err != nil || len(rep.Warnings) != 1 {
				b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
			}
		}
	}
	b.Run("tracing=off", func(b *testing.B) { run(b) })
	b.Run("tracing=on", func(b *testing.B) { run(b, uafcheck.WithTracing(true)) })
	b.Run("tracing=ambient", func(b *testing.B) {
		tr := obs.NewTrace(obs.DeriveTraceID("bench"))
		ctx := obs.ContextWithTrace(context.Background(), tr)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, uafcheck.WithTracing(true))
			if err != nil || len(rep.Warnings) != 1 {
				b.Fatalf("warnings=%d err=%v", len(rep.Warnings), err)
			}
		}
	})
}

// BenchmarkExploreObs isolates the recorder's cost on the raw PPS loop:
// nil recorder vs an attached one, same prebuilt graph.
func BenchmarkExploreObs(b *testing.B) {
	src := mustRead(b, "testdata/figure6.chpl")
	info, _ := mustFrontend(b, "figure6.chpl", src)
	proc := info.Module.Proc("multipleUse")
	diags := &source.Diagnostics{}
	prog := ir.Lower(info, proc, diags)
	g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
	b.Run("obs=nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pps.Explore(g, pps.Options{})
		}
	})
	b.Run("obs=recorder", func(b *testing.B) {
		rec := obs.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pps.Explore(g, pps.Options{Obs: rec})
		}
	})
}

// BenchmarkScalingTasks charts PPS state growth against the number of
// concurrently live sync-chained tasks — the exponential heart of the
// approach that pruning and merging exist to tame.
func BenchmarkScalingTasks(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			src := syntheticFanout(n, 0)
			info, _ := mustFrontend(b, "fan.chpl", src)
			proc := info.Module.Proc("fan")
			diags := &source.Diagnostics{}
			prog := ir.Lower(info, proc, diags)
			g := ccfg.Build(prog, diags, ccfg.DefaultBuildOptions())
			b.ReportAllocs()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				r := pps.Explore(g, pps.Options{})
				states = r.Stats.StatesProcessed
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}
