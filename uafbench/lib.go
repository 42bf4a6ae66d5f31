package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"uafcheck"
	"uafcheck/internal/progen"
)

// stateBudget is the pps-dense workload's fixed WithMaxStates budget.
// When the benchmark was written, the 12-task fanouts (2^13-1 states)
// exceeded it and every smaller fanout fit.
const stateBudget = 6000

// workers is the analysis concurrency of the library workloads: one
// goroutine per CPU, so the numbers measure uafcheck, not the
// scheduler.
func workers() int { return runtime.NumCPU() }

// sites renders a warning list as the verdict compared against
// references: the set of "var:line" access sites.
func sites(ws []uafcheck.Warning) map[string]bool {
	out := make(map[string]bool, len(ws))
	for _, w := range ws {
		out[fmt.Sprintf("%s:%d", w.Var, w.AccessLine)] = true
	}
	return out
}

// verdictOK checks one report against its reference. A decided report
// must equal the reference; a degraded one (stopped by the state
// budget) must still contain it, because conservative warnings
// over-approximate.
func verdictOK(rep *uafcheck.Report, ref map[string]bool) bool {
	if rep == nil {
		return false
	}
	got := sites(rep.Warnings)
	if rep.Degraded != nil {
		for s := range ref {
			if !got[s] {
				return false
			}
		}
		return true
	}
	return sameSet(got, ref)
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if !b[s] {
			return false
		}
	}
	return true
}

// outcome is what one timed run measured.
type outcome struct {
	setup     []float64 // seconds per set-up repetition
	wall      time.Duration
	files     int
	lat       []float64 // ms per verdict
	decided   int
	verdicts  int
	wrong     int
	attempted int
	failed    int
	notes     []string
	// rate overrides files/wall as files_per_s (serve-edge reports the
	// sustained rate of its sweep); rss is the analyzing process's peak
	// RSS when that is not this process.
	rate  float64
	rss   float64
	valid bool
	// windows > 1 reports the tail as the median of that many equal
	// windows' tails (see windowedTail); passRates, when set, are the
	// files per second of each whole pass, and files_per_s is their
	// median.
	windows   int
	passRates []float64
	// perInput takes each input's latency as its median over the
	// windows (whole passes over the same inputs in the same order)
	// before the percentiles: a garbage collection or a host stall that
	// hits one input in one pass then moves no percentile.
	perInput bool
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// timeSetup runs fn setupReps times and returns the durations and the
// last result.
func timeSetup[T any](fn func() (T, error)) ([]float64, T, error) {
	var ds []float64
	var v T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		v, err = fn()
		if err != nil {
			return nil, v, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return ds, v, nil
}

func fileInputs(in []input) []uafcheck.FileInput {
	out := make([]uafcheck.FileInput, len(in))
	for i, f := range in {
		out[i] = uafcheck.FileInput{Name: f.Name, Src: f.Src}
	}
	return out
}

// runBatch is the timed loop shared by corpus and pps-dense: whole cold
// passes of AnalyzeFilesContext over the inputs until the run time is
// spent. Verdicts are checked between passes, outside the timer.
// first, when set, sees the first pass's report.
func runBatch(ctx context.Context, in []input, seconds float64, nworkers int, first func(*uafcheck.BatchReport) string, opts ...uafcheck.Option) outcome {
	o := outcome{valid: true}
	files := fileInputs(in)
	opts = append([]uafcheck.Option{uafcheck.WithWorkers(nworkers), uafcheck.WithParallelism(1)}, opts...)
	for pass := 0; o.wall.Seconds() < seconds; pass++ {
		t0 := time.Now()
		br := uafcheck.AnalyzeFilesContext(ctx, files, opts...)
		d := time.Since(t0)
		o.wall += d
		o.passRates = append(o.passRates, float64(len(files))/d.Seconds())
		if pass == 0 {
			var fs []fileStat
			for i, fr := range br.Files {
				fs = append(fs, statOf(in[i].Src, fr.Report))
			}
			o.notes = append(o.notes, properties(fs))
			if first != nil {
				o.notes = append(o.notes, first(br))
			}
		}
		o.windows++
		for i, fr := range br.Files {
			o.files++
			o.verdicts++
			o.attempted++
			o.lat = append(o.lat, float64(fr.Duration)/1e6)
			if fr.Report != nil && fr.Report.Degraded == nil {
				o.decided++
			}
			if fr.Err != nil || !verdictOK(fr.Report, in[i].Ref) {
				o.wrong++
				o.failed++
			}
		}
	}
	return o
}

// warm analyzes a few inputs once so lazy initialization is paid in
// set-up, not in the first timed pass.
func warm(ctx context.Context, in []input, n int, opts ...uafcheck.Option) {
	if n > len(in) {
		n = len(in)
	}
	uafcheck.AnalyzeFilesContext(ctx, fileInputs(in[:n]), append(opts, uafcheck.WithWorkers(workers()))...)
}

func runCorpus(ctx context.Context, seed int64, seconds float64) (outcome, error) {
	setup, in, err := timeSetup(func() ([]input, error) {
		in, err := corpusInputs(seed)
		if err == nil {
			warm(ctx, in, 512)
		}
		return in, err
	})
	if err != nil {
		return outcome{}, err
	}
	o := runBatch(ctx, in, seconds, workers(), func(br *uafcheck.BatchReport) string { return tableI(in, br) })
	o.setup = setup
	o.perInput = true
	return o, nil
}

// tableI recomputes the paper's Table I from one pass: 437 warnings, 63
// of them at labelled true-positive sites, when the benchmark was
// written. The atomics-synchronized tests' references are their
// flagged-but-safe accesses; every other test's references are its
// true sites.
func tableI(in []input, br *uafcheck.BatchReport) string {
	files, warnings, tp := 0, 0, 0
	for i, fr := range br.Files {
		if fr.Report == nil || len(fr.Report.Warnings) == 0 {
			continue
		}
		files++
		warnings += len(fr.Report.Warnings)
		if strings.HasPrefix(in[i].Name, "atomicfp") {
			continue
		}
		for s := range sites(fr.Report.Warnings) {
			if in[i].Ref[s] {
				tp++
			}
		}
	}
	return fmt.Sprintf("table_i files_with_warnings=%d warnings=%d true_positives=%d", files, warnings, tp)
}

func runDense(ctx context.Context, seed int64, seconds float64, root string) (outcome, error) {
	setup, in, err := timeSetup(func() ([]input, error) {
		in, err := ppsDenseInputs(seed, root)
		if err != nil {
			return nil, err
		}
		// Warm up on the small fanouts (at most 6 tasks) and the figures:
		// the same shapes for every seed.
		var small []input
		for _, f := range in {
			if strings.Count(f.Src, "begin with (ref") <= 6 {
				small = append(small, f)
			}
		}
		warm(ctx, small, len(small), uafcheck.WithMaxStates(stateBudget))
		return in, nil
	})
	if err != nil {
		return outcome{}, err
	}
	// One worker: PPS exploration is allocation-bound, and two workers on
	// the two CPUs of the reference host spread run to run by a third
	// (against a twentieth with one).
	o := runBatch(ctx, in, seconds, 1, nil, uafcheck.WithMaxStates(stateBudget))
	o.setup = setup
	return o, nil
}

func toModuleFiles(fs []progen.File) []uafcheck.ModuleFile {
	out := make([]uafcheck.ModuleFile, len(fs))
	for i, f := range fs {
		out[i] = uafcheck.ModuleFile{Name: f.Name, Src: f.Src}
	}
	return out
}

// moduleVerdicts renders a module report as per-file site sets.
func moduleVerdicts(mr *uafcheck.ModuleReport) []map[string]bool {
	out := make([]map[string]bool, len(mr.Files))
	for i, fr := range mr.Files {
		if fr.Report != nil {
			out[i] = sites(fr.Report.Warnings)
		}
	}
	return out
}

// runModules replays every module: one cold AnalyzeModuleContext of the
// generated snapshot, then every snapshot through one Analyzer's
// AnalyzeModuleDelta, in whole passes until the run time is spent. The
// first pass keeps each snapshot's verdict for the reference check.
func runModules(ctx context.Context, seed int64, seconds float64) (outcome, error) {
	setup, mods, err := timeSetup(func() ([]module, error) {
		mods := moduleInputs(seed)
		_, err := uafcheck.AnalyzeModuleContext(ctx, toModuleFiles(mods[0].Snapshots[0]), uafcheck.WithParallelism(1))
		return mods, err
	})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{setup: setup, valid: true, perInput: true}
	got := make([][][]map[string]bool, len(mods))
	analyze := func(f func() (*uafcheck.ModuleReport, error), n int) *uafcheck.ModuleReport {
		t0 := time.Now()
		mr, err := f()
		d := time.Since(t0)
		o.wall += d
		o.lat = append(o.lat, float64(d)/1e6)
		o.files += n
		o.verdicts++
		o.attempted++
		if err != nil {
			o.failed++
			o.wrong++
			return nil
		}
		ok := true
		for _, fr := range mr.Files {
			ok = ok && fr.Report != nil && fr.Report.Degraded == nil
		}
		if ok {
			o.decided++
		}
		return mr
	}
	for pass := 0; o.wall.Seconds() < seconds; pass++ {
		passWall, passFiles := o.wall, o.files
		for m, mod := range mods {
			first := toModuleFiles(mod.Snapshots[0])
			mr := analyze(func() (*uafcheck.ModuleReport, error) {
				return uafcheck.AnalyzeModuleContext(ctx, first, uafcheck.WithParallelism(1))
			}, len(first))
			if pass == 0 && mr != nil {
				got[m] = append(got[m], moduleVerdicts(mr))
			}
			a := uafcheck.NewAnalyzer(uafcheck.WithParallelism(1))
			for _, snap := range mod.Snapshots {
				files := toModuleFiles(snap)
				mr := analyze(func() (*uafcheck.ModuleReport, error) {
					return a.AnalyzeModuleDelta(ctx, files)
				}, len(files))
				if pass == 0 && mr != nil {
					got[m] = append(got[m], moduleVerdicts(mr))
				}
			}
		}
		o.passRates = append(o.passRates, float64(o.files-passFiles)/(o.wall-passWall).Seconds())
		o.windows++
	}
	// References: every snapshot analyzed cold with the legacy inlining
	// lowerer, which shares neither the summary fixpoint nor the unit
	// memo with the measured paths.
	var fs []fileStat
	for m, mod := range mods {
		snaps := append([][]progen.File{mod.Snapshots[0]}, mod.Snapshots...)
		for s, snap := range snaps {
			ref, err := uafcheck.AnalyzeModuleContext(ctx, toModuleFiles(snap), uafcheck.WithInlineLowering(true), uafcheck.WithParallelism(1))
			if err != nil || s >= len(got[m]) {
				o.wrong++
				continue
			}
			if s > 0 {
				for i, fr := range ref.Files {
					fs = append(fs, statOf(snap[i].Src, fr.Report))
				}
			}
			want := moduleVerdicts(ref)
			for i := range want {
				if !sameSet(want[i], got[m][s][i]) {
					o.wrong++
					break
				}
			}
		}
	}
	o.failed = o.wrong
	o.notes = append(o.notes, properties(fs), moduleProperties(mods))
	return o, nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			f := strings.Fields(l)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// fileStat is what decides which layer one file keeps busy: its size
// and how many PPS states its analysis processed.
type fileStat struct {
	bytes, states int
	degraded      bool
}

func statOf(src string, rep *uafcheck.Report) fileStat {
	st := fileStat{bytes: len(src)}
	if rep != nil {
		for _, p := range rep.Stats {
			st.states += p.StatesProcessed
		}
		st.degraded = rep.Degraded != nil
	}
	return st
}

// properties reports the input properties that decide which layer is
// hot: bytes per file, the share of files creating no PPS state,
// states-per-file quantiles and the share stopped by the state budget.
func properties(fs []fileStat) string {
	var states []float64
	zero, over, bytes := 0, 0, 0
	for _, f := range fs {
		bytes += f.bytes
		if f.states == 0 {
			zero++
		}
		if f.degraded {
			over++
		}
		states = append(states, float64(f.states))
	}
	sort.Float64s(states)
	n := float64(max(len(fs), 1))
	return fmt.Sprintf("inputs files=%d bytes_per_file=%.1f zero_state_share=%.4f states_p50=%.0f states_p90=%.0f states_p99=%.0f states_max=%.0f over_budget_share=%.4f",
		len(fs), float64(bytes)/n, float64(zero)/n, quantile(states, 0.5), quantile(states, 0.9),
		quantile(states, 0.99), quantile(states, 1), float64(over)/n)
}

func moduleProperties(mods []module) string {
	snaps, effect := 0, 0
	for _, m := range mods {
		for s := range m.Snapshots {
			snaps++
			if m.Effect[s] {
				effect++
			}
		}
	}
	return fmt.Sprintf("modules=%d snapshots=%d files_per_module=%d procs_per_file=%d escape_edit_share=%.4f",
		len(mods), snaps, moduleFiles, moduleProcs, float64(effect)/float64(snaps-len(mods)))
}
