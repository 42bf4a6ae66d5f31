// Determinism contract of the parallel wave explorer: for every
// parallelism level the analysis must produce byte-identical reports —
// same warnings, same order, same stats, same counters, same traces.
// This file is also the -race coverage for the parallel path (run via
// `make test-race` / `make check`).
package uafcheck_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"uafcheck"
	"uafcheck/internal/obs"
)

// canonicalReport serializes a report with the only legitimately
// nondeterministic data zeroed out: span wall-clock timings,
// wall-clock histogram families (`*_ns`, see obs.HistNondeterministic),
// and the trace span tree.
func canonicalReport(t *testing.T, rep *uafcheck.Report) []byte {
	t.Helper()
	cp := rep.Clone()
	for i := range cp.Metrics.Spans {
		cp.Metrics.Spans[i].Start = 0
		cp.Metrics.Spans[i].Dur = 0
	}
	for name := range cp.Metrics.Hists {
		if obs.HistNondeterministic(name) {
			delete(cp.Metrics.Hists, name)
		}
	}
	if len(cp.Metrics.Hists) == 0 {
		cp.Metrics.Hists = nil
	}
	cp.Metrics.Trace = nil
	buf, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// determinismInputs is the test program set: a scaled-down corpus (all
// generator patterns), the paper's figure programs, a wide fanout whose
// frontiers are broad enough to actually spin up wave workers, and a
// branch-ladder fanout whose fires fork several successors each, so
// every worker reuses its scratch across many multi-combo fires.
func determinismInputs(t *testing.T) []uafcheck.FileInput {
	t.Helper()
	var files []uafcheck.FileInput
	cases := uafcheck.GenerateCorpus(uafcheck.CorpusParams{
		Seed: 7, Tests: 120, BeginTests: 48,
		UnsafeTests: 6, TrueSites: 14, AtomicFPTests: 6, FalseSites: 20,
	})
	for _, c := range cases {
		files = append(files, uafcheck.FileInput{Name: c.Name + ".chpl", Src: c.Source})
	}
	for _, path := range []string{"testdata/figure1.chpl", "testdata/figure6.chpl"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, uafcheck.FileInput{Name: path, Src: string(data)})
	}
	files = append(files, uafcheck.FileInput{Name: "fan.chpl", Src: syntheticFanout(7, 2)})
	files = append(files, uafcheck.FileInput{Name: "ladder.chpl", Src: ladderFanout(6, 2)})
	return files
}

// TestParallelDeterminism analyzes every input at Parallelism 1, 4 and
// GOMAXPROCS (plus the 0 default) and requires the canonical reports to
// be byte-identical to the sequential baseline.
func TestParallelDeterminism(t *testing.T) {
	files := determinismInputs(t)
	ctx := context.Background()
	levels := []int{1, 4, runtime.GOMAXPROCS(0), 0}

	baseline := make(map[string][]byte, len(files))
	for _, f := range files {
		rep, err := uafcheck.AnalyzeContext(ctx, f.Name, f.Src,
			uafcheck.WithTrace(true), uafcheck.WithParallelism(1))
		if err != nil {
			continue // frontend-rejected corpus cases are out of scope
		}
		baseline[f.Name] = canonicalReport(t, rep)
	}
	if len(baseline) < 100 {
		t.Fatalf("only %d analyzable inputs; corpus generation drifted", len(baseline))
	}

	for _, par := range levels[1:] {
		for _, f := range files {
			want, ok := baseline[f.Name]
			if !ok {
				continue
			}
			rep, err := uafcheck.AnalyzeContext(ctx, f.Name, f.Src,
				uafcheck.WithTrace(true), uafcheck.WithParallelism(par))
			if err != nil {
				t.Fatalf("Parallelism=%d: %s: %v", par, f.Name, err)
			}
			if got := canonicalReport(t, rep); string(got) != string(want) {
				t.Errorf("Parallelism=%d: %s: report differs from sequential baseline\nseq: %s\npar: %s",
					par, f.Name, want, got)
			}
		}
	}
}

// TestBatchReportUnification: a file analyzed through AnalyzeFiles must
// produce a report structurally identical to the single-file entry
// point — same type, same warnings, same stats; only span timings and
// the batch-level telemetry wrapper may differ.
func TestBatchReportUnification(t *testing.T) {
	data, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	ctx := context.Background()

	single, err := uafcheck.AnalyzeContext(ctx, "figure1.chpl", src, uafcheck.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	batch := uafcheck.AnalyzeFilesContext(ctx,
		[]uafcheck.FileInput{{Name: "figure1.chpl", Src: src}},
		uafcheck.WithTrace(true))
	if len(batch.Files) != 1 {
		t.Fatalf("batch files = %d", len(batch.Files))
	}
	fr := batch.Files[0]
	if fr.Report == nil {
		t.Fatal("batch per-file report is nil")
	}
	if got, want := canonicalReport(t, fr.Report), canonicalReport(t, single); string(got) != string(want) {
		t.Errorf("batch report differs from single-file report\nsingle: %s\nbatch:  %s", want, got)
	}
}

// TestReportCloneIsDeep: mutating a clone must never reach the original.
func TestReportCloneIsDeep(t *testing.T) {
	data, err := os.ReadFile("testdata/figure1.chpl")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := uafcheck.AnalyzeContext(context.Background(), "figure1.chpl", string(data),
		uafcheck.WithTrace(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) == 0 || rep.Warnings[0].Prov == nil || len(rep.PPSTraces) == 0 {
		t.Fatalf("test premise broken: need warnings with provenance and traces, got %+v", rep)
	}
	want := canonicalReport(t, rep)

	cp := rep.Clone()
	cp.Warnings[0].Var = "tampered"
	cp.Warnings[0].Prov.Chain = append(cp.Warnings[0].Prov.Chain, "tampered")
	cp.Notes = append(cp.Notes, "tampered")
	cp.Stats[0].Proc = "tampered"
	for k := range cp.PPSTraces {
		cp.PPSTraces[k] = "tampered"
	}
	if cp.Metrics.Counters != nil {
		cp.Metrics.Counters["tampered"] = 1
	}

	if got := canonicalReport(t, rep); string(got) != string(want) {
		t.Error("mutating the clone changed the original report")
	}
}
