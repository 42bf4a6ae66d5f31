package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uafcheck"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99},
		{5127, 0.99},
		{500, 0.98},
		{163, 153.0 / 163},
		{11, 1.0 / 11},
		{10, 0.5},
		{0, 0.5},
	} {
		q := tailQuantile(tc.n, 0.99)
		if tc.n > minTail && tc.want < 0.5 {
			tc.want = 0.5
		}
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
	}
	// From 2*minTail samples on, a percentile at or above the median
	// with ten samples beyond it exists; below that the median stands in.
	for n := 2 * minTail; n <= 3000; n++ {
		q := tailQuantile(n, 0.99)
		if b := beyond(n, q); b < minTail {
			t.Fatalf("n=%d: p%v has %d samples beyond it", n, q*100, b)
		}
		// The next rank up would leave fewer than ten beyond, unless
		// the wanted percentile itself is reached.
		if q < 0.99 {
			if b := beyond(n, q+1.0/float64(n)); b >= minTail {
				t.Fatalf("n=%d: p%v is not the highest percentile with ten beyond", n, q*100)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.01: 1, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowedTailIsMedianOfWindows(t *testing.T) {
	var lat []float64
	for _, stall := range []float64{1, 50, 3} { // the middle window stalls
		for i := 0; i < 1000; i++ {
			v := 1.0
			if i%90 == 0 { // 12 slow samples: the p99 is one of them
				v = stall
			}
			lat = append(lat, v)
		}
	}
	d := windowedTail(lat, 3)
	if d.TailQ != 0.99 || d.N != 1000 || d.Tail != 3 {
		t.Fatalf("windowedTail = %+v, want the p99 3 of the middle window by rank", d)
	}
}

func TestInputMediansTakeEachInputsMedianOverPasses(t *testing.T) {
	// Three passes over two inputs; the second pass stalls on input 0.
	lat := []float64{1, 10, 50, 11, 2, 9}
	if got := inputMedians(lat, 3); !reflect.DeepEqual(got, []float64{2, 10}) {
		t.Fatalf("inputMedians = %v, want [2 10]", got)
	}
	if got := inputMedians(lat, 1); !reflect.DeepEqual(got, lat) {
		t.Fatalf("inputMedians over one pass = %v, want the samples", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
		{ID: 6, Parent: 1, Name: "e", Start: 35, End: 38}, // inside a and b
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 3}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	lt := layerTotals(append(spans, span{ID: 7, Name: "a", Start: 200, End: 210}))
	if got := lt["a"]; got.Self != 35 || got.Count != 2 {
		t.Fatalf("layerTotals[a] = %+v, want self 35 over 2 spans", got)
	}
}

func TestGeneratorsAreByteIdenticalPerSeed(t *testing.T) {
	render := func(seed int64) string {
		var b strings.Builder
		c, err := corpusInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ppsDenseInputs(seed, "..")
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range append(c, d...) {
			b.WriteString(in.Name + "\n" + in.Src)
			refs, _ := json.Marshal(in.Ref)
			b.Write(refs)
		}
		for _, m := range moduleInputs(seed) {
			for _, snap := range m.Snapshots {
				for _, f := range snap {
					b.WriteString(f.Name + "\n" + f.Src)
				}
			}
		}
		for _, q := range serveMix(seed, c, 300) {
			b.WriteString(q.path)
			b.Write(q.body)
		}
		return b.String()
	}
	a, b, other := render(7), render(7), render(8)
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if a == other {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestDenseShapesAreSeedIndependent(t *testing.T) {
	count := func(seed int64) map[int]int {
		in, err := ppsDenseInputs(seed, "..")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int]int)
		for _, f := range in[:denseFiles] {
			out[strings.Count(f.Src, "begin with (ref")]++
		}
		return out
	}
	if a, b := count(1), count(2); !reflect.DeepEqual(a, b) {
		t.Fatalf("fanout sizes differ between seeds: %v vs %v", a, b)
	}
}

// The references come from the generators, never from the analyzer;
// the analyzer must agree with them at this commit.
func TestReferencesMatchTheAnalyzer(t *testing.T) {
	d, err := ppsDenseInputs(3, "..")
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpusInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	in := append(d[:40:40], c[:400]...)
	br := uafcheck.AnalyzeFilesContext(context.Background(), fileInputs(in), uafcheck.WithMaxStates(stateBudget))
	for i, fr := range br.Files {
		if !verdictOK(fr.Report, in[i].Ref) {
			t.Errorf("%s: warnings %v, reference %v", in[i].Name, sites(fr.Report.Warnings), in[i].Ref)
		}
	}
}

// Every use-after-free the dynamic oracle observes in a pps-dense
// program must be in that program's reference.
func TestDenseReferencesCoverOracle(t *testing.T) {
	in, err := ppsDenseInputs(5, "..")
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleCheck(in[:denseFiles], 8, 5, func(f input, site string) {
		t.Errorf("%s: oracle observed %s, not in the reference %v", f.Name, site, f.Ref)
	}); n == 0 {
		t.Fatal("the oracle observed no use-after-free in the sample")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if calls.Add(1) <= serveConns {
			time.Sleep(60 * time.Millisecond) // both connections stall
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	reqs := []request{{path: "/", body: []byte("{}")}}
	const n = 20
	idx := make([]int, n)
	start := time.Now().Add(5 * time.Millisecond)
	due := schedule(start, n, 200) // one every 5ms: 12 fall due during the stall
	ss := openLoop(srv.URL, reqs, idx, due, start.Add(time.Second))
	for i, s := range ss {
		if !s.ok() {
			t.Fatalf("request %d failed: %v %d", i, s.err, s.status)
		}
		if !s.due.Equal(due[i]) {
			t.Fatalf("request %d: due %v, scheduled %v", i, s.due, due[i])
		}
		if late := s.lateMS(); late < 0 || late > 20 {
			t.Errorf("request %d handed to a connection %.2fms late", i, late)
		}
		// Requests due during the stall wait for a connection; their
		// latency counts that wait from their due time.
		if stallEnd := start.Add(60 * time.Millisecond); i >= serveConns && due[i].Before(stallEnd) {
			if min := float64(stallEnd.Sub(due[i])) / 1e6; s.latencyMS() < min {
				t.Errorf("request %d: latency %.2fms, but it waited %.2fms for the stall", i, s.latencyMS(), min)
			}
		}
	}
	late := summarize(func() []float64 {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, s.lateMS())
		}
		return xs
	}(), 0.99)
	if late.N != n {
		t.Fatalf("lateness over %d samples, want %d", late.N, n)
	}
}

func TestOpenLoopAbandonsBacklogAtCutoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(30 * time.Millisecond)
	}))
	defer srv.Close()
	reqs := []request{{path: "/", body: []byte("{}")}}
	idx := make([]int, 40)
	start := time.Now()
	ss := openLoop(srv.URL, reqs, idx, schedule(start, 40, 1000), start.Add(50*time.Millisecond))
	a := account(reqs, ss)
	if a.backlog == 0 || a.refused != 0 {
		t.Fatalf("backlog %d refused %d: requests queued past the cutoff count as a backlog, not as refused", a.backlog, a.refused)
	}
}

func TestSustainedRateInterpolates(t *testing.T) {
	steps := []step{{1000, 10, true}, {1200, 20, true}, {1440, 180, false}, {1728, 400, false}}
	// The limit 100 falls half way between 20 and 180.
	if got := sustainedRate(steps, 100); got != 1320 {
		t.Fatalf("sustainedRate = %v, want 1320", got)
	}
	// A noisy failure below a passing step does not cap the rate.
	steps[0].pass, steps[0].tail = false, 150
	if got := sustainedRate(steps, 100); got != 1320 {
		t.Fatalf("sustainedRate with an early failure = %v, want 1320", got)
	}
	if got := sustainedRate([]step{{1000, 200, false}}, 100); got != 500 {
		t.Fatalf("sustainedRate with no passing step = %v, want 500", got)
	}
	if got := sustainedRate([]step{{1000, 5, true}}, 100); got != 1000 {
		t.Fatalf("sustainedRate with every step passing = %v, want 1000", got)
	}
}

func TestTaskAccessSites(t *testing.T) {
	src := "proc p() {\n  var x: int = 1;\n  var f: atomic int;\n  begin with (ref x) {\n    x = x + 1;\n    writeln(x);\n    f.write(1);\n  }\n  writeln(x);\n  f.waitFor(1);\n}\n"
	got := taskAccessSites(src)
	if want := []string{"x:5", "x:6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("taskAccessSites = %v, want %v", got, want)
	}
}
