// Command uafbench is uafcheck's benchmark: it times the analysis end
// to end on four workloads (corpus, pps-dense, module-edit,
// serve-edge), checks every verdict against a reference, and with
// -trace 1 breaks the time down by layer from spans it records around
// calls into each layer. See README.md in this directory.
//
// Run it from the root of a uafcheck checkout through run.sh, which
// builds this package and uafserve first:
//
//	bash uafbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root (testdata, trace output)
	uafserve string // uafserve binary
	outDir   string // where traces are written
}

func main() {
	var cfg config
	var traceFlag int
	var seconds int
	flag.StringVar(&cfg.workload, "workload", "", "corpus, pps-dense, module-edit or serve-edge")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
	flag.StringVar(&cfg.root, "root", ".", "root of the uafcheck checkout")
	flag.StringVar(&cfg.uafserve, "uafserve", ".bench_build/uafserve", "uafserve binary")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for trace files")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = traceFlag == 1
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "uafbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uafbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uafbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(ctx context.Context, cfg config) (result, error) {
	if _, err := os.Stat(filepath.Join(cfg.root, "testdata", "figure1.chpl")); err != nil {
		return result{}, fmt.Errorf("not a uafcheck checkout: %w", err)
	}
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	var o outcome
	var err error
	switch cfg.workload {
	case "corpus":
		o, err = runCorpus(ctx, cfg.seed, cfg.seconds)
	case "pps-dense":
		o, err = runDense(ctx, cfg.seed, cfg.seconds, cfg.root)
	case "module-edit":
		o, err = runModules(ctx, cfg.seed, cfg.seconds)
	case "serve-edge":
		o, err = runServe(ctx, cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return result{}, err
	}
	if o.rss == 0 {
		if o.rss, err = peakRSSMB("self"); err != nil {
			return result{}, err
		}
	}
	return o.result(cfg.workload), nil
}

// result turns a timed outcome into the reported metrics, printing the
// human-readable details (tail quantile and sample count, input
// properties) first.
func (o outcome) result(workload string) result {
	// Tails are medians over windows (passes) of at least 1000 samples,
	// or percentiles over inputs of each input's median over the passes.
	lat := windowedTail(o.lat, max(min(o.windows, len(o.lat)/1000), 1))
	how := fmt.Sprintf("the median over %d windows of each window's p%s", len(o.lat)/max(lat.N, 1), pct(lat.TailQ))
	if o.perInput {
		lat = summarize(inputMedians(o.lat, o.windows), 0.99)
		how = fmt.Sprintf("the p%s over inputs of each input's median over %d passes", pct(lat.TailQ), o.windows)
	}
	m := map[string]metric{
		"setup_s":        {median(o.setup), "s"},
		"files_per_s":    {o.rate, "1/s"},
		"verdict_ms_p50": {lat.P50, "ms"},
		"verdict_ms_p99": {lat.Tail, "ms"},
		"decided_share":  {float64(o.decided) / float64(max(o.verdicts, 1)), "ratio"},
		"peak_rss_mb":    {o.rss, "MiB"},
	}
	if o.rate == 0 {
		m["files_per_s"] = metric{median(o.passRates), "1/s"}
	}
	fmt.Printf("workload %s: %d verdicts in %.3fs; verdict_ms_p99 is %s (%d samples, %d beyond it)\n",
		workload, o.verdicts, o.wall.Seconds(), how, lat.N, beyond(lat.N, lat.TailQ))
	fmt.Printf("wrong_verdicts %d count\n", o.wrong)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', -1, 64), m[k].Unit)
	}
	return result{
		Correct:   o.wrong == 0 && o.valid,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   m,
	}
}

func pct(q float64) string { return strconv.FormatFloat(q*100, 'f', -1, 64) }
