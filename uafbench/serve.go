package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"uafcheck/internal/wire"
)

// Serve-edge calibration, measured on a 2-CPU host when the benchmark
// was written (see README.md): capacity was 2000-3000 requests/s, so
// the fixed offered rate sits well below it; the p99 limit sits where
// latency turns up at saturation; and the sweep brackets capacity in
// 12% steps so the sustained rate interpolates between two
// neighbouring steps. The served pps-dense files have 8 tasks so that
// the p99 (two in every hundred requests) reads their analysis time
// rather than queueing noise.
const (
	serveRate    = 800.0  // requests/s offered in the fixed-rate phase
	serveLimitMS = 100.0  // p99 limit a sweep step must meet
	sweepStart   = 1600.0 // requests/s of the first sweep step
	sweepFactor  = 1.12   // rate multiplier between sweep steps
	sweepSteps   = 8      // maximum number of sweep steps
	genLateBound = 10.0   // ms: a run whose generator p99 lateness exceeds this is invalid
	hotSet       = 512    // corpus files the hot set draws from (fits the 1024-entry cache)
	hotShare     = 0.7    // share of corpus requests drawn from the hot set
	batchFiles   = 8      // files per batch request
	serveConns   = 2      // HTTP connections of the load generator
	serveTasks   = 8      // fanout of the served pps-dense files (no ladders)
)

// proc is one running uafserve process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startServe launches uafserve with args and waits for its listening
// line.
func startServe(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	// The child dies with the benchmark even when the benchmark itself
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start uafserve: %w", err)
	}
	p := &proc{cmd: cmd}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			p.base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if p.base == "" {
		p.stop()
		return nil, fmt.Errorf("uafserve %v exited before listening", args)
	}
	go io.Copy(io.Discard, out) //nolint:errcheck // drains until the process exits
	return p, nil
}

// stop terminates the process and waits for it to exit.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

func (p *proc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

// cluster is a coordinator in front of one worker.
type cluster struct {
	worker, coord *proc
}

func bootCluster(bin string) (*cluster, error) {
	w, err := startServe(bin, "-mode", "worker", "-par", "1")
	if err != nil {
		return nil, err
	}
	c, err := startServe(bin, "-mode", "coordinator", "-workers", w.base)
	if err != nil {
		w.stop()
		return nil, err
	}
	cl := &cluster{worker: w, coord: c}
	// Ready once a request analyzes through the hop.
	body, _ := json.Marshal(map[string]string{"name": "ready.chpl", "src": "proc main() { }\n"})
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Post(c.base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cl, nil
			}
		}
		if time.Now().After(deadline) {
			cl.stop()
			return nil, fmt.Errorf("coordinator not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *cluster) stop() {
	c.coord.stop()
	c.worker.stop()
}

// request is one generated HTTP request of the serve mix.
type request struct {
	path  string
	body  []byte
	files []input // the analyzed files with their references
	hot   bool    // content drawn from the cache hot set
}

// serveMix generates n requests for seed. In every 100 consecutive
// requests, slot 0 is a /v1/analyze-batch of batchFiles tail files,
// slots 25 and 75 carry a fresh pps-dense fanout of serveTasks tasks
// (a cache miss whose cost is the exploration), and the other 97 are
// corpus files, hotShare of them from a hot set that fits the report
// cache and the rest from the tail that does not. Fixed slots keep the
// expensive requests' share and cost the same in every window, so the
// p99 reads one class of request instead of a seed-dependent mix.
func serveMix(seed int64, corpusIn []input, n int) []request {
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	perm := r.Perm(len(corpusIn))
	hot, tail := perm[:hotSet], perm[hotSet:]
	out := make([]request, n)
	for i := range out {
		switch i % 100 {
		case 0:
			type bf struct {
				Name string `json:"name"`
				Src  string `json:"src"`
			}
			var files []bf
			req := request{path: "/v1/analyze-batch"}
			for j := 0; j < batchFiles; j++ {
				f := corpusIn[tail[r.Intn(len(tail))]]
				files = append(files, bf{f.Name, f.Src})
				req.files = append(req.files, f)
			}
			req.body, _ = json.Marshal(map[string]any{"files": files})
			out[i] = req
		case 25, 75:
			sh := shape{tasks: serveTasks, omit: r.Intn(3) == 0, copyIn: r.Intn(4) == 0}
			out[i] = analyzeRequest(genFanout(r, fmt.Sprintf("serve-dense%05d.chpl", i), sh), false, 0)
		default:
			if r.Float64() < hotShare {
				out[i] = analyzeRequest(corpusIn[hot[r.Intn(len(hot))]], true, 0)
			} else {
				out[i] = analyzeRequest(corpusIn[tail[r.Intn(len(tail))]], false, 0)
			}
		}
	}
	return out
}

// file is the request's file called name, or nil.
func (q request) file(name string) *input {
	for i := range q.files {
		if q.files[i].Name == name {
			return &q.files[i]
		}
	}
	return nil
}

// analyzeRequest is a /v1/analyze request for one file, under the
// state budget maxStates (0 for the server's default).
func analyzeRequest(f input, hot bool, maxStates int) request {
	body := map[string]any{"name": f.Name, "src": f.Src}
	if maxStates > 0 {
		body["options"] = map[string]int{"max_states": maxStates}
	}
	b, _ := json.Marshal(body)
	return request{path: "/v1/analyze", body: b, files: []input{f}, hot: hot}
}

// sample is one request's timing and response.
type sample struct {
	req        int
	due, sent  time.Time
	done       time.Time
	status     int
	cacheHit   bool
	body       []byte
	err        error
	notStarted bool // still queued when the phase was cut off
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK && !s.notStarted }

// latencyMS is the time from when the request was due to its
// completion: a stall delays every later request and shows here.
func (s sample) latencyMS() float64 { return float64(s.done.Sub(s.due)) / 1e6 }

// lateMS is how late the generator handed the request to a connection.
func (s sample) lateMS() float64 { return float64(s.sent.Sub(s.due)) / 1e6 }

// schedule returns the due times of n requests at rate per second.
func schedule(start time.Time, n int, rate float64) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// openLoop sends reqs[i] at due[i] regardless of earlier responses,
// over serveConns keep-alive connections. A request due while both
// connections are busy waits in the generator's queue; its latency
// still counts from the due time. Requests not started by cutoff are
// abandoned and marked notStarted (a growing backlog).
func openLoop(base string, reqs []request, idx []int, due []time.Time, cutoff time.Time) []sample {
	out := make([]sample, len(idx))
	queue := make(chan int, len(idx)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := range queue {
				if time.Now().After(cutoff) {
					out[i].notStarted = true
					continue
				}
				post(client, base, reqs[out[i].req], &out[i])
			}
		}()
	}
	for i := range idx {
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		out[i].req, out[i].due, out[i].sent = idx[i], due[i], time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends q and records the outcome and completion time in s.
func post(client *http.Client, base string, q request, s *sample) {
	resp, err := client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.cacheHit = resp.Header.Get("X-Uafserve-Cache") == "hit"
	}
	s.err = err
	s.done = time.Now()
}

// closedLoop keeps every connection busy for dur, each sending its
// next request as soon as the previous one completes: the edge's
// capacity. Requests are drawn round-robin from the mix at *next.
func closedLoop(base string, reqs []request, next *int, dur time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(end) {
				mu.Lock()
				s := sample{req: *next % len(reqs)}
				*next++
				mu.Unlock()
				s.due = time.Now()
				s.sent = s.due
				post(client, base, reqs[s.req], &s)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// phase runs one open-loop phase of dur at rate, drawing requests
// round-robin from the mix starting at *next.
func phase(base string, reqs []request, next *int, rate float64, dur time.Duration) []sample {
	n := int(rate * dur.Seconds())
	idx := make([]int, n)
	for i := range idx {
		idx[i] = *next % len(reqs)
		*next++
	}
	start := time.Now().Add(time.Millisecond)
	due := schedule(start, n, rate)
	return openLoop(base, reqs, idx, due, start.Add(dur+dur/2))
}

// served is the accounting of a set of samples.
type served struct {
	lat     []float64
	late    []float64
	refused int
	files   int
	decided int
	wrong   int
	backlog int
}

// account classifies samples and checks every response's verdicts
// against the request's references.
func account(reqs []request, ss []sample) served {
	var a served
	for _, s := range ss {
		a.late = append(a.late, s.lateMS())
		if s.notStarted {
			// Never sent: a growing backlog, not a failed request.
			a.backlog++
			continue
		}
		if !s.ok() {
			a.refused++
			continue
		}
		a.lat = append(a.lat, s.latencyMS())
		q := reqs[s.req]
		res, err := decodeResults(s.body)
		if err != nil || len(res) == 0 {
			a.wrong++
			continue
		}
		for _, r := range res {
			a.files++
			if r.Status == "ok" {
				a.decided++
			}
			if f := q.file(r.Name); f == nil || !verdictOK(r.Report, f.Ref) {
				a.wrong++
			}
		}
	}
	return a
}

func allOK(rs []wire.Result) bool {
	for _, r := range rs {
		if r.Status != "ok" {
			return false
		}
	}
	return len(rs) > 0
}

// decodeResults parses a /v1/analyze body (one wire.Result) or a
// /v1/analyze-batch NDJSON stream (one per line, in completion order).
func decodeResults(body []byte) ([]wire.Result, error) {
	var out []wire.Result
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var r wire.Result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// runServe boots the cluster setupReps times (set-up: input
// generation, both processes, cache warm-up of the hot set), then runs
// a fixed-rate phase and a stepped rate sweep against the coordinator.
func runServe(ctx context.Context, cfg config) (outcome, error) {
	var cl *cluster
	var reqs []request
	setup, _, err := timeSetup(func() (struct{}, error) {
		if cl != nil {
			cl.stop()
		}
		in, err := corpusInputs(cfg.seed)
		if err != nil {
			return struct{}{}, err
		}
		reqs = serveMix(cfg.seed, in, int(serveRate*cfg.seconds*4))
		if cl, err = bootCluster(cfg.uafserve); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, warmHot(cl.coord.base, reqs)
	})
	if err != nil {
		return outcome{}, err
	}
	defer cl.stop()

	next := 0
	// 60% of the run at the fixed rate (its p99 is a median over
	// windows, which needs the samples), 25% sweeping, 15% closed loop.
	fixedDur := time.Duration(cfg.seconds * 0.6 * float64(time.Second))
	fixed := phase(cl.coord.base, reqs, &next, serveRate, fixedDur)
	fa := account(reqs, fixed)
	// Sweep: climb from above the fixed rate until two consecutive steps
	// miss the p99 limit or leave a backlog.
	stepDur := time.Duration(cfg.seconds * 0.25 / sweepSteps * float64(time.Second))
	var steps []step
	var sweepLog []string
	all := fa
	for i, rate, fails := 0, sweepStart, 0; i < sweepSteps && fails < 2; i, rate = i+1, rate*sweepFactor {
		a := account(reqs, phase(cl.coord.base, reqs, &next, rate, stepDur))
		all = merge(all, a)
		d := summarize(a.lat, 0.99)
		st := step{rate: rate, tail: d.Tail, pass: a.refused == 0 && a.backlog == 0 && d.Tail <= serveLimitMS}
		steps = append(steps, st)
		if st.pass {
			fails = 0
		} else {
			fails++
		}
		sweepLog = append(sweepLog, fmt.Sprintf("%.0f/s:p%s=%.2fms,backlog=%d", rate, pct(d.TailQ), d.Tail, a.backlog))
	}
	sustained := sustainedRate(steps, serveLimitMS)
	closed, closedWall := closedLoop(cl.coord.base, reqs, &next, time.Duration(cfg.seconds*0.15*float64(time.Second)))
	ca := account(reqs, closed)
	all = merge(all, ca)
	rss, err := peakRSSMB(cl.worker.pid())
	if err != nil {
		return outcome{}, err
	}
	rejects := scrapeCounter(cl.worker.base, "uafcheck_server_rejects")

	windows := max(len(fa.lat)/1000, 1)
	lat := windowedTail(fa.lat, windows)
	late := summarize(all.late, 0.99)
	hot := 0
	var fs []fileStat
	for _, s := range fixed {
		if reqs[s.req].hot {
			hot++
		}
		res, _ := decodeResults(s.body)
		for _, r := range res {
			if f := reqs[s.req].file(r.Name); f != nil {
				fs = append(fs, statOf(f.Src, r.Report))
			}
		}
	}
	o := outcome{
		setup:     setup,
		wall:      fixedDur,
		files:     fa.files,
		lat:       fa.lat,
		decided:   all.decided,
		verdicts:  all.files,
		wrong:     all.wrong,
		attempted: len(all.late) - all.backlog,
		failed:    all.refused + all.wrong,
		rate:      float64(ca.files) / closedWall.Seconds(),
		rss:       rss,
		windows:   windows,
		valid:     late.Tail <= genLateBound,
	}
	o.notes = append(o.notes,
		fmt.Sprintf("serve_ms_p50 %.4f ms (fixed rate %.0f/s, %d requests)", lat.P50, serveRate, len(fa.lat)),
		fmt.Sprintf("serve_ms_p99 %.4f ms (median of %d windows' p%s, %d samples each)", lat.Tail, windows, pct(lat.TailQ), lat.N),
		fmt.Sprintf("serve_max_rps %.2f 1/s (p99 limit %.0f ms; sweep %s)", sustained, serveLimitMS, strings.Join(sweepLog, " ")),
		fmt.Sprintf("refused_share %.6f ratio (%d of %d sent; admission rejects %d; %d never sent past saturation)", float64(all.refused)/float64(max(len(all.late)-all.backlog, 1)), all.refused, len(all.late)-all.backlog, rejects, all.backlog),
		fmt.Sprintf("gen_late_ms_p99 %.4f ms (bound %.0f ms)", late.Tail, genLateBound),
		properties(fs),
		fmt.Sprintf("hot_share=%.4f of %d fixed-rate requests", float64(hot)/float64(max(len(fixed), 1)), len(fixed)),
	)
	return o, nil
}

// step is one rate of the sweep: its p99 and whether it met the limit
// with every request served and none left queued.
type step struct {
	rate, tail float64
	pass       bool
}

// sustainedRate is the highest passing rate of the sweep, moved toward
// the next (failing) step by where the limit falls between the two
// steps' p99. With no passing step it scales the first step down by
// limit/p99.
func sustainedRate(steps []step, limit float64) float64 {
	best := -1
	for i, s := range steps {
		if s.pass {
			best = i
		}
	}
	if best < 0 {
		if len(steps) == 0 {
			return 0
		}
		return steps[0].rate * limit / max(steps[0].tail, limit)
	}
	lo := steps[best]
	if best+1 == len(steps) {
		return lo.rate
	}
	hi := steps[best+1]
	f := (limit - lo.tail) / max(hi.tail-lo.tail, 1e-9)
	return lo.rate + (hi.rate-lo.rate)*min(max(f, 0), 1)
}

// windowedTail splits samples into windows of equal request count and
// returns the median of the windows' p99 latencies: a single stall
// moves one window, not the result.
func windowedTail(lat []float64, windows int) dist {
	n := len(lat) / windows
	if n == 0 {
		return summarize(lat, 0.99)
	}
	var tails []float64
	var q float64
	for w := 0; w < windows; w++ {
		d := summarize(lat[w*n:(w+1)*n], 0.99)
		tails = append(tails, d.Tail)
		q = d.TailQ
	}
	return dist{N: n, P50: quantile(sortedCopy(lat), 0.5), Tail: median(tails), TailQ: q}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func merge(a, b served) served {
	a.lat = append(a.lat, b.lat...)
	a.late = append(a.late, b.late...)
	a.refused += b.refused
	a.files += b.files
	a.decided += b.decided
	a.wrong += b.wrong
	a.backlog += b.backlog
	return a
}

// warmHot sends every hot-set request once so the fixed-rate phase
// starts with the hot set cached.
func warmHot(base string, reqs []request) error {
	seen := make(map[string]bool)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, q := range reqs {
		if !q.hot || seen[string(q.body)] {
			continue
		}
		seen[string(q.body)] = true
		resp, err := client.Post(base+q.path, "application/json", bytes.NewReader(q.body))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	return nil
}

// scrapeCounter reads one unlabelled series from a /metrics page (0
// when absent: counters appear once they are non-zero).
func scrapeCounter(base, name string) int64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseInt(f[1], 10, 64)
			return v
		}
	}
	return 0
}

// serveLayers is what the traced serve pass measured.
type serveLayers struct {
	attempted, failed int
	hitRatio          float64
	hitP50, missP50   float64
	rejects           int64
	hop               dist
}

// servePass sends the requests one at a time over one connection: a
// first round through the coordinator (cache hits and misses as the
// mix produces them), then a second round where each request goes
// through the coordinator and straight to the worker, both now cache
// hits, so their difference is the proxy hop.
func servePass(bin string, t *tracer, reqs []request, warmed bool) (serveLayers, error) {
	var sv serveLayers
	start := time.Now()
	cl, err := bootCluster(bin)
	if err != nil {
		return sv, err
	}
	defer cl.stop()
	if warmed {
		if err := warmHot(cl.coord.base, reqs); err != nil {
			return sv, err
		}
	}
	t.add("serve.boot", 0, 0, start, time.Now())
	client := newClient()
	defer client.CloseIdleConnections()
	send := func(name, base string, i int) sample {
		s := sample{req: i, due: time.Now()}
		s.sent = s.due
		post(client, base, reqs[i], &s)
		t.add(name, 0, i+1, s.due, s.done)
		return s
	}
	var first, coord, direct []sample
	var hit, miss, hop []float64
	var cached []int // requests whose reports the cache keeps (not degraded)
	for i := range reqs {
		s := send("serve.coordinator", cl.coord.base, i)
		first = append(first, s)
		if s.cacheHit {
			hit = append(hit, s.latencyMS())
		} else {
			miss = append(miss, s.latencyMS())
		}
		if res, err := decodeResults(s.body); err == nil && s.ok() && allOK(res) {
			cached = append(cached, i)
		}
	}
	if len(cached) == 0 {
		return sv, fmt.Errorf("serve: no request produced a cacheable report")
	}
	// Enough pairs that the p99 has ten samples beyond it.
	for n := 0; n < max(len(cached), 1000); n++ {
		i := cached[n%len(cached)]
		c := send("serve.coordinator", cl.coord.base, i)
		d := send("serve.worker", cl.worker.base, i)
		coord, direct = append(coord, c), append(direct, d)
		if c.cacheHit {
			hit = append(hit, c.latencyMS())
		}
		if c.cacheHit && d.cacheHit {
			hop = append(hop, c.latencyMS()-d.latencyMS())
		}
	}
	all := append(append(first, coord...), direct...)
	a := account(reqs, all)
	sv.attempted = len(all)
	sv.failed = a.refused + a.wrong
	hits := 0
	for _, s := range first {
		if s.cacheHit {
			hits++
		}
	}
	sv.hitRatio = float64(hits) / float64(max(len(first), 1))
	sv.hitP50 = summarize(hit, 0.5).P50
	sv.missP50 = summarize(miss, 0.5).P50
	sv.hop = summarize(hop, 0.99)
	sv.rejects = scrapeCounter(cl.worker.base, "uafcheck_server_rejects")
	return sv, nil
}
