package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"uafcheck"
	"uafcheck/internal/ast"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/ir"
	"uafcheck/internal/modgraph"
	"uafcheck/internal/parser"
	"uafcheck/internal/pps"
	"uafcheck/internal/progen"
	"uafcheck/internal/source"
	"uafcheck/internal/sym"
	"uafcheck/internal/wire"
)

// unit is one input of the traced run: a single file, or one snapshot
// of a module.
type unit struct {
	files  []input
	module bool
}

func (u unit) name() string {
	if u.module {
		return strings.TrimSuffix(u.files[0].Name, ".chpl") + "+"
	}
	return u.files[0].Name
}

// counts are what the traced layer calls observed for one unit; the
// fidelity check compares them with the public report's counters.
type counts struct {
	roots, nodes, tasks, pruned      int
	processed, merged, forked, waves int
	budgetStops                      int
	sites                            map[string]bool // "file|var:line"
}

// layers calls each layer's public function under a span. It runs on
// one goroutine. With allocs set it also records the heap allocations
// each call made; reading them stops the world, so that is a separate
// pass whose times are not used.
type layers struct {
	t      *tracer
	budget int
	allocs bool
}

func (l *layers) call(name string, parent, req int, fn func()) {
	if !l.allocs {
		id := l.t.start(name, parent, req)
		fn()
		l.t.end(id)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := l.t.start(name, parent, req)
	fn()
	l.t.end(id)
	runtime.ReadMemStats(&after)
	sp := &l.t.spans[id-1]
	sp.Allocs = after.Mallocs - before.Mallocs
	sp.Bytes = after.TotalAlloc - before.TotalAlloc
}

// file runs the single-file pipeline the way the analysis driver
// does: parse, resolve, the synced-scope rule (§III-A), then lower,
// build and prune the CCFG, and explore PPS for every procedure that
// contains a begin.
func (l *layers) file(req int, in input) (counts, error) {
	c := counts{sites: make(map[string]bool)}
	fid := l.t.start("file", 0, req)
	defer l.t.end(fid)
	f := source.NewFile(in.Name, in.Src)
	diags := &source.Diagnostics{}
	var mod *ast.Module
	l.call("parse", fid, req, func() { mod = parser.Parse(f, diags) })
	if diags.HasErrors() {
		return c, fmt.Errorf("%s: parse errors", in.Name)
	}
	var info *sym.Info
	l.call("resolve", fid, req, func() { info = sym.Resolve(mod, diags) })
	if diags.HasErrors() {
		return c, fmt.Errorf("%s: resolve errors", in.Name)
	}
	synced := syncedRefParams(callSites(mod, info), info)
	for _, proc := range mod.Procs {
		if ast.HasBegin(proc) {
			l.root(&c, req, fid, info, proc, synced, ir.LowerOptions{}, f, diags)
		}
	}
	return c, nil
}

// linkAlone links a single file as a one-file module (the path of
// `uafcheck -module file`), on a fresh parse.
func (l *layers) linkAlone(req int, in input) {
	f := source.NewFile(in.Name, in.Src)
	aux := &modgraph.File{Name: in.Name, Src: f, Mod: parser.Parse(f, &source.Diagnostics{}), Diags: &source.Diagnostics{}}
	l.call("link", 0, req, func() { modgraph.Link([]*modgraph.File{aux}) })
}

// resolveAlone times resolution of a module's files on their own,
// against a linker scope of every file's procedures, on fresh parses:
// in the module pipeline resolution happens inside link.
func (l *layers) resolveAlone(req int, files []input) {
	linker := sym.NewLinkerScope()
	aux := make([]*ast.Module, len(files))
	for i, in := range files {
		aux[i] = parser.ParseSource(in.Name, in.Src, &source.Diagnostics{})
		for _, p := range aux[i].Procs {
			sym.DeclareExtern(linker, p)
		}
	}
	for _, m := range aux {
		l.call("resolve", 0, req, func() { sym.ResolveWith(m, &source.Diagnostics{}, linker) })
	}
}

// module runs the whole-module pipeline: parse every file, link them
// (cross-file resolution and the summary fixpoint), the cross-file
// synced-scope rule, then the per-root layers with callee summaries
// spliced in by the lowering.
func (l *layers) module(req int, files []input) (counts, error) {
	c := counts{sites: make(map[string]bool)}
	mid := l.t.start("module", 0, req)
	defer l.t.end(mid)
	mfiles := make([]*modgraph.File, len(files))
	for i, in := range files {
		f := source.NewFile(in.Name, in.Src)
		diags := &source.Diagnostics{}
		var mod *ast.Module
		l.call("parse", mid, req, func() { mod = parser.Parse(f, diags) })
		mfiles[i] = &modgraph.File{Name: in.Name, Src: f, Mod: mod, Diags: diags}
	}
	var g *modgraph.Graph
	l.call("link", mid, req, func() { g = modgraph.Link(mfiles) })
	for _, mf := range mfiles {
		if mf.Diags.HasErrors() || len(g.Unresolved) > 0 {
			return c, fmt.Errorf("%s: frontend errors", mf.Name)
		}
	}
	sites := make(map[*ast.ProcDecl]*siteInfo)
	for _, mf := range g.Files {
		for d, si := range callSites(mf.Mod, mf.Info) {
			m := sites[d]
			if m == nil {
				m = &siteInfo{}
				sites[d] = m
			}
			m.calls += si.calls
			m.synced += si.synced
		}
	}
	synced := make(map[*sym.Symbol]bool)
	for _, mf := range g.Files {
		own := make(map[*ast.ProcDecl]*siteInfo)
		for d, si := range sites {
			if mf.Info.ProcSyms[d] != nil {
				own[d] = si
			}
		}
		for s := range syncedRefParams(own, mf.Info) {
			synced[s] = true
		}
	}
	low := ir.LowerOptions{Effects: g.Effects}
	for _, mf := range mfiles {
		for _, proc := range mf.Mod.Procs {
			if g.NeedsAnalysis(proc) {
				l.root(&c, req, mid, mf.Info, proc, synced, low, mf.Src, mf.Diags)
			}
		}
	}
	return c, nil
}

func (l *layers) root(c *counts, req, parent int, info *sym.Info, proc *ast.ProcDecl,
	synced map[*sym.Symbol]bool, low ir.LowerOptions, f *source.File, diags *source.Diagnostics) {
	rid := l.t.start("root", parent, req)
	var prog *ir.Program
	l.call("lower", rid, req, func() { prog = ir.LowerWith(info, proc, diags, low) })
	var g *ccfg.Graph
	l.call("ccfg", rid, req, func() {
		g = ccfg.Build(prog, diags, ccfg.BuildOptions{Prune: true, SyncedRefParams: synced})
	})
	var r *pps.Result
	l.call("pps", rid, req, func() { r = pps.Explore(g, pps.Options{MaxStates: l.budget, Parallelism: 1}) })
	l.t.end(rid)
	st := g.Stats()
	c.roots++
	c.nodes += st.Nodes
	c.tasks += st.Tasks
	c.pruned += st.PrunedTasks
	c.processed += r.Stats.StatesProcessed
	c.merged += r.Stats.StatesMerged
	c.forked += r.Stats.StatesForked
	c.waves += r.Stats.Waves
	if r.Stats.Stop == pps.StopBudget {
		c.budgetStops++
	}
	for _, u := range r.Unsafe {
		c.sites[fmt.Sprintf("%s|%s:%d", f.Name, u.Access.Sym.Name, f.Line(u.Access.Sp.Start))] = true
	}
}

// siteInfo and callSites re-do the driver's synced-scope accounting
// (§III-A) from outside: per procedure, how many call sites it has and
// how many sit lexically inside a sync block (a begin inside a sync
// keeps the depth; a nested procedure body resets it).
type siteInfo struct{ calls, synced int }

func callSites(mod *ast.Module, info *sym.Info) map[*ast.ProcDecl]*siteInfo {
	sites := make(map[*ast.ProcDecl]*siteInfo)
	var expr func(e ast.Expr, depth int)
	var stmts func(list []ast.Stmt, depth int)
	expr = func(e ast.Expr, depth int) {
		switch x := e.(type) {
		case *ast.CallExpr:
			if s := info.Uses[x.Fun]; s != nil && s.Proc != nil {
				si := sites[s.Proc]
				if si == nil {
					si = &siteInfo{}
					sites[s.Proc] = si
				}
				si.calls++
				if depth > 0 {
					si.synced++
				}
			}
			for _, a := range x.Args {
				expr(a, depth)
			}
		case *ast.MethodCallExpr:
			for _, a := range x.Args {
				expr(a, depth)
			}
		case *ast.BinaryExpr:
			expr(x.X, depth)
			expr(x.Y, depth)
		case *ast.UnaryExpr:
			expr(x.X, depth)
		case *ast.RangeExpr:
			expr(x.Lo, depth)
			expr(x.Hi, depth)
		}
	}
	stmt := func(s ast.Stmt, depth int) {
		switch x := s.(type) {
		case *ast.VarDecl:
			if x.Init != nil {
				expr(x.Init, depth)
			}
		case *ast.AssignStmt:
			expr(x.Rhs, depth)
		case *ast.ExprStmt:
			expr(x.X, depth)
		case *ast.CallStmt:
			expr(x.X, depth)
		case *ast.BeginStmt:
			stmts(x.Body.Stmts, depth)
		case *ast.SyncStmt:
			stmts(x.Body.Stmts, depth+1)
		case *ast.IfStmt:
			expr(x.Cond, depth)
			stmts(x.Then.Stmts, depth)
			if x.Else != nil {
				stmts(x.Else.Stmts, depth)
			}
		case *ast.WhileStmt:
			expr(x.Cond, depth)
			stmts(x.Body.Stmts, depth)
		case *ast.ForStmt:
			expr(x.Range.Lo, depth)
			expr(x.Range.Hi, depth)
			stmts(x.Body.Stmts, depth)
		case *ast.ReturnStmt:
			if x.Value != nil {
				expr(x.Value, depth)
			}
		case *ast.BlockStmt:
			stmts(x.Stmts, depth)
		case *ast.ProcStmt:
			stmts(x.Proc.Body.Stmts, 0)
		}
	}
	stmts = func(list []ast.Stmt, depth int) {
		for _, s := range list {
			stmt(s, depth)
		}
	}
	for _, p := range mod.Procs {
		stmts(p.Body.Stmts, 0)
	}
	return sites
}

// syncedRefParams marks the by-ref formals of procedures whose every
// call site is inside a sync block: accesses to them are structurally
// safe.
func syncedRefParams(sites map[*ast.ProcDecl]*siteInfo, info *sym.Info) map[*sym.Symbol]bool {
	out := make(map[*sym.Symbol]bool)
	for proc, si := range sites {
		if si.calls == 0 || si.calls != si.synced {
			continue
		}
		if scope := info.ScopeFor(proc); scope != nil {
			for _, s := range scope.Symbols() {
				if s.Kind == sym.KindParam && s.ByRef {
					out[s] = true
				}
			}
		}
	}
	return out
}

// tracedUnits returns the workload's traced inputs, the standalone
// files its batch and serve layers see, and the serve requests.
func tracedUnits(cfg config) (units []unit, standalone []input, reqs []request, warmed bool, err error) {
	switch cfg.workload {
	case "corpus":
		in, err := corpusInputs(cfg.seed)
		if err != nil {
			return nil, nil, nil, false, err
		}
		for _, f := range in {
			units = append(units, unit{files: []input{f}})
		}
		return units, in, fileRequests(in, 600, 0), false, nil
	case "pps-dense":
		in, err := ppsDenseInputs(cfg.seed, cfg.root)
		if err != nil {
			return nil, nil, nil, false, err
		}
		for _, f := range in {
			units = append(units, unit{files: []input{f}})
		}
		return units, in, fileRequests(in, 24, stateBudget), false, nil
	case "module-edit":
		for _, m := range moduleInputs(cfg.seed) {
			for _, snap := range m.Snapshots {
				units = append(units, unit{files: progenInputs(snap), module: true})
			}
			// The first file only calls its own procedures, so it also
			// analyzes standalone. It has no generator reference; the
			// serve layers are held to the library's verdict.
			f := progenInputs(m.Snapshots[0][:1])[0]
			f.Name = m.Name + "-" + f.Name
			rep, err := uafcheck.AnalyzeContext(context.Background(), f.Name, f.Src, uafcheck.WithParallelism(1))
			if err != nil {
				return nil, nil, nil, false, fmt.Errorf("%s: %w", f.Name, err)
			}
			f.Ref = sites(rep.Warnings)
			standalone = append(standalone, f)
		}
		return units, standalone, fileRequests(standalone, len(standalone), 0), false, nil
	case "serve-edge":
		in, err := corpusInputs(cfg.seed)
		if err != nil {
			return nil, nil, nil, false, err
		}
		reqs = serveMix(cfg.seed, in, 800)
		seen := make(map[string]bool)
		for _, q := range reqs {
			for _, f := range q.files {
				if !seen[f.Name] {
					seen[f.Name] = true
					units = append(units, unit{files: []input{f}})
					standalone = append(standalone, f)
				}
			}
		}
		return units, standalone, reqs, true, nil
	}
	return nil, nil, nil, false, fmt.Errorf("unknown workload %q", cfg.workload)
}

func progenInputs(fs []progen.File) []input {
	out := make([]input, len(fs))
	for i, f := range fs {
		out[i] = input{Name: f.Name, Src: f.Src}
	}
	return out
}

// fileRequests spreads n single-file requests evenly over in.
func fileRequests(in []input, n, maxStates int) []request {
	var out []request
	for i := 0; i < n && i < len(in); i++ {
		out = append(out, analyzeRequest(in[i*len(in)/n], false, maxStates))
	}
	return out
}

// runTraced is the per-layer breakdown of one workload: a public-API
// pass (the fidelity reference), the layer pass without and with spans
// (their ratio is the tracing overhead), an allocation pass, the memo,
// batch and wire layers, and the serve layers over a real coordinator
// and worker. README.md lists the passes.
func runTraced(ctx context.Context, cfg config) (result, error) {
	units, standalone, reqs, warmed, err := tracedUnits(cfg)
	if err != nil {
		return result{}, err
	}
	budget := 0
	if cfg.workload == "pps-dense" {
		budget = stateBudget
	}
	opts := []uafcheck.Option{uafcheck.WithParallelism(1)}
	if budget > 0 {
		opts = append(opts, uafcheck.WithMaxStates(budget))
	}
	t := newTracer()
	failed, attempted := 0, 0
	var problems []string
	fail := func(format string, args ...any) {
		failed++
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}

	phaseStart := time.Now()
	var phases []string
	lap := func(name string) {
		phases = append(phases, fmt.Sprintf("%s=%.2fs", name, time.Since(phaseStart).Seconds()))
		phaseStart = time.Now()
	}

	// Public-API pass: the reference of the fidelity check.
	type ref struct {
		metrics uafcheck.Metrics
		reports []*uafcheck.Report
	}
	refs := make([]ref, len(units))
	for i, u := range units {
		if u.module {
			mr, err := uafcheck.AnalyzeModuleContext(ctx, inputModuleFiles(u.files), opts...)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", u.name(), err)
			}
			refs[i].metrics = mr.Metrics
			for _, fr := range mr.Files {
				refs[i].reports = append(refs[i].reports, fr.Report)
			}
			continue
		}
		rep, err := uafcheck.AnalyzeContext(ctx, u.files[0].Name, u.files[0].Src, opts...)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", u.name(), err)
		}
		refs[i] = ref{metrics: rep.Metrics, reports: []*uafcheck.Report{rep}}
	}
	lap("public")

	// The layer pass without spans: the untraced side of the overhead.
	plain := &layers{budget: budget}
	plainStart := time.Now()
	for i, u := range units {
		if u.module {
			_, _ = plain.module(i+1, u.files)
		} else {
			_, _ = plain.file(i+1, u.files[0])
		}
	}
	plainWall := time.Since(plainStart)
	lap("plain")

	// Traced layer pass with the fidelity check.
	l := &layers{t: t, budget: budget}
	var total counts
	parsedBytes := 0
	traced := time.Now()
	for i, u := range units {
		attempted++
		var c counts
		var err error
		if u.module {
			c, err = l.module(i+1, u.files)
		} else {
			c, err = l.file(i+1, u.files[0])
		}
		if err != nil {
			fail("%s: %v", u.name(), err)
			continue
		}
		for _, f := range u.files {
			parsedBytes += len(f.Src)
		}
		m := refs[i].metrics
		for _, chk := range []struct {
			name      string
			got, want int
		}{
			{"ccfg.nodes", c.nodes, int(m.Counter("ccfg.nodes"))},
			{"prune.tasks", c.pruned, int(m.Counter("prune.tasks"))},
			{"pps.states_processed", c.processed, int(m.Counter("pps.states_processed"))},
			{"pps.states_merged", c.merged, int(m.Counter("pps.states_merged"))},
		} {
			if chk.got != chk.want {
				fail("%s: %s traced %d, report %d", u.name(), chk.name, chk.got, chk.want)
			}
		}
		want := make(map[string]bool)
		for j, rep := range refs[i].reports {
			if rep == nil {
				continue
			}
			for s := range sites(rep.Warnings) {
				want[u.files[j].Name+"|"+s] = true
			}
			if !u.module && !verdictOK(rep, u.files[j].Ref) {
				fail("%s: warnings differ from the reference", u.files[j].Name)
			}
		}
		if !sameSet(c.sites, want) {
			fail("%s: traced warnings differ from the report's", u.name())
		}
		total.roots += c.roots
		total.nodes += c.nodes
		total.tasks += c.tasks
		total.pruned += c.pruned
		total.processed += c.processed
		total.merged += c.merged
		total.forked += c.forked
		total.waves += c.waves
		total.budgetStops += c.budgetStops
	}
	tracedWall := time.Since(traced)
	lap("traced")

	// Layers off the workload's pipeline: the one-file module path for
	// single files, resolution on its own for modules.
	for i, u := range units {
		if u.module {
			l.resolveAlone(i+1, u.files)
		} else {
			l.linkAlone(i+1, u.files[0])
		}
	}

	lap("aux")

	// Allocation pass: the same calls again, with heap accounting.
	at := newTracer()
	la := &layers{t: at, budget: budget, allocs: true}
	for i, u := range units {
		if u.module {
			_, _ = la.module(i+1, u.files)
			la.resolveAlone(i+1, u.files)
		} else {
			_, _ = la.file(i+1, u.files[0])
		}
	}

	// Wire: the canonical encoding of every report.
	encBytes, encoded := 0, 0
	for i, u := range units {
		for j, rep := range refs[i].reports {
			var b []byte
			l.call("encode", 0, i+1, func() { b, _ = wire.NewResult(u.files[j].Name, rep, nil, false).Encode() })
			encBytes += len(b)
			encoded++
		}
	}

	lap("allocs")
	if cfg.workload == "pps-dense" {
		var files []input
		for _, u := range units {
			files = append(files, u.files[0])
		}
		n := oracleCheck(files, 16, cfg.seed, func(f input, site string) {
			fail("%s: the oracle observed a use-after-free at %s that the reference lacks", f.Name, site)
		})
		fmt.Printf("oracle: %d use-after-free sites observed in 16 sampled programs, %d schedules each\n", n, oracleRuns)
		lap("oracle")
	}
	hits, misses := memoPass(ctx, t, units, opts)
	lap("memo")
	util := batchPass(ctx, t, standalone, opts)
	lap("batch")
	sv, err := servePass(cfg.uafserve, t, reqs, warmed)
	lap("serve")
	if err != nil {
		return result{}, err
	}
	attempted += sv.attempted
	if sv.failed > 0 {
		fail("serve: %d failed or wrong responses", sv.failed)
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := t.write(tracePath); err != nil {
		return result{}, err
	}

	lt := layerTotals(t.spans)
	get := func(n string) *layerTotal {
		if x := lt[n]; x != nil {
			return x
		}
		return &layerTotal{}
	}
	per := func(n string) float64 { x := get(n); return float64(x.Self) / float64(max(x.Count, 1)) }
	alt := layerTotals(at.spans)
	allocs := func(n string) float64 {
		if x := alt[n]; x != nil {
			return float64(x.Allocs) / float64(max(x.Count, 1))
		}
		return 0
	}
	pp := get("pps")
	ppa := alt["pps"]
	if ppa == nil {
		ppa = &layerTotal{}
	}
	states := float64(max(total.processed, 1))
	m := map[string]metric{
		"parse.ns_per_file":         {per("parse"), "ns"},
		"parse.allocs_per_file":     {allocs("parse"), "count"},
		"parse.bytes_per_s":         {float64(parsedBytes) / (float64(get("parse").Self) / 1e9), "B/s"},
		"resolve.ns_per_file":       {per("resolve"), "ns"},
		"resolve.allocs_per_file":   {allocs("resolve"), "count"},
		"link.ns_per_module":        {per("link"), "ns"},
		"lower.ns_per_root":         {per("lower"), "ns"},
		"lower.allocs_per_root":     {allocs("lower"), "count"},
		"ccfg.ns_per_root":          {per("ccfg"), "ns"},
		"ccfg.nodes_per_root":       {float64(total.nodes) / float64(max(total.roots, 1)), "count"},
		"ccfg.tasks_per_root":       {float64(total.tasks) / float64(max(total.roots, 1)), "count"},
		"ccfg.pruned_task_share":    {float64(total.pruned) / float64(max(total.tasks, 1)), "ratio"},
		"pps.ns_per_root":           {per("pps"), "ns"},
		"pps.states_processed":      {float64(total.processed), "count"},
		"pps.ns_per_state":          {float64(pp.Self) / states, "ns"},
		"pps.allocs_per_state":      {float64(ppa.Allocs) / states, "count"},
		"pps.bytes_per_state":       {float64(ppa.Bytes) / states, "B"},
		"pps.merge_ratio":           {float64(total.merged) / float64(max(total.forked, 1)), "ratio"},
		"pps.waves":                 {float64(total.waves), "count"},
		"pps.budget_stops":          {float64(total.budgetStops), "count"},
		"memo.unit_hits":            {float64(hits), "count"},
		"memo.unit_misses":          {float64(misses), "count"},
		"memo.hit_ratio":            {float64(hits) / float64(max(hits+misses, 1)), "ratio"},
		"batch.utilization":         {util, "ratio"},
		"wire.encode_ns_per_result": {per("encode"), "ns"},
		"wire.bytes_per_result":     {float64(encBytes) / float64(max(encoded, 1)), "B"},
		"cache.hit_ratio":           {sv.hitRatio, "ratio"},
		"cache.hit_ms_p50":          {sv.hitP50, "ms"},
		"cache.miss_ms_p50":         {sv.missP50, "ms"},
		"server.admission_rejects":  {float64(sv.rejects), "count"},
		"proxy.hop_ms_p50":          {sv.hop.P50, "ms"},
		"proxy.hop_ms_p99":          {sv.hop.Tail, "ms"},
		"trace.overhead_share":      {tracedWall.Seconds()/plainWall.Seconds() - 1, "ratio"},
	}

	fmt.Printf("traced %s: %d units, %d spans written to %s\n", cfg.workload, len(units), len(t.spans), tracePath)
	fmt.Printf("phases: %s\n", strings.Join(phases, " "))
	fmt.Printf("fidelity: %d problems\n", failed)
	for _, p := range problems {
		fmt.Println("  " + p)
	}
	// Shares of the workload's own pipeline: resolution happens inside
	// link for modules, and single files are not linked.
	var analysisSelf int64
	layerNames := []string{"parse", "resolve", "lower", "ccfg", "pps"}
	if units[0].module {
		layerNames[1] = "link"
	}
	for _, n := range layerNames {
		analysisSelf += get(n).Self
	}
	var shares []string
	for _, n := range layerNames {
		shares = append(shares, fmt.Sprintf("%s=%.4f", n, float64(get(n).Self)/float64(max(analysisSelf, 1))))
	}
	fmt.Printf("layer self-time shares: %s\n", strings.Join(shares, " "))
	fmt.Printf("memo: %d hits, %d misses; proxy hop p%s over %d pairs\n", hits, misses, pct(sv.hop.TailQ), sv.hop.N)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %g %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}, nil
}

func inputModuleFiles(in []input) []uafcheck.ModuleFile {
	out := make([]uafcheck.ModuleFile, len(in))
	for i, f := range in {
		out[i] = uafcheck.ModuleFile{Name: f.Name, Src: f.Src}
	}
	return out
}

// memoPass drives the unit memo through the public Analyzer: single
// files are analyzed twice (a cold pass, then an unchanged re-save);
// each module replays its snapshots through one Analyzer.
func memoPass(ctx context.Context, t *tracer, units []unit, opts []uafcheck.Option) (hits, misses int64) {
	a := uafcheck.NewAnalyzer(opts...)
	flush := func() {
		st := a.Stats()
		hits, misses = hits+st.UnitHits, misses+st.UnitMisses
		a = uafcheck.NewAnalyzer(opts...)
	}
	passes := 2
	if units[0].module {
		passes = 1
	}
	for p := 0; p < passes; p++ {
		for i, u := range units {
			if u.module && i > 0 && i%(moduleEdits+1) == 0 {
				flush()
			}
			start := time.Now()
			if u.module {
				_, _ = a.AnalyzeModuleDelta(ctx, inputModuleFiles(u.files))
			} else {
				_, _ = a.AnalyzeDelta(ctx, u.files[0].Name, u.files[0].Src)
			}
			t.add("memo", 0, i+1, start, time.Now())
		}
	}
	flush()
	return hits, misses
}

// batchPass runs the standalone files through the batch driver with
// one worker per CPU and returns its utilization: summed per-file
// analysis time over workers × wall time.
func batchPass(ctx context.Context, t *tracer, files []input, opts []uafcheck.Option) float64 {
	var mu sync.Mutex
	type done struct {
		i   int
		end time.Time
		dur time.Duration
	}
	var ds []done
	start := time.Now()
	uafcheck.AnalyzeFilesContext(ctx, fileInputs(files), append(opts, uafcheck.WithWorkers(workers()),
		uafcheck.WithOnFile(func(i int, fr uafcheck.FileReport) {
			mu.Lock()
			ds = append(ds, done{i, time.Now(), fr.Duration})
			mu.Unlock()
		}))...)
	end := time.Now()
	bid := t.add("batch", 0, 0, start, end)
	var busy time.Duration
	for _, d := range ds {
		t.add("batch.file", bid, d.i+1, d.end.Add(-d.dur), d.end)
		busy += d.dur
	}
	return busy.Seconds() / (float64(workers()) * end.Sub(start).Seconds())
}

// oracleCheck runs the dynamic oracle (seeded random schedules of the
// runtime in internal/runtime) on the first n inputs with at most
// oracleTasks tasks and no branch ladder, and calls bad for every
// use-after-free it observes that the input's reference lacks. It
// returns the number of observed use-after-free sites.
func oracleCheck(in []input, n int, seed int64, bad func(f input, site string)) int {
	observed := 0
	for _, f := range in {
		if n == 0 {
			break
		}
		if strings.Count(f.Src, "begin with") > oracleTasks || strings.Contains(f.Src, "    if (flag) {") {
			continue
		}
		n--
		rep, err := uafcheck.ExploreSchedules(f.Name, f.Src, "fan", oracleRuns, seed, false)
		if err != nil {
			bad(f, err.Error())
			continue
		}
		for _, s := range rep.UAFSites {
			observed++
			if !f.Ref[s] {
				bad(f, s)
			}
		}
	}
	return observed
}

const (
	oracleTasks = 7   // largest fanout the oracle sample takes
	oracleRuns  = 400 // random schedules per sampled program
)
