// Package pps implements the Parallel Program State exploration of the
// paper's §III-B/C/D: the algorithm checkForUnsafeUse / findNewPPS.
//
// A PPS is identified by
//
//  1. the Active Sync Node (ASN) set — the sync nodes next in line, one
//     per live strand position;
//  2. the state table — full/empty state of every sync variable;
//  3. the safe set SV — outer-variable accesses proven synchronized;
//  4. the OV set — accesses that must have happened before the last
//     synchronization event but are not (yet) known safe.
//
// Transitions apply the paper's rules: SINGLE-READ (rule 1, readFF on a
// full single variable, applied in a non-blocking batch), READ (rule 2,
// readFE on a full sync variable, full→empty) and WRITE (rule 3, writeEF
// on an empty variable, empty→full). Executing a sync node attributes the
// outer-variable accesses on the path since the previous sync node of its
// strand ("∀ Nk from Sprev to Si"), spawns begin strands encountered on
// the way, and forks one successor PPS per branch-arm combination.
//
// When a Parallel Frontier node of variable x is in the candidate set of
// a newly created PPS, all pending OV accesses of x move to the safe set.
// At a sink PPS (empty ASN) the remaining OV accesses are reported as
// potential use-after-free. Accesses never visited on any execution path
// (trailing accesses after a strand's last sync node, strands blocked by
// a deadlock, tasks with no synchronization at all) are reported by the
// final sweep, matching the "∀ evi !(visited)" clause of the algorithm.
//
// States with identical (ASN, state-table) pairs are merged: OV is
// unioned, SV intersected (accesses promoted on only one side fall back
// to OV so no warning is lost), mirroring the optimization of §III-C.
// Merge identity is hash-consed: every PPS carries a 64-bit hash of its
// (ASN, state-table, counters) triple (intern.go), so the merge probe is
// one map lookup plus a structural comparison.
//
// The worklist runs in bulk-synchronous waves (parallel.go): each wave
// COMPUTES every frontier state's transitions in parallel — a pure
// phase that only reads wave-start snapshots and buffers its output per
// state — then COMMITS the buffered results sequentially in frontier
// order (interning, merging, ID assignment, warning reporting). Because
// the compute phase is side-effect-free and the commit order is fixed,
// the Result is byte-identical for every Options.Parallelism value,
// including the sequential run.
package pps

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"uafcheck/internal/bits"
	"uafcheck/internal/ccfg"
	"uafcheck/internal/obs"
	"uafcheck/internal/sym"
)

// Entry is one ASN member: a sync node plus the not-yet-attributed nodes
// on the path from the previous sync node of its strand.
type Entry struct {
	Sync    *ccfg.Node
	Pending []*ccfg.Node
}

// PPS is one explored parallel program state.
type PPS struct {
	ID      int
	TS      int
	Entries []Entry // sorted by Sync.ID
	State   bits.Set
	// Counters holds the saturating counter values of counted atomic
	// variables (counting refinement), indexed like Graph.CounterVars.
	Counters []uint8
	OV       bits.Set
	SV       bits.Set
	Visited  bits.Set
	Remark   string
	// Trailing holds finished strand segments (populated only while
	// building the MHP oracle): their nodes stay in flight until the
	// task exits, unordered with everything that still runs.
	Trailing [][]*ccfg.Node

	// hkey is the hash of the merge identity (ASN, state-table,
	// counters), computed in the parallel compute phase so the commit
	// loop only probes the interner; hnext chains states whose hashes
	// collide (see intern.go).
	hkey   uint64
	hnext  *PPS
	queued bool
	// parent is the PPS this state was forked from (nil for initial
	// states); with Remark it reconstructs the provenance chain of a
	// warning. Merged states keep the first parent seen.
	parent *PPS
}

// Options configure the exploration.
type Options struct {
	// MaxStates bounds the number of processed PPSes; 0 means the
	// default (1<<20). Exceeding the budget aborts exploration and marks
	// the result incomplete.
	MaxStates int
	// MaxOutcomes bounds the branch/spawn fan-out of a single expansion.
	MaxOutcomes int
	// Trace records a row per PPS for figure regeneration.
	Trace bool
	// DisableMerge turns off the identical-(ASN,ST) merge optimization
	// (§III-C) for the ablation benchmark.
	DisableMerge bool
	// Obs receives the exploration span and state-space counters; nil
	// disables telemetry. The hot loop accumulates into plain integers
	// and flushes once at the end, so a nil recorder costs nothing.
	Obs *obs.Recorder
	// Ctx carries the run's deadline/cancellation. The wave loop checks
	// it before every wave and each worker polls it every
	// ctxCheckInterval computed states; when it fires, exploration stops
	// and the result degrades to the conservative fallback (every access
	// not yet proven anything about is flagged). nil means no deadline.
	Ctx context.Context
	// Parallelism is the number of compute workers per wave. 0 resolves
	// to GOMAXPROCS; 1 forces the inline sequential path. Results are
	// byte-identical for every value — parallelism only changes the
	// wall-clock of the compute phase, never the committed outcome.
	Parallelism int
}

const (
	defaultMaxStates   = 1 << 20
	defaultMaxOutcomes = 1 << 14
	// ctxCheckInterval is how many processed states pass between
	// cancellation polls of Options.Ctx. States are microsecond-scale, so
	// this bounds deadline overshoot to well under a millisecond while
	// keeping the poll off the per-state fast path.
	ctxCheckInterval = 64
)

// DefaultMaxStates returns the library-default MaxStates bound — the
// value a zero Options.MaxStates resolves to. The batch driver's
// retry-with-smaller-budget ladder shrinks from it.
func DefaultMaxStates() int { return defaultMaxStates }

// StopReason says why an exploration terminated early. Empty means it
// ran to completion.
type StopReason string

const (
	// StopNone: the exploration exhausted its worklist.
	StopNone StopReason = ""
	// StopBudget: MaxStates or MaxOutcomes was exceeded.
	StopBudget StopReason = "budget"
	// StopDeadline: Options.Ctx expired (context.DeadlineExceeded).
	StopDeadline StopReason = "deadline"
	// StopCancelled: Options.Ctx was cancelled.
	StopCancelled StopReason = "cancelled"
)

// stopFromCtx classifies a context error.
func stopFromCtx(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCancelled
}

// UnsafeReason classifies why an access is reported.
type UnsafeReason int

const (
	// AfterFrontier: present in the OV set of a sink PPS — there is a
	// serialization in which the access happens after the variable's
	// parallel frontier, hence possibly after the scope exits.
	AfterFrontier UnsafeReason = iota
	// NeverSynchronized: the access is never attributed to any executed
	// sync node on any path — it trails the strand's last sync event, is
	// blocked behind a deadlocked operation, or its task performs no
	// synchronization at all.
	NeverSynchronized
	// Conservative: the exploration stopped early (budget, deadline or
	// cancellation) and the access was not yet proven safe, so it is
	// flagged by over-approximation. A full run's warning set is always a
	// subset of a degraded run's.
	Conservative
)

// String implements fmt.Stringer.
func (r UnsafeReason) String() string {
	switch r {
	case AfterFrontier:
		return "after-frontier"
	case Conservative:
		return "conservative"
	}
	return "never-synchronized"
}

// Unsafe is one reported access.
type Unsafe struct {
	Access *ccfg.Access
	Reason UnsafeReason
	// Conservative marks fallback reports of a degraded (early-stopped)
	// exploration: the access was not proven dangerous, only not proven
	// safe.
	Conservative bool
	// Prov explains how the exploration reached the report.
	Prov *Provenance
}

// Provenance records why a warning was emitted: the CCFG node of the
// access, the sink (or stuck) PPS whose OV set still held it, and the
// transition chain from the initial PPS to that state.
type Provenance struct {
	// NodeID is the CCFG node performing the access.
	NodeID int `json:"node_id"`
	// Node is the node's compact rendering (accesses + bounding sync op).
	Node string `json:"node"`
	// SinkPPS is the ID of the PPS at which the access was reported, or
	// -1 for accesses reported by the final never-visited sweep.
	SinkPPS int `json:"sink_pps"`
	// Stuck marks reports from a deadlocked (stuck) state rather than a
	// sink.
	Stuck bool `json:"stuck,omitempty"`
	// Chain lists the transition remarks from the initial PPS to the
	// reporting state, oldest first ("initial", "r#3 N#2", ...). Long
	// chains are truncated at the front with a "…" marker.
	Chain []string `json:"chain,omitempty"`
	// TraceID links the warning to the request/run trace whose
	// exploration produced it. In-memory only (excluded from JSON): the
	// wire encoding must stay byte-identical between traced and
	// untraced runs of the same input. Trace-aware consumers — the
	// uafserve flight recorder, the -trace-out JSONL file — carry the
	// trace ID at their own layer.
	TraceID string `json:"-"`
}

// maxProvChain bounds the recorded transition chain per warning.
const maxProvChain = 64

// provenance builds the chain for a report at state p.
func (e *explorer) provenance(a *ccfg.Access, p *PPS, stuck bool) *Provenance {
	pr := &Provenance{NodeID: a.Node.ID, Node: a.Node.String(), SinkPPS: -1, Stuck: stuck, TraceID: e.traceID}
	if p == nil {
		return pr
	}
	pr.SinkPPS = p.ID
	var rev []string
	for q := p; q != nil; q = q.parent {
		if len(rev) == maxProvChain {
			rev = append(rev, "…")
			break
		}
		rev = append(rev, q.Remark)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	pr.Chain = rev
	return pr
}

// Deadlock describes a stuck PPS (non-empty ASN, no applicable rule).
type Deadlock struct {
	// Blocked lists the blocked operations, e.g. "readFE(done$)".
	Blocked []string
}

// TraceRow is one line of the PPS table (paper Figures 3 and 7).
type TraceRow struct {
	ID     int
	TS     int
	ASN    []int
	OV     []string
	SV     []string
	States []string
	Remark string
}

// Stats summarize an exploration.
type Stats struct {
	StatesProcessed int
	StatesCreated   int
	StatesMerged    int
	// StatesForked counts every successor handed to the worklist before
	// merge deduplication (StatesCreated + StatesMerged).
	StatesForked int
	Sinks        int
	MaxWorklist  int
	// Waves counts bulk-synchronous frontier rounds. Like every other
	// field it is independent of Options.Parallelism.
	Waves int
	// Incomplete is true when the exploration stopped before exhausting
	// the state space; Stop carries the machine-readable cause.
	Incomplete bool
	Stop       StopReason
}

// Edge is one recorded PPS transition (tracing only).
type Edge struct {
	From, To int
	Label    string
}

// Result is the exploration outcome.
type Result struct {
	Unsafe    []Unsafe
	Deadlocks []Deadlock
	Trace     []TraceRow
	Edges     []Edge
	Stats     Stats
}

// Explore runs the PPS algorithm over a built CCFG.
func Explore(g *ccfg.Graph, opts Options) *Result {
	endExplore := opts.Obs.Span(obs.PhaseExplore)
	defer endExplore()
	tctx, tsp := obs.StartSpan(opts.Ctx, obs.PhaseExplore)
	e := newExplorer(g, opts)
	e.traceCtx = tctx
	if tr := obs.TraceFrom(tctx); tr != nil {
		e.traceID = tr.ID().String()
	}
	e.run()
	e.flushObs()
	tsp.SetAttrInt("waves", int64(e.res.Stats.Waves))
	tsp.SetAttrInt("states", int64(e.res.Stats.StatesProcessed))
	tsp.End()
	return e.res
}

// newExplorer resolves the option defaults and sets up the explorer
// state shared by Explore and BuildMHP.
func newExplorer(g *ccfg.Graph, opts Options) *explorer {
	if opts.MaxStates <= 0 {
		opts.MaxStates = defaultMaxStates
	}
	if opts.MaxOutcomes <= 0 {
		opts.MaxOutcomes = defaultMaxOutcomes
	}
	return &explorer{
		g:           g,
		opts:        opts,
		par:         resolveParallelism(opts.Parallelism),
		intern:      interner{},
		everVisited: bits.New(len(g.Nodes)),
		reported:    bits.New(len(g.Accesses)),
		res:         &Result{},
		syncNodes:   buildSyncNodes(g),
	}
}

// resolveParallelism maps the Options.Parallelism knob to a worker
// count: 0 (and negatives) mean "use the machine".
func resolveParallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// flushObs records the exploration's counters once, after the run: the
// hot loop accumulates into plain struct fields only.
func (e *explorer) flushObs() {
	r := e.opts.Obs
	if r == nil {
		return
	}
	st := e.res.Stats
	r.Add(obs.CtrStatesCreated, int64(st.StatesCreated))
	r.Add(obs.CtrStatesMerged, int64(st.StatesMerged))
	r.Add(obs.CtrStatesForked, int64(st.StatesForked))
	r.Add(obs.CtrStatesProcessed, int64(st.StatesProcessed))
	r.Add(obs.CtrSinkStates, int64(st.Sinks))
	r.Add(obs.CtrDeadlockStates, int64(len(e.res.Deadlocks)))
	r.Add(obs.CtrPPSWaves, int64(st.Waves))
	r.Max(obs.GaugePeakFrontier, int64(st.MaxWorklist))
	r.Add(obs.CtrTransSingleRead, e.trans[1])
	r.Add(obs.CtrTransRead, e.trans[2])
	r.Add(obs.CtrTransWrite, e.trans[3])
	r.Add(obs.CtrTransAtomicFill, e.trans[4])
	r.Add(obs.CtrTransAtomicWait, e.trans[5])
	r.ObserveHist(obs.HistWaveSize, e.waveHist)
}

// syncNode caches, per sync node, what the hot loop looks up about it:
// the dense index of its variable in the state table or in the counter
// vector (-1 when it has none) and the variables it is a Parallel
// Frontier of.
type syncNode struct {
	syncVar, counterVar int
	pf                  []pfVar
}

// pfVar is a variable with tracked accesses, and those accesses.
type pfVar struct {
	name     string
	accesses bits.Set
}

// buildSyncNodes indexes the graph's sync nodes by node ID.
func buildSyncNodes(g *ccfg.Graph) []syncNode {
	varAccess := buildVarAccess(g)
	out := make([]syncNode, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Sync == nil {
			continue
		}
		sn := &out[n.ID]
		sn.syncVar = g.SyncVarIndex(n.Sync.Sym)
		sn.counterVar = g.CounterVarIndex(n.Sync.Sym)
		for _, v := range g.PFVarsOf(n) {
			if va, ok := varAccess[v]; ok {
				sn.pf = append(sn.pf, pfVar{name: v.Name, accesses: va})
			}
		}
	}
	return out
}

// buildVarAccess indexes tracked accesses by variable.
func buildVarAccess(g *ccfg.Graph) map[*sym.Symbol]bits.Set {
	out := make(map[*sym.Symbol]bits.Set)
	for _, a := range g.Accesses {
		vs, ok := out[a.Sym]
		if !ok {
			vs = bits.New(len(g.Accesses))
		}
		vs.Add(a.ID)
		out[a.Sym] = vs
	}
	return out
}

type explorer struct {
	g    *ccfg.Graph
	opts Options
	// par is the resolved compute-worker count (>= 1).
	par int

	// next accumulates the frontier of the following wave: freshly
	// created states plus merged states whose sets changed. spare is
	// the committed wave's frontier, whose array next reuses.
	next        []*PPS
	spare       []*PPS
	intern      interner
	nextID      int
	everVisited bits.Set
	reported    bits.Set
	// syncNodes is indexed by node ID.
	syncNodes []syncNode
	res       *Result
	budgetHit bool
	// ctxStop records why Options.Ctx interrupted the worklist loop.
	ctxStop StopReason
	// trans counts executed sync transitions, indexed by ruleNumber
	// (1=SINGLE-READ, 2=READ, 3=WRITE, 4=ATOMIC-FILL, 5=ATOMIC-WAIT).
	trans [6]int64
	// mhp, when non-nil, accumulates may-happen-in-parallel pairs from
	// every processed state (see BuildMHP).
	mhp *MHPOracle
	// waveHist accumulates frontier sizes locally (the hot loop never
	// touches the Recorder); flushObs merges it once. Frontier sizes are
	// schedule-independent, so this histogram is deterministic.
	waveHist obs.Histogram
	// traceCtx carries the request trace (if any) under the pps-explore
	// span; wave spans parent under it. traceID caches the trace's ID
	// for warning provenance linkage.
	traceCtx context.Context
	traceID  string

	// scratch holds one slot per compute worker: slot w belongs to wave
	// worker w alone (slot 0 also serves the root expansion and the
	// sequential path), so concurrent workers never share buffers. Taken
	// from scratchPool for the run and grown between waves; bound counts
	// the slots bound to this graph. See scratch.
	scratch *scratchTable
	bound   int
	// states, entries and words hold the canonical states: a candidate
	// that survives the merge is copied here (materialize). They are
	// never rewound, because the interner keeps every canonical state
	// for the whole run.
	states  chunks[PPS]
	entries chunks[Entry]
	words   chunks[uint64]
	// seen is the commit loop's own node bitset for deduplicating
	// pending lists in mergePending: allocated on first use and left
	// empty between uses.
	seen bits.Set
}

func (e *explorer) run() {
	// Initial PPS(es): advance from the root entry. Branches before the
	// first sync events fork initial states (paper Figure 7: PPS 0 for
	// the if path, PPS 8 for the else path).
	initState := bits.New(len(e.g.SyncVars))
	for s, full := range e.g.InitiallyFull {
		if full {
			if i := e.g.SyncVarIndex(s); i >= 0 {
				initState.Add(i)
			}
		}
	}
	var hit bool
	e.scratch = scratchPool.Get().(*scratchTable)
	sc := &e.scratchFor(1)[0]
	outs := e.expand(sc, e.g.Root().Entry, nil, &hit)
	if hit {
		e.budgetHit = true
	}
	noAccesses, noNodes := bits.New(len(e.g.Accesses)), bits.New(len(e.g.Nodes))
	for i := outs.lo; i < outs.hi; i++ {
		sets := carveSets(&sc.words, initState, noAccesses, noAccesses, noNodes)
		p := &sc.states.take(1)[0]
		*p = PPS{
			Entries:  sortEntries(sc.appendEnts(sc.entries.take(sc.outs[i].nEnts)[:0], i)),
			State:    sets.state,
			Counters: append([]uint8(nil), e.g.CounterInit...),
			OV:       sets.ov,
			SV:       sets.sv,
			Visited:  sets.visited,
			Remark:   "initial",
		}
		if e.mhp != nil {
			p.Trailing = sc.appendDang(nil, i)
		}
		e.promote(p)
		if !e.opts.DisableMerge {
			p.hkey = identityHash(p)
		}
		e.admit(p)
	}
	// The root expansion multiplies every task's branch arms and can be
	// far larger than any fire's, so its arenas are shed instead of
	// being held by slot 0 for the whole run.
	sc.shed()

	// Bulk-synchronous wave loop: compute every frontier state in
	// parallel, then commit the buffered outputs in frontier order. The
	// degradation ladder gates each wave: budget by truncating the
	// frontier to the remaining allowance, deadline/cancellation by a
	// pre-wave check plus per-worker polls inside computeWave.
	for len(e.next) > 0 {
		frontier := e.next
		e.next = e.spare[:0]
		if len(frontier) > e.res.Stats.MaxWorklist {
			e.res.Stats.MaxWorklist = len(frontier)
		}
		avail := e.opts.MaxStates - e.res.Stats.StatesProcessed
		if avail <= 0 {
			e.budgetHit = true
			break
		}
		if len(frontier) > avail {
			frontier = frontier[:avail]
			e.budgetHit = true
		}
		if e.opts.Ctx != nil {
			if err := e.opts.Ctx.Err(); err != nil {
				e.ctxStop = stopFromCtx(err)
				break
			}
		}
		for _, p := range frontier {
			p.queued = false
		}
		e.res.Stats.Waves++
		e.waveHist.Observe(int64(len(frontier)))
		_, wsp := obs.StartSpan(e.traceCtx, "pps-wave")
		wsp.SetAttrInt("wave", int64(e.res.Stats.Waves))
		wsp.SetAttrInt("size", int64(len(frontier)))
		if e.computeWave(frontier) {
			// A worker saw the context fire mid-wave; the whole wave is
			// discarded uncommitted, so StatesProcessed never counts a
			// partially applied round.
			wsp.SetAttr("interrupted", "true")
			wsp.End()
			e.ctxStop = stopFromCtx(e.opts.Ctx.Err())
			break
		}
		for i, p := range frontier {
			e.commitState(p, &e.scratch.outs[i])
		}
		e.spare = frontier
		wsp.End()
	}
	e.releaseScratch()
	switch {
	case e.ctxStop != StopNone:
		e.res.Stats.Stop = e.ctxStop
	case e.budgetHit:
		e.res.Stats.Stop = StopBudget
	}
	e.res.Stats.Incomplete = e.res.Stats.Stop != StopNone

	if e.res.Stats.Incomplete {
		// Degradation ladder: the exploration stopped early, so no access
		// it has not already cleared or reported can be trusted. Flag all
		// of them conservatively — the result stays sound (a superset of
		// the full run's warnings) instead of silently partial.
		for _, a := range e.g.Accesses {
			if !e.reported.Has(a.ID) {
				e.reported.Add(a.ID)
				e.res.Unsafe = append(e.res.Unsafe,
					Unsafe{Access: a, Reason: Conservative, Conservative: true,
						Prov: e.provenance(a, nil, false)})
			}
		}
	} else {
		// Final sweep: the "∀ evi !(visited)" clause. Accesses never
		// attributed to an executed sync node on any explored path cannot
		// be ordered before the parent's exit.
		for _, a := range e.g.Accesses {
			if !e.everVisited.Has(a.Node.ID) && !e.reported.Has(a.ID) {
				e.reported.Add(a.ID)
				e.res.Unsafe = append(e.res.Unsafe,
					Unsafe{Access: a, Reason: NeverSynchronized, Prov: e.provenance(a, nil, false)})
			}
		}
	}
	slices.SortStableFunc(e.res.Unsafe, func(a, b Unsafe) int {
		return cmp.Compare(a.Access.Sp.Start, b.Access.Sp.Start)
	})
}

// expand computes every way execution proceeds from node n (inclusive)
// until each strand reaches a sync node or ends, and returns the
// outcomes as a list in sc. prefix holds the nodes already traversed on
// this path since the previous sync event; the slice is never mutated
// and ends up as the Pending list of the entries it leads to, so it is
// carved by sc.extend, never from a reused buffer. hit is set when
// MaxOutcomes truncates the fan-out — a pointer, not a field, because
// expand runs inside the parallel compute phase and must not write
// explorer state.
func (e *explorer) expand(sc *scratch, n *ccfg.Node, prefix []*ccfg.Node, hit *bool) span {
	if n.Sync != nil {
		sc.ents = append(sc.ents, Entry{Sync: n, Pending: prefix})
		return sc.push(leaf(span{len(sc.ents) - 1, len(sc.ents)}, span{}))
	}
	newPrefix := sc.extend(prefix, n)

	// Spawned strands advance independently; their lists and the
	// continuation's gather on the list stack for product.
	base := len(sc.lists)
	for _, sp := range n.Spawns {
		if sp.Task.Pruned {
			continue
		}
		r := e.expand(sc, sp, newPrefix, hit)
		sc.lists = append(sc.lists, r)
	}
	// Continuation of the current strand; a branch forks one expansion
	// per arm.
	var cont span
	if len(n.Succs) == 0 {
		var dang span
		if e.mhp != nil {
			sc.dang = append(sc.dang, newPrefix)
			dang = span{len(sc.dang) - 1, len(sc.dang)}
		}
		cont = sc.push(leaf(span{}, dang))
	} else {
		arms, total := len(sc.lists), 0
		for _, s := range n.Succs {
			r := e.expand(sc, s, newPrefix, hit)
			if total += r.len(); total > e.opts.MaxOutcomes {
				*hit = true
				r.hi -= total - e.opts.MaxOutcomes
				sc.lists = append(sc.lists, r)
				break
			}
			sc.lists = append(sc.lists, r)
		}
		cont = sc.concat(arms)
	}
	sc.lists = append(sc.lists, cont)
	return e.product(sc, base, hit)
}

// product pops the outcome lists sc.lists[base:] and returns every
// combination of one outcome from each, in list order.
func (e *explorer) product(sc *scratch, base int, hit *bool) span {
	lists := sc.lists[base:]
	sc.lists = sc.lists[:base]
	acc := lists[0]
	if acc.len() > e.opts.MaxOutcomes {
		*hit = true
		acc.hi = acc.lo + e.opts.MaxOutcomes + 1
		return acc
	}
	for _, list := range lists[1:] {
		lo := len(sc.outs)
		for ai := acc.lo; ai < acc.hi; ai++ {
			for bi := list.lo; bi < list.hi; bi++ {
				o := sc.combine(ai, bi)
				sc.outs = append(sc.outs, o)
				if len(sc.outs)-lo > e.opts.MaxOutcomes {
					*hit = true
					return span{lo, len(sc.outs)}
				}
			}
		}
		acc = span{lo, len(sc.outs)}
	}
	return acc
}

// sortEntries orders an ASN by sync node ID.
func sortEntries(entries []Entry) []Entry {
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Sync.ID, b.Sync.ID) })
	return entries
}

// mergeEntries writes to dst, in sync node order, the entries of the
// sorted ASN old except those at the ascending indices fired, together
// with the sorted entries fresh. On equal sync nodes old's entry comes
// first, as a stable sort of the remaining entries followed by fresh
// would order them.
func mergeEntries(dst, old []Entry, fired []int, fresh []Entry) {
	d, f, k := 0, 0, 0
	for i, en := range old {
		if k < len(fired) && fired[k] == i {
			k++
			continue
		}
		for f < len(fresh) && fresh[f].Sync.ID < en.Sync.ID {
			dst[d] = fresh[f]
			d, f = d+1, f+1
		}
		dst[d] = en
		d++
	}
	copy(dst[d:], fresh[f:])
}

// ruleNumber maps sync ops to the paper's rule numbering used in the
// Figure 3/7 remarks: 1 = SINGLE-READ, 2 = READ, 3 = WRITE. The atomics
// extension adds 4 = ATOMIC-FILL and 5 = ATOMIC-WAIT.
func ruleNumber(op sym.SyncOpKind) int {
	switch op {
	case sym.OpReadFF:
		return 1
	case sym.OpReadFE:
		return 2
	case sym.OpWriteEF:
		return 3
	case sym.OpAtomicWrite:
		return 4
	case sym.OpAtomicWait:
		return 5
	}
	return 0
}

// executable reports whether the entry's operation can fire under the
// state table st and counter vector counters.
func (e *explorer) executable(en Entry, st bits.Set, counters []uint8) bool {
	ev := en.Sync.Sync
	sn := &e.syncNodes[en.Sync.ID]
	if ci := sn.counterVar; ci >= 0 {
		// Counting refinement.
		switch ev.Op {
		case sym.OpAtomicWrite:
			return true
		case sym.OpAtomicWait:
			if ci < len(counters) {
				return int64(counters[ci]) >= ev.Arg
			}
			return false
		}
		return false
	}
	idx := sn.syncVar
	if idx < 0 {
		return false
	}
	full := st.Has(idx)
	switch ev.Op {
	case sym.OpReadFE, sym.OpReadFF, sym.OpAtomicWait:
		return full
	case sym.OpWriteEF:
		return !full
	case sym.OpAtomicWrite:
		// Fill events never block (§IV-A: "a non-blocking fill event").
		return true
	}
	return false
}

// reportCand is a buffered warning candidate: the compute phase cannot
// touch the shared reported set, so it emits candidates and the commit
// phase deduplicates them in deterministic order.
type reportCand struct {
	access int
	reason UnsafeReason
	stuck  bool
}

// stepOut buffers everything one state's compute produces. The commit
// phase applies it to the shared explorer state in frontier order.
// succs are the state's successor candidates, which live in the
// computing worker's scratch until the next wave.
type stepOut struct {
	sink      bool
	rows      []TraceRow
	reports   []reportCand
	deadlock  *Deadlock
	succs     []*PPS
	trans     [6]int64
	budgetHit bool
}

// reset empties the output for reuse, keeping its rows and reports
// buffers, whose contents the commit loop copies out. succs is a window
// of the computing worker's scratch.succs and is dropped.
func (o *stepOut) reset() {
	*o = stepOut{rows: o.rows[:0], reports: o.reports[:0]}
}

// computeState derives a state's transitions without writing any shared
// explorer state — it reads p's sets, the graph, and the wave-start
// snapshot of the reported set, and buffers all output in out, using
// the calling worker's scratch sc. This is the function wave workers
// run concurrently.
func (e *explorer) computeState(p *PPS, sc *scratch, out *stepOut) {
	out.reset()
	if len(p.Entries) == 0 {
		// Sink PPS: every access still pending in OV can happen after the
		// variable's parallel frontier (paper §III-B).
		out.sink = true
		p.OV.ForEach(func(id int) {
			out.reports = append(out.reports, reportCand{access: id, reason: AfterFrontier})
		})
		if e.opts.Trace {
			out.rows = append(out.rows, e.makeRow(p, "sink"))
		}
		return
	}
	if e.opts.Trace {
		out.rows = append(out.rows, e.makeRow(p, ""))
	}

	fired := false
	// SINGLE-READ batch (rule 1): all executable readFF operations are
	// non-blocking once full and fire together (§III-C). Under the
	// atomics extension, executable waitFor events join the batch — they
	// are the "corresponding read ... equivalent to SINGLE-READ" of
	// §IV-A.
	sc.singles = sc.singles[:0]
	for i, en := range p.Entries {
		op := en.Sync.Sync.Op
		if (op == sym.OpReadFF || op == sym.OpAtomicWait) && e.executable(en, p.State, p.Counters) {
			sc.singles = append(sc.singles, i)
		}
	}
	lo := len(sc.succs)
	if len(sc.singles) > 0 {
		e.computeFire(p, sc.singles, sc, out)
		fired = true
	}
	// READ (rule 2), WRITE (rule 3) and ATOMIC-FILL (rule 4): explore
	// every executable choice.
	for i, en := range p.Entries {
		op := en.Sync.Sync.Op
		if op == sym.OpReadFF || op == sym.OpAtomicWait {
			continue
		}
		if e.executable(en, p.State, p.Counters) {
			one := [1]int{i}
			e.computeFire(p, one[:], sc, out)
			fired = true
		}
	}
	out.succs = sc.succs[lo:len(sc.succs):len(sc.succs)]
	if !fired {
		// Stuck: non-empty ASN with no applicable rule — a potential
		// deadlock (§VII future-work hook; we report it).
		var blocked []string
		for _, en := range p.Entries {
			blocked = append(blocked, en.Sync.Sync.String())
		}
		out.deadlock = &Deadlock{Blocked: blocked}

		// Soundness at stuck states: a strand's accesses that precede its
		// blocked operation have already executed dynamically, and the
		// strand can never synchronize again — if the owner exits, they
		// are use-after-free. Report the attributed-but-unpromoted OV set
		// and every pending access behind the blocked entries.
		p.OV.ForEach(func(id int) {
			out.reports = append(out.reports, reportCand{access: id, reason: AfterFrontier, stuck: true})
		})
		stuck := func(n *ccfg.Node) {
			for _, a := range n.Accesses {
				if !p.SV.Has(a.ID) {
					out.reports = append(out.reports, reportCand{access: a.ID, reason: NeverSynchronized, stuck: true})
				}
			}
		}
		for _, en := range p.Entries {
			// A region's accesses precede its bounding sync op, so the
			// blocked node's own accesses have already executed too.
			for _, n := range en.Pending {
				stuck(n)
			}
			stuck(en.Sync)
		}
	}
}

// computeFire executes the chosen entries (a single READ/WRITE, or a
// batch of SINGLE-READs; idxs ascending), buffering one successor
// candidate per branch-arm combination of the freed strands in sc.
// Candidates are promoted and get their identity hash here, in the
// parallel phase, so the commit loop only probes the interner.
func (e *explorer) computeFire(p *PPS, idxs []int, sc *scratch, out *stepOut) {
	sc.reset()
	work := carveSets(&sc.words, p.State, p.OV, p.SV, p.Visited)

	attribute := func(n *ccfg.Node) {
		if work.visited.Has(n.ID) {
			return
		}
		work.visited.Add(n.ID)
		for _, a := range n.Accesses {
			if !work.ov.Has(a.ID) && !work.sv.Has(a.ID) && !e.reported.Has(a.ID) {
				work.ov.Add(a.ID)
			}
		}
	}

	// Counters are never written after a state is built, so successors
	// share p's vector unless the fire updates a counter.
	counters := p.Counters
	ownCounters := false
	remark := sc.remark[:0]
	for k, i := range idxs {
		en := p.Entries[i]
		ev := en.Sync.Sync
		op := ev.Op
		sn := &e.syncNodes[en.Sync.ID]
		if ci := sn.counterVar; ci >= 0 {
			// Counting refinement: monotonic counter updates.
			if op == sym.OpAtomicWrite && ci < len(counters) {
				if !ownCounters {
					counters = slices.Clone(counters)
					ownCounters = true
				}
				switch ev.Method {
				case "write":
					// Monotonic model: keep the maximum.
					if v := satU8(ev.Arg); v > counters[ci] {
						counters[ci] = v
					}
				default: // add / fetchAdd
					counters[ci] = satAdd(counters[ci], ev.Arg)
				}
			}
			// waitFor retains the counter.
		} else {
			vIdx := sn.syncVar
			switch op {
			case sym.OpWriteEF, sym.OpAtomicWrite:
				work.state.Add(vIdx)
			case sym.OpReadFE:
				work.state.Remove(vIdx)
			case sym.OpReadFF, sym.OpAtomicWait:
				// retains full state
			}
		}
		rule := ruleNumber(op)
		out.trans[rule]++
		if k > 0 {
			remark = append(remark, ' ')
		}
		remark = append(remark, "r#"...)
		remark = strconv.AppendInt(remark, int64(rule), 10)
		remark = append(remark, " N#"...)
		remark = strconv.AppendInt(remark, int64(en.Sync.ID), 10)
		// Attribute the path since the strand's previous sync event,
		// then the executed node itself ("∀ Nk from Sprev to Si").
		for _, n := range en.Pending {
			attribute(n)
		}
		attribute(en.Sync)
		// Advance the strand.
		if len(en.Sync.Succs) == 0 {
			r := sc.push(outcome{})
			sc.lists = append(sc.lists, r)
		} else {
			arms := len(sc.lists)
			for _, s := range en.Sync.Succs {
				r := e.expand(sc, s, nil, &out.budgetHit)
				sc.lists = append(sc.lists, r)
			}
			r := sc.concat(arms)
			sc.lists = append(sc.lists, r)
		}
	}
	sc.remark = remark
	var remarkStr string
	if len(idxs) == 1 {
		// A single fire's remark depends only on its sync node.
		id := p.Entries[idxs[0]].Sync.ID
		if sc.remarks[id] == "" {
			sc.remarks[id] = string(remark)
		}
		remarkStr = sc.remarks[id]
	} else {
		remarkStr = string(remark)
	}

	combos := e.product(sc, 0, &out.budgetHit)
	for ci := combos.lo; ci < combos.hi; ci++ {
		// The last combination takes the working sets; the others copy
		// them before any successor's promote touches its own.
		sets := work
		if ci < combos.hi-1 {
			sets = carveSets(&sc.words, work.state, work.ov, work.sv, work.visited)
		}
		sc.fresh = sortEntries(sc.appendEnts(sc.fresh[:0], ci))
		entries := sc.entries.take(len(p.Entries) - len(idxs) + len(sc.fresh))
		mergeEntries(entries, p.Entries, idxs, sc.fresh)
		var trailing [][]*ccfg.Node
		if e.mhp != nil {
			trailing = make([][]*ccfg.Node, 0, len(p.Trailing)+sc.outs[ci].nDang)
			trailing = append(trailing, p.Trailing...)
			trailing = sc.appendDang(trailing, ci)
		}
		np := &sc.states.take(1)[0]
		*np = PPS{
			TS:       p.TS + 1,
			Entries:  entries,
			State:    sets.state,
			Counters: counters,
			OV:       sets.ov,
			SV:       sets.sv,
			Visited:  sets.visited,
			Remark:   remarkStr,
			Trailing: trailing,
			parent:   p,
		}
		e.promote(np)
		if !e.opts.DisableMerge {
			np.hkey = identityHash(np)
		}
		sc.succs = append(sc.succs, np)
	}
}

// commitState applies one state's buffered compute output to the shared
// explorer state. It runs strictly sequentially, in frontier order —
// that single property is what makes warning order, state IDs, merge
// counts and provenance chains independent of the worker count.
func (e *explorer) commitState(p *PPS, out *stepOut) {
	if e.mhp != nil {
		e.mhp.record(p)
	}
	if out.sink {
		e.res.Stats.Sinks++
	}
	for _, rc := range out.reports {
		if e.reported.Has(rc.access) {
			continue
		}
		e.reported.Add(rc.access)
		a := e.g.Accesses[rc.access]
		e.res.Unsafe = append(e.res.Unsafe,
			Unsafe{Access: a, Reason: rc.reason, Prov: e.provenance(a, p, rc.stuck)})
	}
	if out.deadlock != nil {
		e.res.Deadlocks = append(e.res.Deadlocks, *out.deadlock)
	}
	for i, n := range out.trans {
		e.trans[i] += n
	}
	if out.budgetHit {
		e.budgetHit = true
	}
	for _, np := range out.succs {
		canon := e.admit(np)
		if e.opts.Trace {
			e.res.Edges = append(e.res.Edges, Edge{From: p.ID, To: canon.ID, Label: np.Remark})
		}
	}
	e.res.Trace = append(e.res.Trace, out.rows...)
	e.res.Stats.StatesProcessed++
	// Drop the candidate window: the worker's next wave overwrites the
	// candidates it points at.
	out.reset()
}

// promote implements the Parallel Frontier rule: when a PF(x) node is in
// the candidate set of the PPS, the accesses of x currently pending in OV
// were synchronized before the frontier and move to the safe set.
func (e *explorer) promote(p *PPS) {
	for _, en := range p.Entries {
		pf := e.syncNodes[en.Sync.ID].pf
		if len(pf) == 0 || !e.executable(en, p.State, p.Counters) {
			continue
		}
		for _, v := range pf {
			if p.OV.MoveTo(&p.SV, v.accesses) {
				p.Remark += " PF(" + v.name + ")"
			}
		}
	}
}

// admit inserts a successor candidate into the next frontier, merging
// it into the canonical state of identical (ASN, state-table, counters)
// identity via the interner (§III-C). A merged candidate is read in
// place; only a miss materializes it into a new canonical state. It
// returns the canonical state — the merge target or the new state with
// its newly assigned ID — so trace edges always point at a real state.
// Runs only on the commit path; c.hkey must be set unless merging is
// disabled.
func (e *explorer) admit(c *PPS) *PPS {
	e.res.Stats.StatesForked++
	// The attributed nodes of a successor feed the final never-visited
	// sweep even when the state itself merges away.
	e.everVisited.UnionWith(c.Visited)
	if !e.opts.DisableMerge {
		if old := e.intern.lookup(c); old != nil {
			if e.merge(old, c) && !old.queued {
				old.queued = true
				e.next = append(e.next, old)
			}
			e.res.Stats.StatesMerged++
			return old
		}
	}
	p := e.materialize(c)
	p.ID = e.nextID
	e.nextID++
	e.res.Stats.StatesCreated++
	if !e.opts.DisableMerge {
		e.intern.insert(p)
	}
	p.queued = true
	e.next = append(e.next, p)
	return p
}

// materialize copies candidate c, which lives in a worker's scratch,
// into a canonical state in explorer-owned memory: its value, its
// entries and its four sets. Pending lists, counters and trailing
// segments are never rewritten in place, so the copy shares them.
func (e *explorer) materialize(c *PPS) *PPS {
	p := &e.states.take(1)[0]
	*p = *c
	p.Entries = e.entries.take(len(c.Entries))
	copy(p.Entries, c.Entries)
	sets := carveSets(&e.words, c.State, c.OV, c.SV, c.Visited)
	p.State, p.OV, p.SV, p.Visited = sets.state, sets.ov, sets.sv, sets.visited
	return p
}

// merge folds src into dst (same ASN + state table), exactly as §III-C
// specifies: OV is the union of the original OV sets, SV the intersection
// of the original safe sets. An access promoted on one path and absent
// from the other's OV∪SV (it never happened there) simply leaves both
// sets; an access pending on one side and safe on the other stays in OV.
// Pending node lists are unioned per entry. Returns true when dst
// changed. dst owns its sets, so they are updated in place; its pending
// lists may share backing arrays with other states, so they are copied
// before they grow.
func (e *explorer) merge(dst, src *PPS) bool {
	changed := dst.OV.UnionWith(src.OV)
	if dst.SV.IntersectWith(src.SV) {
		changed = true
	}
	// Keep the OV ∩ SV = ∅ invariant and never resurrect reported
	// accesses.
	dst.OV.DiffWith(dst.SV)
	dst.OV.DiffWith(e.reported)

	if dst.Visited.UnionWith(src.Visited) {
		changed = true
	}
	// Union pendings entry-wise (entries are sorted by sync node ID and
	// the identity guarantees identical node sets).
	for i := range dst.Entries {
		if i >= len(src.Entries) {
			break
		}
		if e.mergePending(&dst.Entries[i].Pending, src.Entries[i].Pending) {
			changed = true
		}
	}
	if src.TS < dst.TS {
		dst.TS = src.TS
	}
	return changed
}

// mergePending appends to *dst the nodes of src it lacks, in src order,
// and reports whether it appended any. The first append always copies
// *dst: successors share pending lists with their parent and siblings,
// so appending into spare capacity could overwrite another state's
// nodes. Later appends go to that private copy.
func (e *explorer) mergePending(dst *[]*ccfg.Node, src []*ccfg.Node) bool {
	have := *dst
	if len(src) == 0 || len(have) >= len(src) && &have[0] == &src[0] {
		// src is a prefix of have's own backing array.
		return false
	}
	// The paths of one strand share their start, so only src past the
	// common prefix can hold new nodes.
	i := 0
	for i < len(have) && i < len(src) && have[i] == src[i] {
		i++
	}
	tail := src[i:]
	if len(tail) == 0 {
		return false
	}
	if e.seen.Words() == 0 {
		e.seen = bits.New(len(e.g.Nodes))
	}
	for _, nd := range have {
		e.seen.Add(nd.ID)
	}
	grew := false
	for _, nd := range tail {
		if e.seen.Has(nd.ID) {
			continue
		}
		if !grew {
			have = have[:len(have):len(have)]
			grew = true
		}
		have = append(have, nd)
		e.seen.Add(nd.ID)
	}
	for _, nd := range have {
		e.seen.Remove(nd.ID)
	}
	*dst = have
	return grew
}

// satU8 clamps a non-negative constant into the counter range.
func satU8(v int64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// satAdd adds with saturation at 255.
func satAdd(a uint8, v int64) uint8 {
	s := int64(a) + v
	if s < 0 {
		return 0
	}
	if s > 255 {
		return 255
	}
	return uint8(s)
}

// makeRow renders a state as a trace table row. Pure with respect to
// explorer state (the compute phase calls it from wave workers); the
// commit phase appends the buffered rows to the result.
func (e *explorer) makeRow(p *PPS, extra string) TraceRow {
	row := TraceRow{ID: p.ID, TS: p.TS, Remark: strings.TrimSpace(p.Remark)}
	if extra != "" {
		if row.Remark != "" {
			row.Remark += " "
		}
		row.Remark += extra
	}
	for _, en := range p.Entries {
		row.ASN = append(row.ASN, en.Sync.ID)
	}
	p.OV.ForEach(func(id int) {
		row.OV = append(row.OV, e.g.Accesses[id].Label())
	})
	p.SV.ForEach(func(id int) {
		row.SV = append(row.SV, e.g.Accesses[id].Label())
	})
	for i, v := range e.g.SyncVars {
		st := "E"
		if p.State.Has(i) {
			st = "F"
		}
		row.States = append(row.States, v.Name+"="+st)
	}
	for i, v := range e.g.CounterVars {
		if i < len(p.Counters) {
			row.States = append(row.States, fmt.Sprintf("%s=%d", v.Name, p.Counters[i]))
		}
	}
	return row
}

// FormatTrace renders the trace as the paper's PPS table (Figures 3, 7),
// ordered by PPS ID like the paper's listing. A state that was merged and
// re-processed appears once, with its final sets.
func FormatTrace(rows []TraceRow) string {
	last := make(map[int]int, len(rows))
	for i, r := range rows {
		last[r.ID] = i
	}
	var uniq []TraceRow
	for i, r := range rows {
		if last[r.ID] == i {
			uniq = append(uniq, r)
		}
	}
	rows = uniq
	slices.SortStableFunc(rows, func(a, b TraceRow) int { return cmp.Compare(a.ID, b.ID) })
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-3s %-16s %-24s %-24s %-20s %s\n",
		"ID", "TS", "ASN", "OV", "SV", "states", "remark")
	for _, r := range rows {
		asn := make([]string, len(r.ASN))
		for i, id := range r.ASN {
			asn[i] = strconv.Itoa(id)
		}
		fmt.Fprintf(&b, "%-4d %-3d %-16s %-24s %-24s %-20s %s\n",
			r.ID, r.TS,
			"{"+strings.Join(asn, ",")+"}",
			"{"+strings.Join(r.OV, ",")+"}",
			"{"+strings.Join(r.SV, ",")+"}",
			strings.Join(r.States, " "),
			r.Remark)
	}
	return b.String()
}

// FormatTraceDOT renders the explored PPS state machine in Graphviz dot
// syntax: one node per state (ASN + state table), edges labeled with the
// applied rule. Sink states are doubly circled; states whose OV residue
// produced warnings are shaded.
func FormatTraceDOT(r *Result) string {
	last := make(map[int]TraceRow, len(r.Trace))
	for _, row := range r.Trace {
		last[row.ID] = row
	}
	var b strings.Builder
	b.WriteString("digraph pps {\n  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n")
	ids := make([]int, 0, len(last))
	for id := range last {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		row := last[id]
		asn := make([]string, len(row.ASN))
		for i, n := range row.ASN {
			asn[i] = strconv.Itoa(n)
		}
		label := fmt.Sprintf("PPS %d\\nASN {%s}\\n%s",
			row.ID, strings.Join(asn, ","), strings.Join(row.States, " "))
		shape := "box"
		style := ""
		if len(row.ASN) == 0 {
			shape = "doubleoctagon"
			if len(row.OV) > 0 {
				style = ", style=filled, fillcolor=lightcoral"
				label += "\\nunsafe: " + strings.Join(row.OV, " ")
			}
		}
		fmt.Fprintf(&b, "  s%d [label=\"%s\", shape=%s%s];\n", row.ID, label, shape, style)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "  s%d -> s%d [label=\"%s\"];\n", e.From, e.To, e.Label)
	}
	b.WriteString("}\n")
	return b.String()
}
