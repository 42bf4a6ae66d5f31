package pps

import (
	"sync"
	"unsafe"

	"uafcheck/internal/bits"
	"uafcheck/internal/ccfg"
)

// scratch is one compute worker's reusable buffers. Outcome lists of
// expand and product live in the ents/dang/outs arenas and are
// addressed by spans, lists is the stack on which an expansion gathers
// the outcome lists it combines, and fresh, singles and remark serve
// computeState and computeFire. Every buffer is overwritten by the
// worker's next fire. The zero value is ready to use: buffers grow on
// the first fire.
//
// A fire's successors are candidates built entirely in scratch: the
// PPS value comes from states, its sorted entries from entries and its
// four sets from words. These arenas and succs, which lists the wave's
// candidates, outlive a fire: each stepOut holds a capped window of
// succs, which the commit loop reads before the next wave rewinds them.
// The commit loop merges a candidate straight from these views and
// copies only the survivors into explorer-owned memory (materialize),
// so no canonical state aliases scratch memory.
//
// Two more fields outlive a fire. remarks caches the immutable remark
// strings of single-entry fires by node ID, for one graph. prefixes is
// a bump allocator of pending paths that is only ever appended to, so
// candidates and canonical states may alias it.
type scratch struct {
	ents    []Entry
	dang    [][]*ccfg.Node
	outs    []outcome
	lists   []span
	fresh   []Entry
	singles []int
	remark  []byte

	succs   []*PPS
	states  chunks[PPS]
	entries chunks[Entry]
	words   chunks[uint64]

	remarks  []string
	prefixes []*ccfg.Node
}

// prefixChunk is the size of the heap chunks prefix slices are carved
// from: large enough to amortize the allocation over many fires, small
// enough that a chunk kept alive by one pending list wastes little.
const prefixChunk = 64

// extend returns a new slice holding prefix followed by n. It is carved
// from the current prefix chunk and capped, so appending to it copies
// instead of writing into the chunk.
func (sc *scratch) extend(prefix []*ccfg.Node, n *ccfg.Node) []*ccfg.Node {
	need := len(prefix) + 1
	if cap(sc.prefixes)-len(sc.prefixes) < need {
		sc.prefixes = make([]*ccfg.Node, 0, max(prefixChunk, need))
	}
	lo := len(sc.prefixes)
	sc.prefixes = append(sc.prefixes, prefix...)
	sc.prefixes = append(sc.prefixes, n)
	return sc.prefixes[lo:len(sc.prefixes):len(sc.prefixes)]
}

// beginWave drops the previous wave's candidates, which the commit loop
// has consumed, and rewinds the arenas they were built in.
func (sc *scratch) beginWave() {
	sc.succs = sc.succs[:0]
	sc.states.rewind()
	sc.entries.rewind()
	sc.words.rewind()
}

// bind prepares the slot for exploring a graph of n nodes: the remark
// cache is indexed by node ID, so it belongs to one graph. release
// leaves it cleared.
func (sc *scratch) bind(n int) {
	if cap(sc.remarks) >= n {
		sc.remarks = sc.remarks[:n]
	} else {
		sc.remarks = make([]string, n)
	}
}

// keepLimit (in elements, for the outcome and candidate lists) and
// keepBytes (for each candidate arena) bound what a scratch slot keeps
// when it is shed. The root expansion multiplies every task's branch
// arms and can be far larger than any fire's, and one wide wave can
// need far more candidates than the next thousand small explorations,
// so neither may pin its buffers for the rest of the run or in the
// pool.
const (
	keepLimit = 1 << 12
	keepBytes = 1 << 20
)

// shed clears the pointer-holding buffers, so they retain nothing of
// the exploration, and drops every buffer beyond its bound.
func (sc *scratch) shed() {
	sc.ents = shedSlice(sc.ents)
	sc.dang = shedSlice(sc.dang)
	sc.fresh = shedSlice(sc.fresh)
	sc.succs = shedSlice(sc.succs)
	sc.outs = sc.outs[:0]
	if cap(sc.outs) > keepLimit {
		sc.outs = nil
	}
	sc.states.shed()
	sc.entries.shed()
	sc.words.shed()
}

// release readies the slot for another exploration, possibly of
// another graph: on top of shed it drops the prefix chunk, which live
// pending lists of this exploration alias, and invalidates the remark
// cache.
func (sc *scratch) release() {
	sc.shed()
	sc.prefixes = nil
	clear(sc.remarks)
	sc.remarks = sc.remarks[:0]
}

// shedSlice clears s up to its capacity and returns it emptied, or nil
// when it is larger than keepLimit.
func shedSlice[T any](s []T) []T {
	if cap(s) > keepLimit {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// chunks is an arena of T values carved from a list of fixed chunks.
// Chunk sizes double from minChunkBytes up to maxChunkBytes, so a tiny
// exploration pays for one small chunk and a large one allocates a
// small heap object once per maxChunkBytes. A chunk never moves, so a
// carved slice stays valid until the arena is rewound; it is capped,
// so appending to it copies instead of writing into its neighbour.
type chunks[T any] struct {
	list     [][]T
	cur, off int
	// used counts the chunks carved from since the last shed.
	used int
}

const (
	minChunkBytes = 64
	maxChunkBytes = 16 << 10
)

// take carves n values. Values of a rewound arena keep their old
// contents; the caller overwrites them.
func (a *chunks[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for ; a.cur < len(a.list); a.cur, a.off = a.cur+1, 0 {
		if c := a.list[a.cur]; a.off+n <= len(c) {
			if a.cur >= a.used {
				a.used = a.cur + 1
			}
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
	}
	var zero T
	elem := int(unsafe.Sizeof(zero))
	size := max(1, minChunkBytes/elem)
	if k := len(a.list); k > 0 {
		size = max(size, min(2*len(a.list[k-1]), maxChunkBytes/elem))
	}
	a.list = append(a.list, make([]T, max(size, n)))
	a.used = a.cur + 1
	a.off = n
	return a.list[a.cur][:n:n]
}

// rewind makes the whole arena available again.
func (a *chunks[T]) rewind() { a.cur, a.off = 0, 0 }

// shed rewinds the arena, clears the chunks carved from since the last
// shed, so the arena retains nothing they held, and drops the chunks
// beyond the first keepBytes.
func (a *chunks[T]) shed() {
	for _, c := range a.list[:a.used] {
		clear(c)
	}
	var zero T
	keep := keepBytes / int(unsafe.Sizeof(zero))
	kept := 0
	for i, c := range a.list {
		if kept += len(c); kept > keep {
			clear(a.list[i:])
			a.list = a.list[:i]
			break
		}
	}
	a.used = 0
	a.rewind()
}

// stateSets are the four bitsets of a state, carved from one slab.
type stateSets struct {
	state, ov, sv, visited bits.Set
}

// carveSets copies the four sets into one slab taken from words. Each
// copy's capacity ends at its own words, so growth can never spill into
// a neighbour.
func carveSets(words *chunks[uint64], state, ov, sv, visited bits.Set) stateSets {
	buf := words.take(state.Words() + ov.Words() + sv.Words() + visited.Words())
	var s stateSets
	s.state, buf = state.CopyTo(buf)
	s.ov, buf = ov.CopyTo(buf)
	s.sv, buf = sv.CopyTo(buf)
	s.visited, _ = visited.CopyTo(buf)
	return s
}

// span is a half-open index range into one of the scratch arenas.
type span struct{ lo, hi int }

func (r span) len() int { return r.hi - r.lo }

// outcome is one way execution can proceed from a point: a set of ASN
// entries, one per strand that reached a sync node, plus (for the MHP
// oracle) the dangling paths of strands that ended without one, which
// stay "in flight" until the task exits, since no event marks it. A
// leaf outcome holds its items as spans of scratch.ents and
// scratch.dang. A product outcome is outs[a] followed by outs[b], so
// combining lists costs one record per combination instead of a copy
// of its entries; appendEnts and appendDang flatten it.
type outcome struct {
	ents, dang   span
	prod         bool
	a, b         int
	nEnts, nDang int
}

// leaf returns the outcome holding exactly the given items.
func leaf(ents, dang span) outcome {
	return outcome{ents: ents, dang: dang, nEnts: ents.len(), nDang: dang.len()}
}

// combine returns outs[ai] followed by outs[bi].
func (sc *scratch) combine(ai, bi int) outcome {
	a, b := sc.outs[ai], sc.outs[bi]
	switch {
	case b.nEnts+b.nDang == 0:
		return a
	case a.nEnts+a.nDang == 0:
		return b
	}
	return outcome{prod: true, a: ai, b: bi, nEnts: a.nEnts + b.nEnts, nDang: a.nDang + b.nDang}
}

// appendEnts appends the entries of outs[i] to dst.
func (sc *scratch) appendEnts(dst []Entry, i int) []Entry {
	o := &sc.outs[i]
	if o.prod {
		return sc.appendEnts(sc.appendEnts(dst, o.a), o.b)
	}
	return append(dst, sc.ents[o.ents.lo:o.ents.hi]...)
}

// appendDang appends the dangling paths of outs[i] to dst.
func (sc *scratch) appendDang(dst [][]*ccfg.Node, i int) [][]*ccfg.Node {
	o := &sc.outs[i]
	if o.prod {
		return sc.appendDang(sc.appendDang(dst, o.a), o.b)
	}
	return append(dst, sc.dang[o.dang.lo:o.dang.hi]...)
}

// reset empties the outcome arenas before a fire.
func (sc *scratch) reset() {
	sc.ents = sc.ents[:0]
	sc.dang = sc.dang[:0]
	sc.outs = sc.outs[:0]
	sc.lists = sc.lists[:0]
}

// push appends one outcome and returns it as a one-element list.
func (sc *scratch) push(o outcome) span {
	sc.outs = append(sc.outs, o)
	return span{len(sc.outs) - 1, len(sc.outs)}
}

// concat pops the outcome lists sc.lists[from:] and returns their
// concatenation as one list.
func (sc *scratch) concat(from int) span {
	if len(sc.lists)-from == 1 {
		r := sc.lists[from]
		sc.lists = sc.lists[:from]
		return r
	}
	lo := len(sc.outs)
	for _, r := range sc.lists[from:] {
		sc.outs = append(sc.outs, sc.outs[r.lo:r.hi]...)
	}
	sc.lists = sc.lists[:from]
	return span{lo, len(sc.outs)}
}

// scratchTable is the explorer's set of scratch slots: slot w belongs
// to wave worker w alone, and slot 0 also serves the root expansion and
// the sequential path. outs holds one compute output per frontier
// index; workers write disjoint slots. Tables are pooled across
// explorations, so the arenas stop regrowing for every file.
type scratchTable struct {
	slots []scratch
	outs  []stepOut
}

var scratchPool = sync.Pool{New: func() any { return new(scratchTable) }}

// scratchFor returns the first n scratch slots, growing the table
// without dropping the buffers already grown and binding new slots to
// the explored graph. Called only by the sequential parts of run,
// between waves.
func (e *explorer) scratchFor(n int) []scratch {
	t := e.scratch
	if grow := n - len(t.slots); grow > 0 {
		t.slots = append(t.slots, make([]scratch, grow)...)
	}
	for ; e.bound < n; e.bound++ {
		t.slots[e.bound].bind(len(e.g.Nodes))
	}
	return t.slots[:n]
}

// releaseScratch returns the scratch table to the pool once the run is
// over, with every slot this explorer used released.
func (e *explorer) releaseScratch() {
	t := e.scratch
	for i := range t.slots[:e.bound] {
		t.slots[i].release()
	}
	// No wave of this run wrote past its largest frontier.
	clear(t.outs[:min(len(t.outs), e.res.Stats.MaxWorklist)])
	if cap(t.outs) > keepLimit {
		t.outs = nil
	}
	scratchPool.Put(t)
	e.scratch, e.bound = nil, 0
}
