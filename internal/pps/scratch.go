package pps

import "uafcheck/internal/ccfg"

// scratch is one compute worker's reusable buffers. Outcome lists of
// expand and product live in the ents/dang/outs arenas and are
// addressed by spans, lists is the stack on which an expansion gathers
// the outcome lists it combines, and remaining, singles and remark
// serve computeState and computeFire. Every buffer is overwritten by
// the worker's next fire, so successors copy what they keep and never
// alias scratch memory. The zero value is ready to use: buffers grow
// on the first fire.
//
// Three fields outlive a fire. succs collects the wave's successors:
// each stepOut holds a capped window of it, which the commit loop reads
// before the next wave resets it. remarks caches the immutable remark
// strings of single-entry fires by node ID. prefixes is a bump
// allocator of pending paths that is only ever appended to, so
// successors may alias it.
type scratch struct {
	ents      []Entry
	dang      [][]*ccfg.Node
	outs      []outcome
	lists     []span
	remaining []Entry
	singles   []int
	remark    []byte

	succs    []*PPS
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

// beginWave drops the previous wave's successor lists, which the commit
// loop has consumed.
func (sc *scratch) beginWave() {
	clear(sc.succs)
	sc.succs = sc.succs[:0]
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

// scratchFor returns the first n scratch slots, growing the table
// without dropping the buffers already grown. Called only by the wave
// loop, between waves.
func (e *explorer) scratchFor(n int) []scratch {
	if grow := n - len(e.scratch); grow > 0 {
		e.scratch = append(e.scratch, make([]scratch, grow)...)
	}
	return e.scratch[:n]
}
