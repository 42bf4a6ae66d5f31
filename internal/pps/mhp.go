package pps

import (
	"uafcheck/internal/bits"
	"uafcheck/internal/ccfg"
)

// MHPOracle answers may-happen-in-parallel queries over CCFG nodes,
// derived from the same PPS exploration that powers the use-after-free
// check. Two nodes may happen in parallel iff some explored parallel
// program state has both nodes "in flight" on DIFFERENT strands — i.e.
// each is either the strand's next sync node or on the unattributed path
// leading to it.
//
// Because the exploration models point-to-point synchronization, this
// oracle is strictly more precise than the §VI tree-based analyses on
// wait-chain code: a node ordered before another by a sync-variable
// handshake is never reported parallel. (The §VI related work explicitly
// notes that none of the surveyed MHP algorithms handle point-to-point
// synchronization.)
type MHPOracle struct {
	n     int
	pairs bits.Set // symmetric matrix, row-major over node IDs
}

// MHP reports whether the two nodes may execute in parallel.
func (o *MHPOracle) MHP(a, b *ccfg.Node) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	return o.pairs.Has(a.ID*o.n + b.ID)
}

// PairCount returns the number of unordered MHP pairs.
func (o *MHPOracle) PairCount() int {
	count := 0
	o.pairs.ForEach(func(i int) {
		r, c := i/o.n, i%o.n
		if r < c {
			count++
		}
	})
	return count
}

// BuildMHP explores the graph and materializes the oracle.
func BuildMHP(g *ccfg.Graph, opts Options) *MHPOracle {
	o := &MHPOracle{n: len(g.Nodes), pairs: bits.New(len(g.Nodes) * len(g.Nodes))}
	e := newExplorer(g, opts)
	e.mhp = o
	e.run()
	return o
}

// CheckUAFViaMHP implements the §VI alternative formulation: "any outer
// variable access is potentially dangerous if the end of the variable
// scope may-happen-in-parallel with the access". It flags every tracked
// access whose node is MHP with the variable's scope-end node (or whose
// scope end is unknown).
//
// Because the oracle is derived from the same PPS exploration, its
// verdicts coincide with the direct algorithm's on the paper's examples —
// the two views differ only in HOW lateness is detected (state-set
// membership at sinks versus pairwise parallelism), which the
// equivalence test in mhp_test.go exercises.
func CheckUAFViaMHP(g *ccfg.Graph, opts Options) []*ccfg.Access {
	o := BuildMHP(g, opts)
	var out []*ccfg.Access
	for _, a := range g.Accesses {
		end := g.ScopeEnd[a.Sym]
		if end == nil || o.MHP(a.Node, end) {
			out = append(out, a)
		}
	}
	return out
}

// recordMHP marks every cross-strand node pair of the state as parallel.
// In-flight strands are the ASN entries (their pending path plus the
// sync node itself) and the trailing segments of strands that already
// passed their last synchronization event.
func (o *MHPOracle) record(p *PPS) {
	strands := make([][]*ccfg.Node, 0, len(p.Entries)+len(p.Trailing))
	for _, en := range p.Entries {
		nodes := make([]*ccfg.Node, 0, len(en.Pending)+1)
		nodes = append(nodes, en.Pending...)
		nodes = append(nodes, en.Sync)
		strands = append(strands, nodes)
	}
	strands = append(strands, p.Trailing...)
	for i := 0; i < len(strands); i++ {
		for j := i + 1; j < len(strands); j++ {
			for _, a := range strands[i] {
				for _, b := range strands[j] {
					if a == b {
						continue
					}
					o.pairs.Add(a.ID*o.n + b.ID)
					o.pairs.Add(b.ID*o.n + a.ID)
				}
			}
		}
	}
}
