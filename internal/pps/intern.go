package pps

import (
	"bytes"

	"uafcheck/internal/bits"
)

// This file is the hash-consing layer of the exploration: every PPS is
// identified by its (ASN, state-table, counter-vector) triple, hashed to
// a 64-bit key by word operations. The interner maps that key to the
// canonical *PPS, so the §III-C merge rule ("states with identical ASN
// and state table are folded") is one map probe plus a structural
// comparison of the triple.
//
// Only the sequential commit loop (see parallel.go) touches the
// interner, which is what keeps state IDs, merge counts and warning
// order deterministic, so it needs no locking.

// interner maps an identity hash to the canonical states with that
// hash, chained through PPS.hnext. A hash collision therefore costs a
// comparison, never a wrong merge.
type interner map[uint64]*PPS

// lookup returns the canonical state with p's identity, or nil.
func (it interner) lookup(p *PPS) *PPS {
	for q := it[p.hkey]; q != nil; q = q.hnext {
		if sameIdentity(q, p) {
			return q
		}
	}
	return nil
}

// insert registers p as the canonical state for its identity. The
// caller guarantees a prior lookup miss.
func (it interner) insert(p *PPS) {
	p.hnext = it[p.hkey]
	it[p.hkey] = p
}

// identityHash hashes the state's merge identity: the sync-node IDs of
// the ASN (entries are sorted), the state-table words and the counter
// vector. OV/SV/Visited are deliberately excluded: they are what
// merging folds, not what identifies a state.
func identityHash(p *PPS) uint64 {
	h := bits.HashSeed
	for _, en := range p.Entries {
		h = bits.Mix(h, uint64(en.Sync.ID))
	}
	h = bits.Mix(h, uint64(len(p.Entries)))
	h = p.State.Hash(h)
	for _, c := range p.Counters {
		h = bits.Mix(h, uint64(c))
	}
	return h
}

// sameIdentity reports whether a and b have the same (ASN, state-table,
// counters) triple.
func sameIdentity(a, b *PPS) bool {
	if len(a.Entries) != len(b.Entries) || !bytes.Equal(a.Counters, b.Counters) || !a.State.Equal(b.State) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i].Sync.ID != b.Entries[i].Sync.ID {
			return false
		}
	}
	return true
}
