// Package bits provides a small dense bitset used by the PPS explorer for
// visited-node, outer-variable and safe-access sets. The explorer copies
// sets on every state transition, so the representation favors cheap
// cloning and word-wise union/intersection.
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a dense bitset. The zero value is an empty set of capacity 0;
// use New to pre-size.
type Set struct {
	words []uint64
}

// New returns an empty set able to hold values in [0, n) without growing.
func New(n int) Set {
	return Set{words: make([]uint64, (n+63)/64)}
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

func (s *Set) grow(i int) {
	need := i/64 + 1
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Add inserts i.
func (s *Set) Add(i int) {
	s.grow(i)
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove deletes i.
func (s *Set) Remove(i int) {
	if i/64 < len(s.words) {
		s.words[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Has reports membership of i.
func (s Set) Has(i int) bool {
	if i < 0 || i/64 >= len(s.words) {
		return false
	}
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s, returning true if s changed.
func (s *Set) UnionWith(t Set) bool {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	changed := false
	for i, w := range t.words {
		if s.words[i]|w != s.words[i] {
			changed = true
			s.words[i] |= w
		}
	}
	return changed
}

// IntersectWith keeps only elements also in t, returning true on change.
func (s *Set) IntersectWith(t Set) bool {
	changed := false
	for i := range s.words {
		var w uint64
		if i < len(t.words) {
			w = t.words[i]
		}
		if s.words[i]&w != s.words[i] {
			changed = true
			s.words[i] &= w
		}
	}
	return changed
}

// DiffWith removes every element of t from s.
func (s *Set) DiffWith(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
}

// MoveTo moves the elements of s that are also in mask into dst,
// reporting whether any moved.
func (s *Set) MoveTo(dst *Set, mask Set) bool {
	moved := false
	for i, w := range s.words {
		if i >= len(mask.words) {
			break
		}
		if m := w & mask.words[i]; m != 0 {
			for len(dst.words) <= i {
				dst.words = append(dst.words, 0)
			}
			s.words[i] &^= m
			dst.words[i] |= m
			moved = true
		}
	}
	return moved
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Elems returns the members in ascending order.
func (s Set) Elems() []int {
	var out []int
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &^= 1 << uint(b)
		}
	}
	return out
}

// ForEach calls f on each member in ascending order.
func (s Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Words returns the number of 64-bit words backing the set.
func (s Set) Words() int { return len(s.words) }

// CopyTo copies s into the front of buf, which must hold at least
// s.Words() words, and returns the copy together with the rest of buf.
// The copy's capacity ends where its words do, so growing it
// reallocates instead of writing into the rest of buf: callers carve
// several sets out of one slab this way.
func (s Set) CopyTo(buf []uint64) (Set, []uint64) {
	n := len(s.words)
	copy(buf[:n], s.words)
	return Set{words: buf[:n:n]}, buf[n:]
}

// FNV-1a parameters, applied to whole words by Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashSeed is the initial value to fold hashes from.
const HashSeed uint64 = fnvOffset64

// Mix folds v into the running hash h.
func Mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// Hash folds the set's words into the running hash h. Trailing zero
// words are skipped, so equal sets with different capacities hash
// alike.
func (s Set) Hash(h uint64) uint64 {
	last := len(s.words) - 1
	for last >= 0 && s.words[last] == 0 {
		last--
	}
	for _, w := range s.words[:last+1] {
		h = Mix(h, w)
	}
	return Mix(h, uint64(last+1))
}

// String renders "{1,5,9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
