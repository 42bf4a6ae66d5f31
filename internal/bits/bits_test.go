package bits

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(10)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(64) // beyond initial capacity: must grow
	s.Add(129)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, i := range []int{3, 64, 129} {
		if !s.Has(i) {
			t.Errorf("missing %d", i)
		}
	}
	if s.Has(4) || s.Has(1000) || s.Has(-1) {
		t.Error("phantom members")
	}
	s.Remove(64)
	if s.Has(64) || s.Len() != 2 {
		t.Error("Remove failed")
	}
	s.Remove(10000) // out of range: no-op
}

func TestCloneIndependence(t *testing.T) {
	a := New(8)
	a.Add(1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Error("Clone aliases original")
	}
	if !b.Has(1) {
		t.Error("Clone lost members")
	}
}

// Sets carved from one slab are independent: growing the first
// reallocates it instead of spilling into its neighbour.
func TestCopyToCarvesIndependentSets(t *testing.T) {
	a, b := New(64), New(64)
	a.Add(3)
	b.Add(5)
	slab := make([]uint64, a.Words()+b.Words())
	ca, rest := a.CopyTo(slab)
	cb, rest := b.CopyTo(rest)
	if len(rest) != 0 || !ca.Equal(a) || !cb.Equal(b) {
		t.Fatalf("carved %v %v from %v %v", ca, cb, a, b)
	}
	ca.Add(64 + 7)
	ca.Add(4)
	if !cb.Equal(b) {
		t.Errorf("growing the first set changed its neighbour: %v", cb)
	}
	if a.Has(4) {
		t.Error("CopyTo aliases its source")
	}
}

func TestElemsOrdered(t *testing.T) {
	s := New(0)
	for _, i := range []int{200, 5, 63, 64, 0} {
		s.Add(i)
	}
	want := []int{0, 5, 63, 64, 200}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(4)
	s.Add(1)
	s.Add(9)
	if s.String() != "{1,9}" {
		t.Errorf("String = %q", s.String())
	}
	if New(0).String() != "{}" {
		t.Error("empty String wrong")
	}
}

// model is a reference implementation over map[int]bool.
type model map[int]bool

func fromInts(xs []uint8) (Set, model) {
	s := New(0)
	m := model{}
	for _, x := range xs {
		s.Add(int(x))
		m[int(x)] = true
	}
	return s, m
}

// Property: UnionWith agrees with the map model.
func TestUnionProperty(t *testing.T) {
	check := func(a, b []uint8) bool {
		sa, ma := fromInts(a)
		sb, mb := fromInts(b)
		sa.UnionWith(sb)
		for k := range mb {
			ma[k] = true
		}
		if sa.Len() != len(ma) {
			return false
		}
		for k := range ma {
			if !sa.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: IntersectWith agrees with the map model.
func TestIntersectProperty(t *testing.T) {
	check := func(a, b []uint8) bool {
		sa, ma := fromInts(a)
		sb, mb := fromInts(b)
		sa.IntersectWith(sb)
		want := model{}
		for k := range ma {
			if mb[k] {
				want[k] = true
			}
		}
		if sa.Len() != len(want) {
			return false
		}
		for k := range want {
			if !sa.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: DiffWith agrees with the map model.
func TestDiffProperty(t *testing.T) {
	check := func(a, b []uint8) bool {
		sa, ma := fromInts(a)
		sb, mb := fromInts(b)
		sa.DiffWith(sb)
		for k := range ma {
			if mb[k] {
				delete(ma, k)
			}
		}
		if sa.Len() != len(ma) {
			return false
		}
		for k := range ma {
			if !sa.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: MoveTo agrees with moving each element of s ∩ mask from s
// to dst one by one, and reports whether any moved.
func TestMoveToProperty(t *testing.T) {
	check := func(a, m, d []uint8) bool {
		s, ms := fromInts(a)
		mask, mm := fromInts(m)
		dst, md := fromInts(d)
		moved := s.MoveTo(&dst, mask)
		want := false
		for k := range ms {
			if mm[k] {
				delete(ms, k)
				md[k] = true
				want = true
			}
		}
		if moved != want || s.Len() != len(ms) || dst.Len() != len(md) {
			return false
		}
		for k := range ms {
			if !s.Has(k) {
				return false
			}
		}
		for k := range md {
			if !dst.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal and Hash are capacity-insensitive — two sets with the
// same members but different internal capacities compare equal and hash
// identically.
func TestEqualAndKeyCanonicalProperty(t *testing.T) {
	check := func(xs []uint8) bool {
		small, _ := fromInts(xs)
		big := New(4096)
		for _, x := range xs {
			big.Add(int(x))
		}
		if !small.Equal(big) || !big.Equal(small) {
			return false
		}
		return small.Hash(HashSeed) == big.Hash(HashSeed)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: union reports change iff the set actually grew.
func TestUnionChangeReporting(t *testing.T) {
	check := func(a, b []uint8) bool {
		sa, _ := fromInts(a)
		sb, _ := fromInts(b)
		before := sa.Len()
		changed := sa.UnionWith(sb)
		return changed == (sa.Len() > before)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachMatchesElems(t *testing.T) {
	s, _ := fromInts([]uint8{3, 3, 7, 200, 0})
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("ForEach %v vs Elems %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach %v vs Elems %v", got, want)
		}
	}
}
