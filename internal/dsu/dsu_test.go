package dsu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSingletons(t *testing.T) {
	d := New(5)
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Errorf("Find(%d) = %d, want %d", i, d.Find(i), i)
		}
	}
}

func TestUnionBasics(t *testing.T) {
	d := New(6)
	if !d.Union(0, 1) {
		t.Fatal("Union(0,1) = false, want true")
	}
	if d.Union(1, 0) {
		t.Fatal("Union(1,0) on same set = true, want false")
	}
	if !d.Same(0, 1) {
		t.Fatal("Same(0,1) = false after union")
	}
	if d.Same(0, 2) {
		t.Fatal("Same(0,2) = true, want false")
	}
}

func TestTransitivity(t *testing.T) {
	d := New(10)
	d.Union(1, 2)
	d.Union(2, 3)
	d.Union(3, 4)
	for _, pair := range [][2]int{{1, 4}, {1, 3}, {2, 4}} {
		if !d.Same(pair[0], pair[1]) {
			t.Errorf("Same(%d,%d) = false, want true", pair[0], pair[1])
		}
	}
}

// Property: number of sets equals n minus the number of successful unions.
func TestSetCountInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		d := New(n)
		merges := 0
		for i := 0; i < 400; i++ {
			if d.Union(rng.Intn(n), rng.Intn(n)) {
				merges++
			}
		}
		roots := make(map[int]bool)
		for i := 0; i < n; i++ {
			roots[d.Find(i)] = true
		}
		return len(roots) == n-merges
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Find is idempotent and consistent across calls.
func TestFindIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		d := New(n)
		for i := 0; i < 150; i++ {
			d.Union(rng.Intn(n), rng.Intn(n))
		}
		for i := 0; i < n; i++ {
			r := d.Find(i)
			if d.Find(r) != r || d.Find(i) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: groups partition the keys seen (every key in exactly one
// group), and two keys share a group exactly when Same says so.
func TestGroupsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		s := NewSparse[int]()
		for i := 0; i < 200; i++ {
			s.Union(rng.Intn(n), rng.Intn(n))
		}
		group := make(map[int]int)
		for g, members := range s.Groups() {
			for _, m := range members {
				if _, dup := group[m]; dup {
					return false
				}
				group[m] = g
			}
		}
		for a := range group {
			for b := range group {
				if (group[a] == group[b]) != s.Same(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseBasics(t *testing.T) {
	s := NewSparse[string]()
	if s.Groups() != nil || s.Same("a", "a") {
		t.Fatal("empty sparse DSU should have no groups and no keys")
	}
	s.Union("a", "b")
	s.Union("c", "d")
	if !s.Same("a", "b") || s.Same("a", "c") || s.Same("a", "zzz") {
		t.Fatal("Same() results inconsistent with unions")
	}
	s.Union("b", "c")
	if !s.Same("a", "d") {
		t.Fatal("transitivity across sparse unions failed")
	}
}

func TestSparseGroups(t *testing.T) {
	s := NewSparse[int]()
	s.Union(10, 20)
	s.Union(30, 40)
	s.Union(20, 30)
	s.Union(99, 99)
	groups := s.Groups()
	if len(groups) != 2 {
		t.Fatalf("len(Groups()) = %d, want 2", len(groups))
	}
	var big, small []int
	if len(groups[0]) > len(groups[1]) {
		big, small = groups[0], groups[1]
	} else {
		big, small = groups[1], groups[0]
	}
	if len(big) != 4 || len(small) != 1 || small[0] != 99 {
		t.Fatalf("groups = %v, want one group of 4 and {99}", groups)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 4096)
	ys := make([]int, 4096)
	for i := range xs {
		xs[i], ys[i] = rng.Intn(n), rng.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for j := range xs {
			d.Union(xs[j], ys[j])
		}
	}
}
