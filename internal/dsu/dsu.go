// Package dsu implements a disjoint-set union (union-find) data structure
// with union by rank and path compression.
//
// LLM training job recognition (Algorithm 1 of the LLMPrism paper) merges
// the endpoints of every observed network flow into clusters; a disjoint-set
// gives amortized near-constant time merges over millions of flows.
//
// The zero value is not usable directly because element storage is sized at
// construction; use New for a fixed universe of dense integer elements, or
// NewSparse for arbitrary comparable keys.
package dsu

// DSU is a disjoint-set union over the dense universe [0, n).
type DSU struct {
	parent []int32
	rank   []int8
}

// New returns a DSU over n singleton elements 0..n-1.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set, compressing paths on the way.
func (d *DSU) Find(x int) int {
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	for d.parent[x] != int32(root) {
		d.parent[x], x = int32(root), int(d.parent[x])
	}
	return root
}

// Union merges the sets containing x and y. It reports whether a merge
// happened (false if they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	return true
}

// Same reports whether x and y belong to the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Sparse is a disjoint-set union over arbitrary comparable keys. Keys are
// added implicitly on first use.
type Sparse[K comparable] struct {
	index map[K]int
	keys  []K
	d     *DSU
}

// NewSparse returns an empty sparse DSU.
func NewSparse[K comparable]() *Sparse[K] {
	return &Sparse[K]{index: make(map[K]int)}
}

func (s *Sparse[K]) id(k K) int {
	if i, ok := s.index[k]; ok {
		return i
	}
	i := len(s.keys)
	s.index[k] = i
	s.keys = append(s.keys, k)
	if s.d == nil {
		s.d = New(1)
	} else {
		s.d.parent = append(s.d.parent, int32(i))
		s.d.rank = append(s.d.rank, 0)
	}
	return i
}

// Union merges the sets containing x and y, inserting either if new.
// It reports whether a merge happened.
func (s *Sparse[K]) Union(x, y K) bool {
	ix, iy := s.id(x), s.id(y)
	return s.d.Union(ix, iy)
}

// Same reports whether x and y are known and belong to the same set.
func (s *Sparse[K]) Same(x, y K) bool {
	ix, okx := s.index[x]
	iy, oky := s.index[y]
	return okx && oky && s.d.Same(ix, iy)
}

// Groups returns the partition over all keys seen so far. Group order and
// member order follow first-insertion order of the representative keys.
func (s *Sparse[K]) Groups() [][]K {
	if s.d == nil {
		return nil
	}
	byRoot := make(map[int]int) // root id -> group slot
	var groups [][]K
	for i, k := range s.keys {
		r := s.d.Find(i)
		slot, ok := byRoot[r]
		if !ok {
			slot = len(groups)
			byRoot[r] = slot
			groups = append(groups, nil)
		}
		groups[slot] = append(groups[slot], k)
	}
	return groups
}
