package collective

import (
	"testing"
	"testing/quick"
)

func TestRingsValidation(t *testing.T) {
	if _, err := Rings(1, 2); err == nil {
		t.Error("Rings(1, _) should fail")
	}
	rings, err := Rings(8, 0)
	if err != nil || len(rings) != 1 {
		t.Errorf("Rings(8, 0) = %v, %v; want 1 default ring", rings, err)
	}
}

// ringIsSingleCycle checks the successor permutation visits all members.
func ringIsSingleCycle(succ []int) bool {
	n := len(succ)
	seen := make([]bool, n)
	cur := 0
	for i := 0; i < n; i++ {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		cur = succ[cur]
	}
	return cur == 0
}

func TestRingsAreSingleCycles(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16, 15, 32, 64} {
		for _, count := range []int{1, 2, 4} {
			rings, err := Rings(n, count)
			if err != nil {
				t.Fatalf("Rings(%d,%d): %v", n, count, err)
			}
			if len(rings) != count {
				t.Fatalf("Rings(%d,%d) returned %d rings", n, count, len(rings))
			}
			for r, succ := range rings {
				if !ringIsSingleCycle(succ) {
					t.Errorf("Rings(%d,%d) ring %d is not a single cycle: %v", n, count, r, succ)
				}
			}
		}
	}
}

func TestRingsProperty(t *testing.T) {
	f := func(rawN, rawCount uint8) bool {
		n := 2 + int(rawN)%64
		count := 1 + int(rawCount)%4
		rings, err := Rings(n, count)
		if err != nil || len(rings) != count {
			return false
		}
		for _, succ := range rings {
			if !ringIsSingleCycle(succ) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiRingEdgeDiversity(t *testing.T) {
	// For power-of-two group sizes, different odd strides must produce
	// disjoint undirected edge sets, densifying the DP graph.
	rings, err := Rings(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges := make(map[[2]int]struct{})
	for _, succ := range rings {
		for from, to := range succ {
			edges[[2]int{min(from, to), max(from, to)}] = struct{}{}
		}
	}
	if len(edges) != 32 {
		t.Errorf("2 rings over 16 members produced %d distinct undirected edges, want 32", len(edges))
	}
}

func TestReduceScatterShape(t *testing.T) {
	rings, _ := Rings(4, 2)
	buckets := []int64{1 << 20, 1 << 18}
	ts := ReduceScatter(4, buckets, rings)
	// n members × 2 rings × 2 buckets.
	if len(ts) != 16 {
		t.Fatalf("len(transfers) = %d, want 16", len(ts))
	}
	for _, tr := range ts {
		if tr.Phase != PhaseReduceScatter {
			t.Fatalf("phase = %v, want reduce-scatter", tr.Phase)
		}
		if tr.From == tr.To {
			t.Fatalf("self transfer %+v", tr)
		}
		if tr.Bytes <= 0 {
			t.Fatalf("non-positive transfer size %+v", tr)
		}
	}
}

func TestTransferVolumeMatchesRingAlgebra(t *testing.T) {
	// Ring reduce-scatter puts (n-1)/n × bytes on the wire per member,
	// so total volume ≈ (n-1) × bucket bytes.
	const n = 8
	rings, _ := Rings(n, 2)
	bucket := int64(1 << 24)
	ts := ReduceScatter(n, []int64{bucket}, rings)
	var got int64
	for _, tr := range ts {
		got += tr.Bytes
	}
	want := bucket * (n - 1)
	tolerance := int64(n * len(rings) * 2) // integer division slack
	if got < want-tolerance || got > want+tolerance {
		t.Errorf("total wire bytes = %d, want ≈ %d", got, want)
	}
}

func TestDistinctSizesAcrossBuckets(t *testing.T) {
	// Uneven buckets must produce multiple distinct transfer sizes —
	// the signature Algorithm 2 uses to classify a pair as DP.
	rings, _ := Rings(8, 2)
	ts := ReduceScatter(8, []int64{1 << 26, 1 << 26, 1 << 22}, rings)
	sizes := make(map[int64]struct{})
	for _, tr := range ts {
		sizes[tr.Bytes] = struct{}{}
	}
	if len(sizes) < 2 {
		t.Errorf("distinct transfer sizes = %d, want >= 2", len(sizes))
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	rings, _ := Rings(4, 1)
	if got := ReduceScatter(1, []int64{100}, rings); got != nil {
		t.Error("n=1 should produce no transfers")
	}
	if got := ReduceScatter(4, nil, rings); len(got) != 0 {
		t.Error("no buckets should produce no transfers")
	}
	if got := ReduceScatter(4, []int64{0, -5}, rings); len(got) != 0 {
		t.Error("non-positive buckets should be skipped")
	}
	if got := ReduceScatter(4, []int64{100}, nil); got != nil {
		t.Error("no rings should produce no transfers")
	}
}

// Property: every member sends exactly rings×buckets transfers per phase
// and every directed edge matches the ring successor.
func TestTransferEdgeConsistency(t *testing.T) {
	f := func(rawN, rawRings, rawBuckets uint8) bool {
		n := 2 + int(rawN)%32
		nRings := 1 + int(rawRings)%3
		nBuckets := 1 + int(rawBuckets)%4
		rings, err := Rings(n, nRings)
		if err != nil {
			return false
		}
		buckets := make([]int64, nBuckets)
		for i := range buckets {
			buckets[i] = int64(1+i) << 16
		}
		ts := ReduceScatter(n, buckets, rings)
		perMember := make([]int, n)
		for _, tr := range ts {
			if rings[tr.Ring][tr.From] != tr.To {
				return false
			}
			perMember[tr.From]++
		}
		for _, c := range perMember {
			if c != nRings*nBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReduceScatterDecomposition(b *testing.B) {
	rings, _ := Rings(16, 2)
	buckets := []int64{1 << 28, 1 << 28, 1 << 28, 1 << 26}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReduceScatter(16, buckets, rings)
	}
}
