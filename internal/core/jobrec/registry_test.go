package jobrec

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

func cl(endpoints ...flow.Addr) Cluster {
	return Cluster{Endpoints: endpoints}
}

func TestRegistryStableIdentity(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	at := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)

	ids := r.Assign(0, at, []Cluster{cl(1, 2, 3, 4), cl(10, 11, 12)})
	if !reflect.DeepEqual(ids, []JobID{1, 2}) {
		t.Fatalf("window 0 ids = %v, want [1 2]", ids)
	}
	// Same jobs, one with a fluctuating membership (3 of 4 endpoints seen).
	ids = r.Assign(1, at.Add(time.Minute), []Cluster{cl(1, 2, 4), cl(10, 11, 12)})
	if !reflect.DeepEqual(ids, []JobID{1, 2}) {
		t.Errorf("window 1 ids = %v, want [1 2] (fluctuating membership kept identity)", ids)
	}
	// A disjoint newcomer gets a fresh id; the firsts persist.
	ids = r.Assign(2, at.Add(2*time.Minute), []Cluster{cl(1, 2, 3, 4), cl(20, 21), cl(10, 11, 12)})
	if !reflect.DeepEqual(ids, []JobID{1, 3, 2}) {
		t.Errorf("window 2 ids = %v, want [1 3 2]", ids)
	}
	var first time.Time
	for _, j := range r.Snapshot().Jobs {
		if j.ID == 1 {
			first = j.FirstSeen
		}
	}
	if !first.Equal(at) {
		t.Errorf("job 1 first seen at %v, want %v", first, at)
	}
}

// TestRegistryExpiry: a job unmatched for 7 windows is still tracked; at
// expireAfter (8) it is forgotten, and its reappearance is a new job.
func TestRegistryExpiry(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	at := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	ids := r.Assign(0, at, []Cluster{cl(1, 2)})
	if ids[0] != 1 {
		t.Fatalf("ids = %v", ids)
	}
	for seq := 1; seq <= 7; seq++ {
		r.Assign(seq, at, nil)
	}
	if len(r.Snapshot().Jobs) != 1 {
		t.Fatalf("tracked jobs = %d after 7 empty windows, want 1", len(r.Snapshot().Jobs))
	}
	r.Assign(8, at, nil)
	if len(r.Snapshot().Jobs) != 0 {
		t.Fatalf("tracked jobs = %d, want 0 after expiry", len(r.Snapshot().Jobs))
	}
	ids = r.Assign(9, at, []Cluster{cl(1, 2)})
	if ids[0] != 2 {
		t.Errorf("reappeared job id = %v, want fresh id 2", ids[0])
	}
}

// TestRegistryBelowThresholdIsNewJob: a cluster at exactly matchJaccard
// (0.5) inherits the job's identity; one below it is a different job.
func TestRegistryBelowThresholdIsNewJob(t *testing.T) {
	at := time.Now()
	r := NewRegistry(RegistryConfig{})
	r.Assign(0, at, []Cluster{cl(1, 2, 3, 4)})
	// Jaccard 1/7 < 0.5: treated as a different job.
	ids := r.Assign(1, at, []Cluster{cl(4, 5, 6, 7)})
	if ids[0] != 2 {
		t.Errorf("dissimilar cluster id = %v, want 2", ids[0])
	}

	span := func(lo, hi flow.Addr) Cluster {
		var c Cluster
		for a := lo; a <= hi; a++ {
			c.Endpoints = append(c.Endpoints, a)
		}
		return c
	}
	for _, c := range []struct {
		cluster Cluster
		want    JobID
	}{
		{span(1, 100), 1}, // Jaccard 50/100: matched
		{Cluster{Endpoints: append(span(1, 49).Endpoints, span(51, 101).Endpoints...)}, 2}, // 49/101: a new job
	} {
		r := NewRegistry(RegistryConfig{})
		r.Assign(0, at, []Cluster{span(1, 50)})
		if ids := r.Assign(1, at, []Cluster{c.cluster}); ids[0] != c.want {
			t.Errorf("cluster of %d endpoints: id = %v, want %v", len(c.cluster.Endpoints), ids[0], c.want)
		}
	}
}

func TestRegistryDeterministicTieBreak(t *testing.T) {
	// Two tracked jobs, one window cluster equally similar to both: the
	// lowest JobID wins, every time.
	for i := 0; i < 5; i++ {
		r := NewRegistry(RegistryConfig{})
		at := time.Now()
		r.Assign(0, at, []Cluster{cl(1, 2), cl(3, 4)})
		ids := r.Assign(1, at, []Cluster{cl(1, 3)}) // Jaccard 1/3 with both... below threshold
		if ids[0] != 3 {
			t.Fatalf("ids = %v, want [3] (similarity below threshold)", ids)
		}
		r2 := NewRegistry(RegistryConfig{})
		r2.Assign(0, at, []Cluster{cl(1, 2), cl(3, 4)})
		ids = r2.Assign(1, at, []Cluster{cl(1, 2, 3, 4)}) // Jaccard 1/2 with both
		if ids[0] != 1 {
			t.Fatalf("tie ids = %v, want [1] (lowest id wins)", ids)
		}
	}
}

// TestRegistryNoMatchSteal is the regression for greedy in-order matching:
// an early cluster with a weak above-threshold similarity must not claim a
// tracked job that a later cluster matches strictly better — that swapped
// the two identities permanently. Two disjoint clusters cannot both match
// one job strictly above matchJaccard (their similarities sum to at most
// 1), so the two clusters here overlap; Assign does not require disjoint
// clusters.
func TestRegistryNoMatchSteal(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	at := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	ids := r.Assign(0, at, []Cluster{cl(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)})
	if !reflect.DeepEqual(ids, []JobID{1}) {
		t.Fatalf("window 0 ids = %v, want [1]", ids)
	}
	// Window 1: cluster 0 keeps 6 of job 1's endpoints (Jaccard 6/10 =
	// 0.6, above threshold); cluster 1 keeps 9 (Jaccard 0.9). Greedy
	// in-order matching let cluster 0 steal job 1.
	ids = r.Assign(1, at.Add(time.Minute), []Cluster{
		cl(1, 2, 3, 4, 5, 6),
		cl(2, 3, 4, 5, 6, 7, 8, 9, 10),
	})
	if !reflect.DeepEqual(ids, []JobID{2, 1}) {
		t.Errorf("window 1 ids = %v, want [2 1] (best match keeps the identity)", ids)
	}
}

// TestRegistryUnambiguousMatchesUnchanged: when every cluster's only
// above-threshold match is its own tracked job, best-first matching
// assigns exactly what the old per-cluster greedy pass did, across
// several windows of fluctuating membership.
func TestRegistryUnambiguousMatchesUnchanged(t *testing.T) {
	r := NewRegistry(RegistryConfig{})
	at := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	windows := [][]Cluster{
		{cl(1, 2, 3, 4), cl(10, 11, 12, 13), cl(20, 21, 22)},
		{cl(1, 2, 3), cl(10, 12, 13), cl(20, 21, 22)},    // partial observations
		{cl(1, 2, 3, 4), cl(20, 22), cl(10, 11, 12, 13)}, // reordered clusters
		{cl(5, 6, 7), cl(1, 2, 4), cl(10, 11, 12, 13)},   // newcomer, one job absent
	}
	want := [][]JobID{
		{1, 2, 3},
		{1, 2, 3},
		{1, 3, 2},
		{4, 1, 2},
	}
	for w, clusters := range windows {
		ids := r.Assign(w, at.Add(time.Duration(w)*time.Minute), clusters)
		if !reflect.DeepEqual(ids, want[w]) {
			t.Fatalf("window %d ids = %v, want %v", w, ids, want[w])
		}
	}
}

func TestSortedJaccard(t *testing.T) {
	cases := []struct {
		a, b []flow.Addr
		want float64
	}{
		{nil, nil, 1},
		{[]flow.Addr{1}, nil, 0},
		{[]flow.Addr{1, 2, 3}, []flow.Addr{1, 2, 3}, 1},
		{[]flow.Addr{1, 2, 3, 4}, []flow.Addr{3, 4, 5, 6}, 1.0 / 3},
	}
	for _, c := range cases {
		if got := sortedJaccard(c.a, c.b); got != c.want {
			t.Errorf("sortedJaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
