package bocd

import (
	"testing"
	"time"
)

func TestPoolReuseMatchesFresh(t *testing.T) {
	p := NewPool(Config{})
	xs := []float64{1, 1.1, 0.9, 1, 8, 1, 1.05, 0.95, 1, 7.5, 1, 1.02}

	run := func(d *Detector) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = d.Step(x)
		}
		return out
	}
	want := run(New())

	d := p.Get()
	first := run(d)
	p.Put(d)
	d2 := p.Get()
	if d2 != d {
		t.Fatal("pool did not reuse the returned detector")
	}
	second := run(d2)
	p.Put(d2)
	for i := range want {
		if want[i] != first[i] || want[i] != second[i] {
			t.Fatalf("step %d: fresh %v, first %v, reused %v — reuse changed results", i, want[i], first[i], second[i])
		}
	}
}

func TestSplitTimesPooledMatchesFresh(t *testing.T) {
	epoch := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	var times []time.Time
	at := epoch
	for step := 0; step < 6; step++ {
		for i := 0; i < 10; i++ {
			times = append(times, at)
			at = at.Add(20 * time.Millisecond)
		}
		at = at.Add(2 * time.Second) // step boundary gap
	}

	fresh := SplitTimes(times, SplitConfig{})
	pool := NewPool(Config{})
	pooled := SplitConfig{Detectors: pool}
	for i := 0; i < 3; i++ {
		got := SplitTimes(times, pooled)
		if len(got) != len(fresh) {
			t.Fatalf("run %d: segments = %d, want %d", i, len(got), len(fresh))
		}
		for j := range got {
			if got[j] != fresh[j] {
				t.Fatalf("run %d segment %d: %+v, want %+v", i, j, got[j], fresh[j])
			}
		}
	}
}
