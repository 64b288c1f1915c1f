package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, 2, -4, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Max(xs) != 7 {
		t.Errorf("Max = %v want 7", Max(xs))
	}
	if Max(nil) != 0 {
		t.Error("Max of empty should be 0")
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := Percentile([]float64{1, 2}, 50); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("P50 of {1,2} = %v, want 1.5", got)
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Error("Percentile modified its input")
	}
}

func TestMode(t *testing.T) {
	tests := []struct {
		name      string
		xs        []int
		wantValue int
		wantCount int
	}{
		{"empty", nil, 0, 0},
		{"single", []int{7}, 7, 1},
		{"clear mode", []int{1, 2, 2, 3, 2}, 2, 3},
		{"tie breaks low", []int{4, 4, 1, 1}, 1, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, c := Mode(tt.xs)
			if v != tt.wantValue || c != tt.wantCount {
				t.Errorf("Mode(%v) = (%d,%d), want (%d,%d)", tt.xs, v, c, tt.wantValue, tt.wantCount)
			}
		})
	}
}

func TestDistinctCount(t *testing.T) {
	if got := DistinctCount([]int64{1, 1, 2, 3, 3, 3}); got != 3 {
		t.Errorf("DistinctCount = %d, want 3", got)
	}
	if got := DistinctCount(nil); got != 0 {
		t.Errorf("DistinctCount(nil) = %d, want 0", got)
	}
}

// Property: Welford matches the batch mean/variance.
func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-9) &&
			almostEqual(w.Variance(), Variance(xs), 1e-9) &&
			w.N() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 || v < slices.Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkWelford(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 1000))
	}
	_ = w.Variance()
}

func BenchmarkMode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 1024)
	for i := range xs {
		xs[i] = rng.Intn(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mode(xs)
	}
}
