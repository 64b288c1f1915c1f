package bocd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Test-only views of the posterior. A position in it is not a run length:
// run lengths are read from the count column.

// detect runs a fresh detector over xs and returns the indices i where
// P(r_i = 0) exceeded the configured threshold.
func detect(xs []float64, cfg Config) []int {
	d := New(cfg)
	var cps []int
	for i, x := range xs {
		if p := d.Step(x); p > d.cfg.Threshold && i > 0 {
			cps = append(cps, i)
		}
	}
	return cps
}

// runLengthDist returns the posterior probability of every hypothesis the
// detector still holds, shortest run first.
func runLengthDist(d *Detector) []float64 {
	out := make([]float64, len(d.logp))
	for i, lp := range d.logp {
		out[i] = math.Exp(lp)
	}
	return out
}

// mapRunLength returns the number of observations the maximum a posteriori
// hypothesis has absorbed.
func mapRunLength(d *Detector) int {
	best := 0
	for i, lp := range d.logp {
		if lp > d.logp[best] {
			best = i
		}
	}
	return int(d.cnt[best])
}

func TestDetectorFindsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var xs []float64
	for i := 0; i < 60; i++ {
		xs = append(xs, rng.NormFloat64()*0.5)
	}
	for i := 0; i < 60; i++ {
		xs = append(xs, 10+rng.NormFloat64()*0.5)
	}
	cps := detect(xs, Config{Hazard: 1.0 / 50})
	if len(cps) == 0 {
		t.Fatal("no change-point detected across a 20-sigma mean shift")
	}
	found := false
	for _, cp := range cps {
		if cp >= 58 && cp <= 63 {
			found = true
		}
	}
	if !found {
		t.Errorf("change-points %v do not include the true shift at 60", cps)
	}
}

func TestDetectorQuietOnStationaryData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := New(Config{Hazard: 1.0 / 200})
	fires := 0
	for i := 0; i < 500; i++ {
		if p := d.Step(rng.NormFloat64()); p > 0.95 && i > 5 {
			fires++
		}
	}
	if fires > 5 {
		t.Errorf("detector fired %d times on stationary noise, want <= 5", fires)
	}
}

func TestRunLengthDistNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New(Config{})
	for i := 0; i < 100; i++ {
		d.Step(rng.NormFloat64())
	}
	sum := 0.0
	for _, p := range runLengthDist(d) {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("run-length distribution sums to %v, want 1", sum)
	}
}

func TestMAPRunLengthGrowsOnStationaryData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := New(Config{Hazard: 1.0 / 1000})
	for i := 0; i < 200; i++ {
		d.Step(5 + rng.NormFloat64()*0.1)
	}
	if got := mapRunLength(d); got < 150 {
		t.Errorf("MAP run length = %d after 200 stationary obs, want >= 150", got)
	}
}

func TestTruncationKeepsWorking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := New(Config{MaxRunLength: 16, Hazard: 1.0 / 50})
	for i := 0; i < 200; i++ {
		d.Step(rng.NormFloat64())
	}
	if len(d.logp) > 16 {
		t.Errorf("run-length dist has %d entries, want <= 16", len(d.logp))
	}
	// Detection must still work after long truncated operation.
	fired := false
	for i := 0; i < 50; i++ {
		if p := d.Step(50 + rng.NormFloat64()); p > 0.95 {
			fired = true
			break
		}
	}
	if !fired {
		t.Error("truncated detector failed to fire on a 50-sigma shift")
	}
}

// Property: Step output is always a valid probability and the distribution
// stays normalized regardless of input.
func TestStepOutputsValidProbability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{})
		for i := 0; i < 50; i++ {
			x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
			p := d.Step(x)
			if math.IsNaN(p) || p < 0 || p > 1+1e-9 {
				return false
			}
		}
		sum := 0.0
		for _, q := range runLengthDist(d) {
			sum += q
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	got := logSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Errorf("logSumExp = %v, want log(6)", got)
	}
	if !math.IsInf(logSumExp(nil), -1) {
		t.Error("logSumExp(nil) should be -Inf")
	}
	if !math.IsInf(logSumExp([]float64{math.Inf(-1)}), -1) {
		t.Error("logSumExp of -Inf should be -Inf")
	}
}

func TestStudentTLogPDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
			return true
		}
		a := studentTLogPDF(x, 3, 0, 1)
		b := studentTLogPDF(-x, 3, 0, 1)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Step splitting ---

var splitEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// syntheticStepTimes builds nSteps bursts of burstLen events spaced
// intraGap apart, with interGap between bursts, plus optional jitter.
func syntheticStepTimes(nSteps, burstLen int, intraGap, interGap time.Duration, jitter float64, seed int64) []time.Time {
	rng := rand.New(rand.NewSource(seed))
	var times []time.Time
	cursor := splitEpoch
	for s := 0; s < nSteps; s++ {
		for i := 0; i < burstLen; i++ {
			times = append(times, cursor)
			gap := intraGap
			if jitter > 0 {
				gap += time.Duration(rng.NormFloat64() * jitter * float64(intraGap))
				if gap < intraGap/10 {
					gap = intraGap / 10
				}
			}
			cursor = cursor.Add(gap)
		}
		cursor = cursor.Add(interGap)
	}
	return times
}

func TestSplitTimesCleanSteps(t *testing.T) {
	times := syntheticStepTimes(8, 20, time.Millisecond, 2*time.Second, 0, 1)
	segments := SplitTimes(times, SplitConfig{})
	if len(segments) != 8 {
		t.Fatalf("got %d segments, want 8", len(segments))
	}
	for i, seg := range segments {
		if seg.Len() != 20 {
			t.Errorf("segment %d has %d events, want 20", i, seg.Len())
		}
	}
}

func TestSplitTimesWithJitter(t *testing.T) {
	times := syntheticStepTimes(10, 30, time.Millisecond, time.Second, 0.3, 2)
	segments := SplitTimes(times, SplitConfig{})
	if len(segments) != 10 {
		t.Fatalf("got %d segments with jitter, want 10", len(segments))
	}
}

func TestSplitTimesPartitionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSteps := 1 + rng.Intn(6)
		burst := 3 + rng.Intn(20)
		times := syntheticStepTimes(nSteps, burst, time.Millisecond, time.Second, 0.2, seed)
		segments := SplitTimes(times, SplitConfig{})
		// Segments must partition [0, len(times)) contiguously.
		expect := 0
		for _, seg := range segments {
			if seg.Lo != expect || seg.Hi <= seg.Lo {
				return false
			}
			expect = seg.Hi
		}
		return expect == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSplitTimesSmallInputs(t *testing.T) {
	if got := SplitTimes(nil, SplitConfig{}); got != nil {
		t.Errorf("SplitTimes(nil) = %v, want nil", got)
	}
	one := []time.Time{splitEpoch}
	if got := SplitTimes(one, SplitConfig{}); len(got) != 1 || got[0] != (Segment{0, 1}) {
		t.Errorf("SplitTimes(one event) = %v, want single segment", got)
	}
	two := []time.Time{splitEpoch, splitEpoch.Add(time.Second)}
	if got := SplitTimes(two, SplitConfig{}); len(got) != 1 || got[0] != (Segment{0, 2}) {
		t.Errorf("SplitTimes(two events) = %v, want single segment", got)
	}
}

func TestNaiveSplitTimes(t *testing.T) {
	times := syntheticStepTimes(5, 10, time.Millisecond, time.Second, 0, 3)
	segments := NaiveSplitTimes(times, 5)
	if len(segments) != 5 {
		t.Fatalf("naive splitter got %d segments, want 5", len(segments))
	}
	if got := NaiveSplitTimes(nil, 5); got != nil {
		t.Error("NaiveSplitTimes(nil) should be nil")
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("medianOf odd = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("medianOf even = %v, want 2.5", got)
	}
	if got := medianOf(nil); got != 0 {
		t.Errorf("medianOf(nil) = %v, want 0", got)
	}
}

func BenchmarkDetectorStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := New(Config{MaxRunLength: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(rng.NormFloat64())
	}
}

// BenchmarkSplitTimes times the splitter on the shapes the monitor feeds it:
// short is one pair's or rank's events in a 5 s window, long the same in a
// 60 s window, both through a pool as the streaming monitor runs them; fresh
// is the unpooled one-shot path on a mid-sized sequence. Those three are
// clean synthetic bursts with a Reset at every boundary, so no hypothesis in
// them is ever dead; minute-rank is a real rank's one-minute window from the
// fixtures, where a guard-rejected pause in every step leaves most of the
// unpruned posterior below the floor.
func BenchmarkSplitTimes(b *testing.B) {
	pool := NewPool(Config{})
	bursts := func(steps, burst int) []time.Time {
		return syntheticStepTimes(steps, burst, time.Millisecond, time.Second, 0.2, 1)
	}
	fixtures := loadSplitFixtures(b)
	for _, bc := range []struct {
		name  string
		times []time.Time
		steps int
		cfg   SplitConfig
	}{
		{"fresh", bursts(20, 50), 20, SplitConfig{}},
		{"short", bursts(2, 20), 2, SplitConfig{Detectors: pool}},
		{"long", bursts(20, 45), 20, SplitConfig{Detectors: pool}},
		{"minute-rank", fixtures[len(fixtures)-1], 22, SplitConfig{Detectors: pool}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			times := bc.times
			if got := len(SplitTimes(times, bc.cfg)); got != bc.steps {
				b.Fatalf("%d segments, want %d", got, bc.steps)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SplitTimes(times, bc.cfg)
			}
		})
	}
}

// TestDetectorBoundedOnEndlessSequence holds the Detector doc to its word:
// fed without end, across Reset cycles, the constants table, the posterior
// and every buffer stop growing. Only the longest run's count passes
// MaxRunLength, and its constants advance in place.
func TestDetectorBoundedOnEndlessSequence(t *testing.T) {
	const max = 64
	rng := rand.New(rand.NewSource(17))
	d := New(Config{MaxRunLength: max})
	// Each column is a buffer pair that trades places every step.
	sizes := func() [5]int {
		return [5]int{len(d.tab), cap(d.logp) + cap(d.spareLogp), cap(d.mu) + cap(d.spareMu),
			cap(d.beta) + cap(d.spareBeta), cap(d.cnt) + cap(d.spareCnt)}
	}
	var plateau [5]int
	for cycle := 0; cycle < 3; cycle++ {
		d.Reset()
		for i, x := range winsorizedObs(rng, 100000/3) {
			d.Step(x)
			if len(d.logp) > max || len(d.tab) > max {
				t.Fatalf("cycle %d step %d: %d hypotheses, %d table entries under MaxRunLength %d", cycle, i, len(d.logp), len(d.tab), max)
			}
			if cycle == 0 && i == 10*max {
				plateau = sizes()
			}
		}
		if got := sizes(); got != plateau {
			t.Fatalf("cycle %d: table and buffer sizes %v, were %v after %d steps", cycle, got, plateau, 10*max)
		}
		if got := mapRunLength(d); d.N() != 100000/3 || got > d.N() {
			t.Fatalf("cycle %d: N = %d, MAP run length %d", cycle, d.N(), got)
		}
	}
}

// TestDetectorResetMatchesFresh pins the buffer-reuse contract: a detector
// reused via Reset must emit exactly the probabilities a fresh detector
// does, for several consecutive sequences — the double-buffered posterior
// update must never let a stale buffer leak into a new run.
func TestDetectorResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reused := New(Config{})
	for run := 0; run < 4; run++ {
		fresh := New(Config{})
		if run > 0 {
			reused.Reset()
		}
		for i := 0; i < 700; i++ { // past MaxRunLength truncation
			x := rng.NormFloat64()
			if i > 350 {
				x += 8
			}
			pf := fresh.Step(x)
			pr := reused.Step(x)
			if pf != pr {
				t.Fatalf("run %d step %d: fresh %v != reused %v", run, i, pf, pr)
			}
		}
		if fresh.N() != reused.N() {
			t.Fatalf("run %d: N %d != %d", run, fresh.N(), reused.N())
		}
	}
}
